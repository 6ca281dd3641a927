"""Spans around the calls into each opteleport layer, recorded from outside.

The tracer replaces public functions and methods of the package with
wrappers that time the call and pass arguments and results through
untouched.  A function is replaced at its defining module attribute and at
every other ``opteleport`` module that imported it by name, so
``teleport.basic_construction`` is traced like ``tower.basic_construction``.

Spans live in memory as ``(group, start_ns, end_ns, parent, certificate)``
tuples and are written out once, when the run ends.  Exact counters (calls,
computed bytes, ranks, Check records) are kept per cycle so that two cycles
of identical work can be compared.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import io
import json
import sys
import time
from collections import Counter

from metrics import LAYERS

# (span group, owner inside the package, attribute, kind).  Kinds: "function"
# (module attribute), "method", "classmethod", "cached_property", and "count"
# (a method whose calls are counted without a span, for very hot callables
# whose only listed metric is a count).
TARGETS = [
    ("linalg.span_onb", "linalg", "span_onb", "function"),
    ("linalg.product_span", "linalg", "product_span", "function"),
    ("linalg.span_coords", "linalg", "span_coords", "function"),
    ("linalg.partial_trace", "linalg", "partial_trace", "function"),
    ("linalg.nullspace", "linalg", "nullspace", "function"),
    ("algebra.from_generators", "algebra.StarAlgebra", "from_generators", "classmethod"),
    ("algebra.structure", "algebra.StarAlgebra", "from_span", "classmethod"),
    ("algebra.structure", "algebra.StarAlgebra", "commuting_product", "classmethod"),
    ("algebra.structure", "algebra.StarAlgebra", "tensor", "classmethod"),
    ("algebra.structure", "algebra.StarAlgebra", "image", "method"),
    ("algebra.structure", "algebra.StarAlgebra", "anti_image", "method"),
    ("algebra.structure", "algebra.StarAlgebra", "commutant", "cached_property"),
    ("algebra.structure", "algebra.StarAlgebra", "__init__", "method"),
    ("algebra.structure", "algebra", "intersect", "function"),
    ("algebra.expectation", "algebra", "conditional_expectation_onto", "function"),
    ("algebra.trace.calls", "algebra.Trace", "__call__", "count"),
    ("algebra.superoperator", "algebra.Superoperator", "__call__", "method"),
    ("inclusion.construct", "inclusion.Inclusion", "__init__", "method"),
    ("inclusion.construct", "inclusion", "markov_inclusion", "function"),
    ("inclusion.construct", "inclusion", "trivial_in_full", "function"),
    ("inclusion.construct", "inclusion", "diagonal_in_full", "function"),
    ("inclusion.construct", "inclusion", "homogeneous_in_full", "function"),
    ("inclusion.markov_trace", "inclusion", "markov_trace", "function"),
    ("tower.level1", "tower", "basic_construction", "function"),
    ("tower.level2", "tower", "iterate", "function"),
    ("tower.verify", "tower", "verify_tower", "function"),
    ("tower.verify", "tower", "verify_epr", "function"),
    ("tower.verify", "tower", "normalizer_check", "function"),
    ("tower.gns_build", "tower.GnsSpace", "__init__", "method"),
    ("tower.gns_left", "tower.GnsSpace", "left", "method"),
    ("bases.construct", "bases", "weyl_basis", "function"),
    ("bases.construct", "bases", "shift_basis", "function"),
    ("bases.construct", "bases", "character_basis", "function"),
    ("bases.construct", "bases", "commutant_factor_basis", "function"),
    ("bases.construct", "bases", "homogeneous_block_basis", "function"),
    ("bases.construct", "bases", "homogeneity_test", "function"),
    ("bases.verify_basis", "bases", "verify_basis", "function"),
    ("teleport.construct", "teleport", "standard_scheme", "function"),
    ("teleport.construct", "teleport", "direct_sum_scheme", "function"),
    ("teleport.construct", "teleport", "unbiased_scheme", "function"),
    ("teleport.construct", "teleport", "tight_scheme_from_basis", "function"),
    ("teleport.verify_scheme", "teleport", "verify_scheme", "function"),
    ("teleport.classify", "teleport", "classify", "function"),
    ("teleport.extract", "teleport", "extract_tight_scheme", "function"),
    ("qgraph.chromatic_bounds", "qgraph", "chromatic_bounds", "function"),
    ("qgraph.colouring", "qgraph", "factor_colouring", "function"),
    ("qgraph.colouring", "qgraph", "basis_colouring", "function"),
    ("qgraph.colouring", "qgraph", "verify_colouring", "function"),
    ("cli.main", "cli", "main", "function"),
    ("reporting.checks", "reporting.Report", "add", "count"),
    ("reporting.checks", "reporting.Report", "add_flag", "count"),
]

COMPLEX_BYTES = 16


class Tracer:
    def __init__(self) -> None:
        self.groups: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.certificate = -1
        self.cycles: list[Counter] = []
        self.counts: Counter = Counter()
        self._error_type: type = Exception
        self._errors_seen: list[tuple[str, BaseException]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- cycle and certificate bookkeeping -----------------------------------

    def start_cycle(self) -> None:
        self.counts = Counter()
        self.cycles.append(self.counts)

    def start_certificate(self, cert_id: int) -> None:
        self.certificate = cert_id

    # -- wrappers --------------------------------------------------------------

    def _group_id(self, group: str) -> int:
        if group not in self.groups:
            self.groups.append(group)
        return self.groups.index(group)

    def _record_error(self, layer: str, exc: BaseException) -> None:
        # one count per layer an error leaves, however many wrapped calls it crosses
        if any(seen == layer and error is exc for seen, error in self._errors_seen):
            return
        self._errors_seen.append((layer, exc))
        self.counts[layer + ".errors"] += 1

    def _span_wrapper(self, group: str, fn, after=None):
        gid = self._group_id(group)
        layer = group.split(".", 1)[0]
        calls_key = group + ".calls"
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        error_type = self._error_type

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except error_type as exc:
                self._record_error(layer, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (gid, start, end, parent, self.certificate)
                self.counts[calls_key] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_wrapper(self, group: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[group] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-call facts read from arguments and results -------------------------

    def _after_span_onb(self, args, result) -> None:
        mats = args[0]
        rows = len(mats)
        counts = self.counts
        counts["linalg.span_onb.rows"] += rows
        counts["linalg.span_onb.rank"] += result.shape[0]
        if rows:
            counts["linalg.span_onb.svd_bytes"] += rows * mats[0].size * COMPLEX_BYTES

    def _after_algebra_init(self, args, result) -> None:
        nbytes = args[0].basis.nbytes
        self.counts["algebra.basis_bytes"] += nbytes
        if nbytes > self.counts["algebra.basis_bytes_max"]:
            self.counts["algebra.basis_bytes_max"] = nbytes

    def _after_gns_init(self, args, result) -> None:
        dim = args[0].dim
        if dim > self.counts["tower.gns_dim_max"]:
            self.counts["tower.gns_dim_max"] = dim

    def _cli_main(self, fn):
        """cli.main with its stdout counted; the text is passed on unchanged."""
        inner = self._span_wrapper("cli.main", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = inner(*args, **kwargs)
            text = buffer.getvalue()
            self.counts["cli.bytes_out"] += len(text.encode())
            sys.stdout.write(text)
            return code

        return wrapper

    # -- install and restore ---------------------------------------------------

    def install(self) -> None:
        from opteleport.errors import OpteleportError

        self._error_type = OpteleportError
        modules = [
            importlib.import_module(f"opteleport.{layer}") for layer in LAYERS
        ] + [importlib.import_module("opteleport")]
        after = {
            ("linalg", "span_onb"): self._after_span_onb,
            ("algebra.StarAlgebra", "__init__"): self._after_algebra_init,
            ("tower.GnsSpace", "__init__"): self._after_gns_init,
        }
        for group, owner_path, attr, kind in TARGETS:
            module_name, _, class_name = owner_path.partition(".")
            owner = importlib.import_module(f"opteleport.{module_name}")
            if class_name:
                owner = getattr(owner, class_name)
            raw = owner.__dict__[attr]
            hook = after.get((owner_path, attr))
            if kind == "count":
                new = self._count_wrapper(group, raw)
            elif kind == "classmethod":
                new = classmethod(self._span_wrapper(group, raw.__func__, hook))
            elif kind == "cached_property":
                new = functools.cached_property(self._span_wrapper(group, raw.func, hook))
                new.__set_name__(owner, attr)
            elif owner_path == "cli" and attr == "main":
                new = self._cli_main(raw)
            else:
                new = self._span_wrapper(group, raw, hook)
            self._replace(owner, attr, raw, new)
            if kind == "function":
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is raw and module is not owner:
                            self._replace(module, name, raw, new)

    def _replace(self, owner, attr: str, old, new) -> None:
        setattr(owner, attr, new)
        self._restore.append((owner, attr, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span group: duration minus direct children."""
        own = [0] * len(self.spans)
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            own[i] += end - start
            if parent >= 0:
                own[parent] -= end - start
        totals: Counter = Counter()
        for (gid, *_), ns in zip(self.spans, own):
            totals[self.groups[gid]] += ns
        return {group: ns / 1e9 for group, ns in totals.items()}

    def write_spans(self, path: str, certificates: list[tuple[int, str]]) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump(
                {
                    "fields": ["group", "start_ns", "end_ns", "parent", "certificate"],
                    "groups": self.groups,
                    "certificates": certificates,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
