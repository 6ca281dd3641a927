"""The layout of every teleport and basis report, pinned per constructor,
of the tower reports, pinned per tower, and of the chromatic-bound
certificates, pinned per inclusion.

A layout lists, in order, each check a report adds: its name with the
threshold it was compared against, or, for a flag, whether it was raised.
Residuals are left out, so rewriting how a check is computed keeps its
layout; ``report_layouts.json`` holds the recorded layouts.  Regenerate it
with ``PYTHONPATH=src python tests/test_report_layouts.py > tests/report_layouts.json``
only when a change is meant to alter what the reports contain.
"""

import contextlib
import json
import os
import sys

import numpy as np
import pytest

from opteleport import linalg as la
from opteleport.algebra import StarAlgebra
from opteleport.bases import (
    commutant_factor_basis,
    shift_basis,
    shift_unitary,
    verify_basis,
    weyl_basis,
)
from opteleport.inclusion import (
    diagonal_in_full,
    homogeneous_in_full,
    markov_inclusion,
    trivial_in_full,
)
from opteleport.qgraph import chromatic_bounds
from opteleport.reporting import Report
from opteleport.teleport import (
    classify,
    direct_sum_scheme,
    extract_tight_scheme,
    standard_scheme,
    tight_scheme_from_basis,
    unbiased_scheme,
    verify_scheme,
)
from opteleport.tower import basic_construction, iterate, verify_epr, verify_tower

from conftest import TOWER_KEYS, make_inclusion

LAYOUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "report_layouts.json")
SEED = 7


def _standard(n):
    basis = weyl_basis(n)
    return standard_scheme(n, basis), basis


def _werner():
    inc = diagonal_in_full(2)
    basis = shift_basis(2)
    basis.inclusion = inc
    z = np.diag([1.2, 0.8]).astype(complex)
    return tight_scheme_from_basis(inc, basis, u=shift_unitary(2), z=z), basis


def _subsystem():
    nil = np.array([[0, 1], [0, 0]], dtype=complex)
    small = StarAlgebra.from_generators([np.kron(np.eye(2, dtype=complex), nil)], 4)
    inc = markov_inclusion(small, StarAlgebra.full(4))
    basis = commutant_factor_basis(inc)
    return tight_scheme_from_basis(inc, basis), basis


def _direct_sum():
    return direct_sum_scheme(StarAlgebra.block_diagonal([(1, 1), (2, 1)])), None


def _unbiased_d3():
    inc = diagonal_in_full(3)
    t = iterate(basic_construction(inc))
    basis = shift_basis(3)
    basis.inclusion = inc
    verify_basis(t, basis)
    return unbiased_scheme(t, basis), basis


CONSTRUCTORS = {
    "standard_2": lambda: _standard(2),
    "standard_3": lambda: _standard(3),
    "werner_D2": _werner,
    "subsystem": _subsystem,
    "direct_sum_1_2": _direct_sum,
    "unbiased_D3": _unbiased_d3,
}


TOWERS = [*TOWER_KEYS, "diagonal_in_full_4", "golden"]


def _tensor_factor():
    # N = 1 (x) M_2 inside M_4, the factor case of the chromatic bounds
    nil = np.array([[0, 1], [0, 0]], dtype=complex)
    small = StarAlgebra.from_generators([np.kron(np.eye(2, dtype=complex), nil)], 4)
    return markov_inclusion(small, StarAlgebra.full(4))


CHROMATIC = {
    "trivial_in_full_2": lambda: trivial_in_full(2),
    "diagonal_in_full_2": lambda: diagonal_in_full(2),
    "diagonal_in_full_4": lambda: diagonal_in_full(4),
    "homogeneous_2_2": lambda: homogeneous_in_full(2, 2),
    "tensor_factor": _tensor_factor,
}


@contextlib.contextmanager
def _recording():
    """Record the threshold of every check that Report.add makes, and yield
    the function giving the layout of a report built meanwhile."""
    thresholds, keep = {}, []  # threshold by id of the check, the checks kept alive
    add, merge = Report.add, Report.merge

    def recording_add(self, check, residual, threshold, detail=None):
        out = add(self, check, residual, threshold, detail)
        thresholds[id(out)] = float(threshold)
        keep.append(out)
        return out

    def recording_merge(self, other, prefix=""):
        start = len(self.checks)
        merge(self, other, prefix)
        for new, old in zip(self.checks[start:], other.checks):
            if id(old) in thresholds:
                thresholds[id(new)] = thresholds[id(old)]
                keep.append(new)

    def layout(report):
        return [
            [c.name, "threshold", thresholds[id(c)]] if id(c) in thresholds else [c.name, "flag", c.passed]
            for c in report.checks
        ]

    Report.add, Report.merge = recording_add, recording_merge
    try:
        yield layout
    finally:
        Report.add, Report.merge = add, merge


def layouts(name):
    """The layouts of the verify_scheme, classify, extract_tight_scheme (for
    tight, minimal, faithful schemes) and verify_basis reports of one
    constructor, with its classification and basis flags."""
    la.set_default_seed(SEED)
    try:
        scheme, basis = CONSTRUCTORS[name]()
        with _recording() as layout:
            out = {"verify_scheme": layout(verify_scheme(scheme))}
            f = classify(scheme)
            out["classify"] = layout(f.report)
            out["flags"] = [f.tight, f.unbiased, f.unbiased_value, f.faithful, f.minimal]
            if scheme.inclusion is not None and f.tight and f.minimal and f.faithful:
                out["extract_tight_scheme"] = layout(extract_tight_scheme(scheme)[3])
            if basis is not None:
                out["verify_basis"] = layout(verify_basis(basic_construction(basis.inclusion), basis))
                out["basis_flags"] = [basis.orthonormal, basis.unitary, basis.in_normaliser]
    finally:
        la.set_default_seed(la.DEFAULT_SEED)
    return out


def tower_layouts(key):
    """The layouts of the verify_tower and verify_epr reports of a fresh
    two-level tower over the inclusion ``key``."""
    la.set_default_seed(SEED)
    try:
        t = iterate(basic_construction(make_inclusion(key)))
        with _recording() as layout:
            out = {"verify_tower": layout(verify_tower(t)), "verify_epr": layout(verify_epr(t))}
    finally:
        la.set_default_seed(la.DEFAULT_SEED)
    return out


def chromatic_layouts(key):
    """The bounds and warnings of :func:`chromatic_bounds` on the inclusion
    ``key``, and per certificate its fields and the layouts of its colouring
    and certificate reports."""
    la.set_default_seed(SEED)
    try:
        with _recording() as layout:
            bounds = chromatic_bounds(CHROMATIC[key]())
            out = {"bounds": [bounds.lower, bounds.upper, bounds.warnings]}
            for i, cert in enumerate(bounds.certificates):
                fields = ("graph", "kind", "ambient_dim", "aux_dim", "colours", "lower_bound")
                out[f"certificate_{i}"] = [cert[f] for f in fields]
                for report in ("colouring_report", "certificate_report"):
                    out[f"certificate_{i}.{report}"] = layout(cert[report])
    finally:
        la.set_default_seed(la.DEFAULT_SEED)
    return out


def _all_layouts():
    out = {name: layouts(name) for name in CONSTRUCTORS}
    out.update({f"tower_{key}": tower_layouts(key) for key in TOWERS})
    out.update({f"chromatic_{key}": chromatic_layouts(key) for key in CHROMATIC})
    return dict(sorted(out.items()))


def _same(got, want):
    if isinstance(want, float) and isinstance(got, float):
        return got == pytest.approx(want, rel=1e-12, abs=0.0)
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(_same(g, w) for g, w in zip(got, want))
    return got == want


def _check_pinned(name, got):
    with open(LAYOUTS) as fh:
        want = json.load(fh)[name]
    got = json.loads(json.dumps(got))
    assert sorted(got) == sorted(want)
    for stage in want:
        assert _same(got[stage], want[stage]), stage


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_report_layouts_are_pinned(name):
    _check_pinned(name, layouts(name))


@pytest.mark.parametrize("key", TOWERS)
def test_tower_report_layouts_are_pinned(key):
    _check_pinned(f"tower_{key}", tower_layouts(key))


@pytest.mark.parametrize("key", sorted(CHROMATIC))
def test_chromatic_report_layouts_are_pinned(key):
    _check_pinned(f"chromatic_{key}", chromatic_layouts(key))


if __name__ == "__main__":
    json.dump(_all_layouts(), sys.stdout, indent=1)
    sys.stdout.write("\n")
