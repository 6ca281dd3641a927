"""Command-line front door: parse inclusion descriptions, run the
constructions and verifications, emit JSON certificates.

Input documents describe an inclusion N ⊆ M_n(C):

    {
      "ambient_dim": 2,
      "N_blocks": [[1, 1], [1, 1]],
      "embedding": "block_diagonal",          # or {"explicit": [matrix, ...]}
      "trace": "markov"                        # or a weight list per M-block
    }

Matrices are nested row-major arrays of [re, im] pairs.  For the
direct-sum teleportation scheme the N_blocks describe the block layout of
the algebra being teleported (the inclusion is scalars ⊆ that algebra).

Certificates are emitted on stdout as JSON with sorted keys: byte-identical
reruns for identical (input, seed, version).  Exit codes: 0 all requested
checks passed, 1 a check failed, 2 input error.

``opteleport.cli.main(argv)`` may be called repeatedly in one process: it
builds its argument parser once, gives every call its own namespace, and
returns the exit code (a malformed command line still exits through argparse).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from . import linalg as la
from .algebra import StarAlgebra, Trace
from .bases import (
    PimsnerPopaBasis,
    _character_elements,
    _shift_elements,
    _weyl_elements,
    homogeneity_test,
    verify_basis,
)
from .errors import OpteleportError
from .inclusion import Inclusion, markov_trace
from .linalg import Tolerance
from .qgraph import _basis_certificate, _factor_certificate, chromatic_bounds, normaliser_basis_for
from .reporting import Report
from .teleport import (
    classify,
    direct_sum_scheme,
    extract_tight_scheme,
    standard_scheme,
    tight_scheme_from_basis,
    unbiased_scheme,
    verify_scheme,
)
from .tower import basic_construction


class InputError(Exception):
    """Bad input document or incompatible command options."""


def parse_matrix(data: object, n: int | None = None) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"matrix entries must be [re, im] pairs: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError(f"matrix must be square with [re, im] entries, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise InputError(f"matrix size {arr.shape[0]} does not match ambient {n}")
    return arr[..., 0] + 1j * arr[..., 1]


def encode_matrix(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def parse_blocks(doc: object) -> list[tuple[int, int]]:
    """The document's ``N_blocks`` as positive (dimension, multiplicity) pairs."""
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    try:
        blocks = [(int(b), int(m)) for b, m in doc["N_blocks"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"N_blocks must be a list of [dim, multiplicity] pairs: {exc}") from exc
    if not blocks:
        raise InputError("N_blocks is empty: give at least one [dim, multiplicity] pair")
    if any(b < 1 or m < 1 for b, m in blocks):
        raise InputError("dimensions and multiplicities must be positive")
    return blocks


def parse_weights(spec: object, what: str) -> list[float]:
    try:
        return [float(w) for w in spec]
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be a list of numbers: {exc}") from exc


def parse_inclusion_spec(doc: dict, tol: Tolerance) -> tuple[Inclusion, dict]:
    """Build the inclusion N ⊆ M_n described by the input document at ``tol``:
    structure discovery, the Markov trace, the trace gates and every tower
    built on the inclusion use it."""
    blocks = parse_blocks(doc)
    try:
        n = int(doc["ambient_dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"ambient_dim is required: {exc}") from exc
    if n < 1:
        raise InputError("dimensions and multiplicities must be positive")
    embedding = doc.get("embedding", "block_diagonal")
    if embedding == "block_diagonal":
        if sum(b * m for b, m in blocks) != n:
            raise InputError("block layout does not fill the ambient (unital inclusions only)")
        small = StarAlgebra.block_diagonal(blocks)
    elif isinstance(embedding, dict) and "explicit" in embedding:
        if not isinstance(embedding["explicit"], list):
            raise InputError("embedding 'explicit' must be a list of matrices")
        gens = [parse_matrix(g, n) for g in embedding["explicit"]]
        small = StarAlgebra.from_generators(gens, n, tol)
        if sorted(small.blocks) != sorted(blocks):
            raise InputError(
                f"generated algebra has blocks {small.blocks}, document says {blocks}"
            )
    else:
        raise InputError("embedding must be 'block_diagonal' or {'explicit': [...]}")
    big = StarAlgebra.full(n)
    trace_spec = doc.get("trace", "markov")
    if trace_spec == "markov":
        trace = markov_trace(small, big)
    else:
        trace = Trace(big, parse_weights(trace_spec, "trace"))
        if not (trace.is_state(tol) and trace.is_faithful(tol)):
            raise InputError("explicit trace weights must define a faithful state")
    echo = {
        "ambient_dim": n,
        "N_blocks": [list(b) for b in blocks],
        "embedding": "block_diagonal" if embedding == "block_diagonal" else "explicit",
        "trace": "markov" if trace_spec == "markov" else [float(w) for w in trace_spec],
    }
    return Inclusion(small, big, trace, tol), echo


def load_document(path: str | None) -> dict:
    try:
        if path in (None, "-"):
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    except OSError as exc:
        raise InputError(str(exc)) from exc


def certificate(args, command: str, echo: dict, report: Report, derived: dict) -> dict:
    return {
        "certificate": derived,
        "checks": [c.as_dict() for c in report.checks],
        "command": command,
        "input": echo,
        "passed": report.passed,
        "seed": args.seed,
        "tolerance": {"abs": args.tol.abs, "rel": args.tol.rel},
        "tool": {"name": "opteleport", "version": __version__},
    }


# -- commands -----------------------------------------------------------------


def cmd_inclusion_info(args) -> dict:
    inc, echo = parse_inclusion_spec(load_document(args.input), args.tol)
    rep = Report()
    connected = inc.connected
    rep.add_flag("connected", True, detail=f"flag {connected}")
    # a document that asks for the Markov trace has it built by the parser
    markov = inc.trace if echo["trace"] == "markov" else markov_trace(inc.small, inc.big)
    derived = {
        "N_blocks": [list(b) for b in inc.small.blocks],
        "M_blocks": [list(b) for b in inc.big.blocks],
        "connected": connected,
        "dim_N": inc.small.dim,
        "dim_M": inc.big.dim,
        "inclusion_matrix": inc.matrix.tolist(),
        "markov_weights": [float(w) for w in markov.weights],
        "index": float(inc.index) if connected else None,
    }
    xs = inc.big.random_hermitian(la.rng_from(args.seed), 8)
    ex = inc.expectation(xs)
    worst_idem = float(la.frobenius_norms(inc.expectation(ex) - ex).max())
    worst_trace = float(np.abs(inc.trace(ex) - inc.trace(xs)).max())
    rep.add("expectation_idempotent", worst_idem, args.tol.bound(1.0) * 10)
    rep.add("expectation_trace_preserving", worst_trace, args.tol.bound(1.0) * 10)
    return certificate(args, "inclusion-info", echo, rep, derived)


def _diagonal(small: StarAlgebra) -> bool:
    return small.blocks == [(1, 1)] * small.ambient_dim


# the families of M_n built on the parsed inclusion: their elements, and the N they need
_FAMILIES = {
    "weyl": (_weyl_elements, lambda small: small.dim == 1, "weyl family needs N = scalars"),
    "shifts": (_shift_elements, _diagonal, "shift family needs N = diagonals"),
    "characters": (_character_elements, _diagonal, "character family needs N = diagonals"),
}


def _basis_for_family(inc: Inclusion, family: str) -> PimsnerPopaBasis:
    """The basis ``family`` built on ``inc`` itself, so no other inclusion is made."""
    small = inc.small
    if family in _FAMILIES:
        elements, needs, why = _FAMILIES[family]
        if not needs(small):
            raise InputError(why)
        return PimsnerPopaBasis(inc, elements(inc.big.ambient_dim))
    if family == "homogeneous":
        if any(m != 1 for _, m in small.blocks):
            raise InputError("homogeneous family needs a multiplicity-free N")
        flag, witness, why = homogeneity_test(inc)
        if not flag or witness is None:
            raise InputError(f"N is not homogeneous: {why}")
        return witness
    raise InputError(f"unknown family {family!r}")


def cmd_basis(args) -> dict:
    doc = load_document(args.input)
    inc, echo = parse_inclusion_spec(doc, args.tol)
    if args.elements:
        mats = [parse_matrix(m, inc.big.ambient_dim) for m in load_document(args.elements)]
        basis = PimsnerPopaBasis(inc, mats)
        source = "explicit"
    else:
        basis = _basis_for_family(inc, args.family)
        source = args.family
    rep = verify_basis(basic_construction(inc), basis)
    derived = {
        "source": source,
        "size": basis.size,
        "orthonormal": basis.orthonormal,
        "unitary": basis.unitary,
        "in_normaliser": basis.in_normaliser,
        "index": float(inc.index),
    }
    return certificate(args, "basis", echo, rep, derived)


def cmd_teleport(args) -> dict:
    if args.extract and args.scheme not in ("standard", "werner"):
        raise InputError("--extract applies to standard and werner schemes")
    doc = load_document(args.input)
    params = load_document(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise InputError("--params must be a JSON object")
    derived: dict = {"scheme": args.scheme}
    if args.scheme == "direct-sum":
        # N_blocks describe the algebra being teleported (scalars ⊆ M)
        blocks = parse_blocks(doc)
        m_alg = StarAlgebra.block_diagonal(blocks)
        echo = {"M_blocks": [list(b) for b in blocks]}
        scheme = direct_sum_scheme(m_alg, args.tol)
    else:
        inc, echo = parse_inclusion_spec(doc, args.tol)
        if args.scheme == "standard":
            if inc.small.dim != 1:
                raise InputError("standard scheme needs N = scalars")
            basis = _basis_for_family(inc, "weyl")
            scheme = standard_scheme(inc.big.ambient_dim, basis)
        elif args.scheme == "unbiased":
            # unbiased_scheme verifies the basis on the tower it is given
            basis = _infer_normaliser_basis(inc)
            scheme = unbiased_scheme(basic_construction(inc), basis)
        elif args.scheme == "werner":
            # tight_scheme_from_basis verifies the basis on the tower it keeps
            basis = _infer_normaliser_basis(inc)
            u = parse_matrix(params["u"], inc.big.ambient_dim) if params.get("u") else None
            z = None
            if params.get("z_weights"):
                weights = parse_weights(params["z_weights"], "z_weights")
                if len(weights) != len(inc.small.central_projections):
                    raise InputError("one z weight per central projection of N required")
                z = sum(w * p for w, p in zip(weights, inc.small.central_projections))
            scheme = tight_scheme_from_basis(inc, basis, u=u, z=z)
        else:
            raise InputError(f"unknown scheme {args.scheme!r}")
    rep = verify_scheme(scheme, strict=False)
    flags = classify(scheme)
    rep.merge(flags.report, prefix="classify.")
    derived.update(
        {
            "outcomes": scheme.outcomes,
            "tight": flags.tight,
            "unbiased": flags.unbiased,
            "unbiased_value": flags.unbiased_value,
            "faithful": flags.faithful,
            "minimal": flags.minimal,
            "witness": flags.witness,
        }
    )
    if args.extract:
        basis_out, u_out, z_out, xrep = extract_tight_scheme(scheme)
        rep.merge(xrep, prefix="extract.")
        derived["extracted"] = {
            "basis_size": basis_out.size,
            "u": encode_matrix(u_out),
            "z": encode_matrix(z_out),
        }
    return certificate(args, "teleport", echo, rep, derived)


def _infer_normaliser_basis(inc: Inclusion) -> PimsnerPopaBasis:
    basis = normaliser_basis_for(inc)
    if basis is None:
        raise InputError("no normaliser basis constructor applies to this inclusion")
    return basis


def cmd_graph(args) -> dict:
    inc, echo = parse_inclusion_spec(load_document(args.input), args.tol)
    rep = Report()
    derived: dict = {"mode": args.mode}
    if args.mode in ("colour-factor", "colour-basis"):
        if args.mode == "colour-factor":
            col, colour_rep, bound_rep = _factor_certificate(inc)
        else:
            basis = _infer_normaliser_basis(inc)
            col, colour_rep, bound_rep = _basis_certificate(basic_construction(inc), basis)
        rep.merge(colour_rep, prefix="colouring.")
        rep.merge(bound_rep, prefix="certificate.")
        derived.update({"colours": col.colours, "aux_dim": col.aux_dim})
    elif args.mode == "bounds":
        bounds = chromatic_bounds(inc)
        derived.update(
            {
                "lower": bounds.lower,
                "upper": bounds.upper,
                "tight": bounds.tight,
                "warnings": bounds.warnings,
                "certificates": [
                    {k: v for k, v in c.items() if not k.endswith("_report")} for c in bounds.certificates
                ],
            }
        )
        for c in bounds.certificates:
            rep.merge(c["colouring_report"], prefix=f"{c['kind']}.colouring.")
            rep.merge(c["certificate_report"], prefix=f"{c['kind']}.certificate.")
        rep.add_flag("bounds_available", bounds.upper is not None, detail=str(bounds.warnings))
    else:
        raise InputError(f"unknown mode {args.mode!r}")
    return certificate(args, "graph", echo, rep, derived)


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opteleport",
        description="teleportation schemes, towers and quantum-graph certificates "
        "for finite-dimensional inclusions",
    )
    parser.add_argument("--tol", type=float, default=1e-9, help="absolute/relative tolerance")
    parser.add_argument("--seed", type=int, default=42, help="seed of inclusion-info's sampled checks")
    parser.add_argument("--json-indent", type=int, default=2, help="certificate indentation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("inclusion-info", help="blocks, inclusion matrix, Markov trace, index")
    p_info.add_argument("input", nargs="?", help="inclusion JSON (default stdin)")
    p_info.set_defaults(func=cmd_inclusion_info)

    p_basis = sub.add_parser("basis", help="construct or verify a Pimsner-Popa basis")
    p_basis.add_argument("input", nargs="?", help="inclusion JSON (default stdin)")
    p_basis.add_argument(
        "--family",
        choices=["weyl", "shifts", "characters", "homogeneous"],
        default="weyl",
    )
    p_basis.add_argument("--elements", help="JSON file with explicit basis matrices")
    p_basis.set_defaults(func=cmd_basis)

    p_tel = sub.add_parser("teleport", help="build, verify and classify a teleportation scheme")
    p_tel.add_argument("input", nargs="?", help="inclusion JSON (default stdin)")
    p_tel.add_argument(
        "--scheme", choices=["standard", "direct-sum", "unbiased", "werner"], default="standard"
    )
    p_tel.add_argument("--params", help="JSON file with scheme parameters (u, z_weights)")
    p_tel.add_argument("--extract", action="store_true", help="run the rigidity round-trip")
    p_tel.set_defaults(func=cmd_teleport)

    p_graph = sub.add_parser("graph", help="quantum-graph colourings and chromatic bounds")
    p_graph.add_argument("input", nargs="?", help="inclusion JSON (default stdin)")
    p_graph.add_argument(
        "--mode", choices=["colour-factor", "colour-basis", "bounds"], default="bounds"
    )
    p_graph.set_defaults(func=cmd_graph)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses: ``parse_args`` leaves it unchanged
    and fills a new namespace on every call."""
    return build_parser()


def _parse_tolerance(value: float) -> Tolerance:
    """The ``--tol`` value as a :class:`Tolerance`, abs = rel = value."""
    try:
        return Tolerance(abs=value, rel=value)
    except ValueError as exc:
        raise InputError(f"--tol {value}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.tol = _parse_tolerance(args.tol)
        cert = args.func(args)
    except (InputError, OpteleportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    indent = args.json_indent if args.json_indent >= 0 else None
    print(json.dumps(cert, sort_keys=True, indent=indent))
    if not cert["passed"]:
        print("one or more checks failed", file=sys.stderr)
        return 1
    print(f"{cert['command']}: all checks passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
