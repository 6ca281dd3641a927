"""Benchmark workloads: seeded inputs, certificates and their expected facts.

A *certificate* is one unit of user-visible work.  Each workload turns a
seed into a fixed cycle of certificates; running a certificate returns the
list of expected facts it missed (empty when correct).  Tolerances are the
ones pinned in ``tests/test_acceptance.py``.

This module imports ``opteleport`` only inside the builders, so the child
process controls when the import (part of set-up) happens.  Certificates
call the API through module attributes at run time, so a traced run sees
every call the workload makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
LADDER_EXPECTED = os.path.join(HERE, "ladder_expected.json")


@dataclass
class Certificate:
    name: str
    run: Callable[[], list[str]]


# -- seeded input generation (numpy only: the program sees only the result) --


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar orthogonal matrix; a real rotation keeps an algebra transpose-closed."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def layout_generators(layout: list[tuple[int, int]]) -> list[np.ndarray]:
    """A small generating set of the block-diagonal algebra with this layout.

    Per block M_{n_j} (x) 1_{m_j}: its central projection and the
    superdiagonal matrix units, so the program has to close the span.
    """
    n = sum(b * m for b, m in layout)
    gens = []
    offset = 0
    for b, m in layout:
        size = b * m
        z = np.zeros((n, n), dtype=complex)
        z[offset : offset + size, offset : offset + size] = np.eye(size)
        gens.append(z)
        for a in range(b - 1):
            unit = np.zeros((b, b), dtype=complex)
            unit[a, a + 1] = 1.0
            g = np.zeros((n, n), dtype=complex)
            g[offset : offset + size, offset : offset + size] = np.kron(unit, np.eye(m))
            gens.append(g)
        offset += size
    return gens


def encode_matrix(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def subsystem_generators(rotation: np.ndarray) -> list[np.ndarray]:
    """Generators of 1_2 (x) M_2 inside M_4, conjugated by ``rotation``."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    return [rotation @ np.kron(np.eye(2), g) @ rotation.conj().T for g in (x, z)]


# -- checks -------------------------------------------------------------------


def below(problems: list[str], label: str, value: float, bound: float) -> None:
    if not value < bound:
        problems.append(f"{label} = {value:.3e} not below {bound:.0e}")


def require(problems: list[str], label: str, ok: bool) -> None:
    if not ok:
        problems.append(label)


def named_check(report, name: str):
    return next(c for c in report.checks if c.name == name)


# -- ladder: in-process CLI over small JSON documents ---------------------------

# The ten documents of acceptance criterion 9 (tests/test_acceptance.py).
CRITERION_9 = [
    (["inclusion-info", "-"], {"ambient_dim": 2, "N_blocks": [[1, 2]], "trace": "markov"}),
    (["basis", "-", "--family", "weyl"], {"ambient_dim": 3, "N_blocks": [[1, 3]]}),
    (["teleport", "-", "--scheme", "standard"], {"ambient_dim": 2, "N_blocks": [[1, 2]]}),
    (["graph", "-", "--mode", "bounds"], {"ambient_dim": 2, "N_blocks": [[1, 2]]}),
    (["basis", "-", "--family", "shifts"], {"ambient_dim": 3, "N_blocks": [[1, 1]] * 3}),
    (["basis", "-", "--family", "characters"], {"ambient_dim": 2, "N_blocks": [[1, 1]] * 2}),
    (["teleport", "-", "--scheme", "unbiased"], {"ambient_dim": 2, "N_blocks": [[1, 1]] * 2}),
    (
        ["teleport", "-", "--scheme", "werner", "--extract"],
        {"ambient_dim": 2, "N_blocks": [[1, 1]] * 2},
    ),
    (["teleport", "-", "--scheme", "direct-sum"], {"ambient_dim": 3, "N_blocks": [[1, 1], [2, 1]]}),
    (["graph", "-", "--mode", "colour-basis"], {"ambient_dim": 2, "N_blocks": [[1, 1]] * 2}),
]
BOUNDS_D4 = (["graph", "-", "--mode", "bounds"], {"ambient_dim": 4, "N_blocks": [[1, 1]] * 4})
EXPLICIT_LAYOUTS = [[(2, 1), (1, 2)], [(2, 2), (1, 1)], [(3, 1), (1, 2), (2, 1)]]

# Derived fields that carry numerical noise rather than facts: the most
# starved outcome among several zero-probability ones, and extracted
# matrices that are only fixed up to gauge.
NOISE_FIELDS = {"witness", "extracted.u", "extracted.z"}


def ladder_jobs(seed: int) -> list[tuple[str, list[str], str]]:
    """(label, argv, stdin document) for one ladder cycle."""
    rng = np.random.default_rng(seed)
    jobs = []
    for i, (cmd, doc) in enumerate(CRITERION_9):
        jobs.append((f"criterion9.{i}.{cmd[0]}", cmd, doc))
    jobs.append(("bounds.D4", BOUNDS_D4[0], BOUNDS_D4[1]))
    for layout in EXPLICIT_LAYOUTS:
        n = sum(b * m for b, m in layout)
        u = random_unitary(n, rng)
        gens = [u @ g @ u.conj().T for g in layout_generators(layout)]
        doc = {
            "ambient_dim": n,
            "N_blocks": [list(b) for b in layout],
            "embedding": {"explicit": [encode_matrix(g) for g in gens]},
        }
        label = "explicit." + "_".join(f"{b}x{m}" for b, m in layout)
        jobs.append((label, ["inclusion-info", "-"], doc))
    return [(label, ["--seed", str(seed), *cmd], json.dumps(doc)) for label, cmd, doc in jobs]


def run_cli(cli, argv: list[str], stdin_text: str) -> tuple[int, str]:
    """Call ``cli.main`` in-process with the document on stdin; (code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        old_stdin = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            code = cli.main(argv)
        finally:
            sys.stdin = old_stdin
    return code, out.getvalue()


def compare_fields(expected, actual, path: str, problems: list[str]) -> None:
    """Derived-field equality: exact for ints, bools and strings, 1e-9 for floats."""
    if path in NOISE_FIELDS:
        return
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            problems.append(f"{path}: keys differ")
            return
        for key in expected:
            compare_fields(expected[key], actual[key], f"{path}.{key}" if path else key, problems)
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            problems.append(f"{path}: length differs")
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            compare_fields(e, a, f"{path}[{i}]", problems)
    elif isinstance(expected, float) and not isinstance(actual, bool):
        if not isinstance(actual, (int, float)) or not math.isclose(
            expected, actual, rel_tol=1e-9, abs_tol=1e-12
        ):
            problems.append(f"{path}: {actual!r} != {expected!r}")
    elif type(expected) is not type(actual) or expected != actual:
        problems.append(f"{path}: {actual!r} != {expected!r}")


def ladder_certificate(cli, label: str, argv: list[str], doc: str, expected) -> Certificate:
    def run() -> list[str]:
        code, text = run_cli(cli, argv, doc)
        if code != 0:
            return [f"exit code {code}"]
        cert = json.loads(text)
        problems: list[str] = []
        require(problems, "passed is not true", cert.get("passed") is True)
        compare_fields(expected, cert.get("certificate"), "", problems)
        return problems

    return Certificate(label, run)


def build_ladder(seed: int) -> list[Certificate]:
    from opteleport import cli

    with open(LADDER_EXPECTED) as fh:
        expected = json.load(fh)
    return [
        ladder_certificate(cli, label, argv, doc, expected[label])
        for label, argv, doc in ladder_jobs(seed)
    ]


# -- tower: basic construction, two levels and verify_tower ------------------


def build_tower(seed: int) -> list[Certificate]:
    from opteleport import algebra, inclusion, linalg, tower

    gens = subsystem_generators(random_unitary(4, np.random.default_rng(seed)))

    def subsystem_code():
        small = algebra.StarAlgebra.from_generators(gens, 4)
        return inclusion.markov_inclusion(small, algebra.StarAlgebra.full(4))

    makers = [
        ("C_in_M3", lambda: inclusion.trivial_in_full(3)),
        ("D4_in_M4", lambda: inclusion.diagonal_in_full(4)),
        ("homogeneous_2_2", lambda: inclusion.homogeneous_in_full(2, 2)),
        ("D3_in_M3", lambda: inclusion.diagonal_in_full(3)),
        ("subsystem_1xM2_in_M4", subsystem_code),
    ]

    def certificate(name, make) -> Certificate:
        def run() -> list[str]:
            linalg.set_default_seed(seed)
            t = tower.iterate(tower.basic_construction(make()))
            rep = tower.verify_tower(t)
            problems: list[str] = []
            require(problems, "verify_tower failed", rep.passed)
            below(problems, "max residual", rep.max_residual, 1e-9)
            require(problems, "index_matches_level1 failed", named_check(rep, "index_matches_level1").passed)
            return problems

        return Certificate(name, run)

    return [certificate(name, make) for name, make in makers]


# -- teleport: build, verify_scheme, classify (and extract for tight schemes) --


def build_teleport(seed: int) -> list[Certificate]:
    from opteleport import algebra, bases, inclusion, linalg, teleport, tower

    gens = subsystem_generators(random_orthogonal(4, np.random.default_rng(seed)))

    def round_trip(scheme, problems: list[str]) -> None:
        _, _, _, xrep = teleport.extract_tight_scheme(scheme)
        require(problems, "extraction report failed", xrep.passed)
        for check in xrep.checks:
            if check.name.startswith("round_trip"):
                below(problems, check.name, check.residual, 1e-8)

    def standard() -> list[str]:
        n = 3
        scheme = teleport.standard_scheme(n)
        rep = teleport.verify_scheme(scheme)
        flags = teleport.classify(scheme)
        problems: list[str] = []
        require(problems, "verify_scheme failed", rep.passed)
        below(problems, "teleportation_identity", named_check(rep, "teleportation_identity").residual, 1e-10)
        require(problems, "flags not tight, unbiased, faithful and minimal",
                flags.tight and flags.unbiased and flags.faithful and flags.minimal)
        require(problems, "unbiased value is not 1/n^2",
                flags.unbiased_value is not None and abs(flags.unbiased_value - 1.0 / (n * n)) < 1e-12)
        round_trip(scheme, problems)
        return problems

    def tight(make) -> Callable[[], list[str]]:
        def run() -> list[str]:
            scheme = make()
            rep = teleport.verify_scheme(scheme)
            flags = teleport.classify(scheme)
            problems: list[str] = []
            require(problems, "verify_scheme failed", rep.passed)
            below(problems, "teleportation_identity", named_check(rep, "teleportation_identity").residual, 1e-9)
            require(problems, "scheme not tight", flags.tight)
            round_trip(scheme, problems)
            return problems

        return run

    def subsystem_scheme():
        small = algebra.StarAlgebra.from_generators(gens, 4)
        inc = inclusion.markov_inclusion(small, algebra.StarAlgebra.full(4))
        return teleport.tight_scheme_from_basis(inc, bases.commutant_factor_basis(inc))

    def werner_scheme():
        inc = inclusion.diagonal_in_full(2)
        basis = bases.shift_basis(2)
        basis.inclusion = inc
        z = np.diag([1.2, 0.8]).astype(complex)
        return teleport.tight_scheme_from_basis(inc, basis, u=bases.shift_unitary(2), z=z)

    def direct_sum() -> list[str]:
        m = algebra.StarAlgebra.block_diagonal([(1, 1), (2, 1)])
        scheme = teleport.direct_sum_scheme(m)
        rep = teleport.verify_scheme(scheme)
        flags = teleport.classify(scheme)
        problems: list[str] = []
        require(problems, "verify_scheme failed", rep.passed)
        require(problems, "direct sum does not have 5 outcomes", scheme.outcomes == 5 == m.dim)
        require(problems, "direct sum not tight", flags.tight)
        require(problems, "direct sum is unbiased", not flags.unbiased)
        return problems

    def unbiased() -> list[str]:
        inc = inclusion.diagonal_in_full(3)
        t = tower.iterate(tower.basic_construction(inc))
        basis = bases.shift_basis(3)
        basis.inclusion = inc
        bases.verify_basis(t, basis)
        scheme = teleport.unbiased_scheme(t, basis)
        rep = teleport.verify_scheme(scheme)
        flags = teleport.classify(scheme)
        problems: list[str] = []
        require(problems, "verify_scheme failed", rep.passed)
        require(problems, "scheme not unbiased", flags.unbiased)
        require(problems, "unbiased value is not 1/3",
                flags.unbiased_value is not None and abs(flags.unbiased_value - 1.0 / 3) < 1e-12)
        return problems

    def seeded(run: Callable[[], list[str]]) -> Callable[[], list[str]]:
        def wrapped() -> list[str]:
            linalg.set_default_seed(seed)
            return run()

        return wrapped

    runs = [
        ("standard_3", standard),
        ("subsystem_tight", tight(subsystem_scheme)),
        ("direct_sum_1_2", direct_sum),
        ("unbiased_D3", unbiased),
        ("werner_D2", tight(werner_scheme)),
    ]
    return [Certificate(name, seeded(run)) for name, run in runs]


BUILDERS = {"ladder": build_ladder, "tower": build_tower, "teleport": build_teleport}
