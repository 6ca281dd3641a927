"""Pimsner-Popa bases: constructors, verification, and the structural
lemmas about them.

A family {b_i} in M is a (left) Pimsner-Popa basis for M over N when
sum_i b_i* e_N b_i = 1 on the GNS space; orthonormality here always means
the strict condition E_N(b_i b_j*) = delta_ij 1.  Verification runs on a
level-one tower, which carries the Jones projection and the expectation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from .errors import InternalError, PreconditionError
from .inclusion import Inclusion, diagonal_in_full, homogeneous_in_full, trivial_in_full
from .linalg import DEFAULT_TOL, Tolerance
from .reporting import Report
from .tower import Tower, _normaliser_votes


@dataclass
class PimsnerPopaBasis:
    """Basis candidate with verification flags (None until verified)."""

    inclusion: Inclusion
    elements: list[np.ndarray]
    orthonormal: bool | None = None
    unitary: bool | None = None
    in_normaliser: bool | None = None
    report: Report | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return len(self.elements)


def shift_unitary(n: int) -> np.ndarray:
    """The cyclic translation U|k> = |k+1 mod n>."""
    return np.roll(la.eye(n), 1, axis=0)


def clock_unitary(n: int) -> np.ndarray:
    """The modulation V|k> = e^{2 pi i k / n}|k>."""
    return np.diag(np.exp(2j * np.pi * np.arange(n) / n))


def _weyl_family(units: np.ndarray) -> list[np.ndarray]:
    """The clock-and-shift family sum_ab (V^l U^k)_ab f_ab of a system of
    matrix units f, given as a (d, d, n, n) array, ordered by (l, k), with
    V and U the clock and shift of M_d."""
    d = len(units)
    u, v = shift_unitary(d), clock_unitary(d)
    return [
        np.tensordot(np.linalg.matrix_power(v, l) @ np.linalg.matrix_power(u, k), units, 2)
        for l in range(d)
        for k in range(d)
    ]


def weyl_basis(n: int) -> PimsnerPopaBasis:
    """The n^2 clock-and-shift unitaries as a basis of M_n over the scalars.

    The family :func:`_weyl_family` of the matrix units of M_n, ordered
    lexicographically in (modulation power, translation power).
    """
    if n < 1:
        raise PreconditionError("n must be at least 1")
    units = la.eye(n * n).reshape(n, n, n, n)
    return PimsnerPopaBasis(trivial_in_full(n), _weyl_family(units))


def shift_basis(n: int) -> PimsnerPopaBasis:
    """Translation powers {U^k} as a basis of M_n over the diagonals."""
    u = shift_unitary(n)
    elements = [np.linalg.matrix_power(u, k) for k in range(n)]
    return PimsnerPopaBasis(diagonal_in_full(n), elements)


def character_basis(n: int) -> PimsnerPopaBasis:
    """Rescaled character projections as a basis of M_n over the diagonals.

    With the unnormalised character vector chi_j = sum_k e^{2 pi i jk/n}|k>,
    the elements are n^{-1/2} |chi_j><chi_j|; not unitary, but orthonormal.
    """
    elements = []
    for j in range(n):
        chi = np.exp(2j * np.pi * j * np.arange(n) / n)
        elements.append(np.outer(chi, chi.conj()) / np.sqrt(n))
    return PimsnerPopaBasis(diagonal_in_full(n), elements)


def commutant_factor_basis(inc: Inclusion) -> PimsnerPopaBasis:
    """Unitary normaliser basis for a factor N inside the full matrix algebra.

    The commutant N' is then itself a factor; its clock-and-shift family
    (:func:`_weyl_family` of the matrix units of N') commutes with N
    elementwise, so it normalises trivially, and expectation onto N sends
    products to their normalised traces, giving orthonormality.  For N =
    scalars in standard position this reproduces :func:`weyl_basis`.
    """
    if len(inc.small.blocks) != 1:
        raise PreconditionError("commutant factor basis requires N to be a factor")
    n = inc.big.ambient_dim
    if inc.big.dim != n * n:
        raise PreconditionError("commutant factor basis requires M to be the full matrix algebra")
    return PimsnerPopaBasis(inc, _weyl_family(inc.small.commutant.matrix_units[0]))


def homogeneous_block_basis(k: int, block: int) -> PimsnerPopaBasis:
    """Block-cyclic permutation unitaries for (+)^k M_block inside M_{k*block}.

    These sit in the unitary normaliser and realise the crossed-product
    picture of the cyclic action concretely, with d = k = index.
    """
    if k < 1 or block < 1:
        raise PreconditionError("k and block must be at least 1")
    inc = homogeneous_in_full(k, block)
    s = shift_unitary(k)
    elements = [la.kron(np.linalg.matrix_power(s, j), la.eye(block)) for j in range(k)]
    return PimsnerPopaBasis(inc, elements)


def verify_basis(
    tower: Tower, basis: PimsnerPopaBasis, tol: Tolerance | None = None
) -> Report:
    """Check completeness and the derived identities; sets the flags.

    Checks, as residuals: sum b* e b = 1 on the GNS space, the expansion
    x = sum E(x b*) b on a spanning set, sum b* b = index, orthonormality,
    unitarity and normaliser membership (flag checks), and for orthonormal
    normaliser families that {b* e b} is a PVM resolving the identity.
    """
    tol = tol or DEFAULT_TOL
    inc = basis.inclusion
    if tower.inclusion is not inc:
        raise PreconditionError("tower and basis must share an inclusion")
    rep = Report()
    pi, e1 = tower.gns.left, tower.jones1
    d = tower.gns.dim
    elements = np.stack(basis.elements)
    reps = pi(elements)
    compressed = la.dagger(reps) @ e1 @ reps
    rep.add(
        "completeness",
        la.frobenius_distance(sum(compressed), la.eye(d)),
        tol.bound(1.0) * max(1, basis.size),
    )
    # one stacked expectation for all of E(x b*), x over the basis of M, and
    # one for all of E(b c*), b and c over the family
    exp = inc.expectation
    big = inc.big.basis
    recon = np.sum(exp(big @ la.dagger(elements)[:, None]) @ elements[:, None], axis=0)
    expansion = float(np.max(la.frobenius_norms(recon - big)))
    rep.add("expansion_identity", expansion, tol.bound(1.0) * max(1, basis.size))
    idx = inc.index
    rep.add(
        "index_sum",
        la.frobenius_distance(
            sum(la.dagger(b) @ b for b in basis.elements),
            idx * la.eye(inc.big.ambient_dim),
        ),
        tol.bound(float(idx)) * max(1, basis.size),
    )
    gram = exp(elements[:, None] @ la.dagger(elements))
    gram[np.diag_indices(basis.size)] -= la.eye(inc.big.ambient_dim)
    ortho = float(np.max(la.frobenius_norms(gram)))
    basis.orthonormal = ortho <= tol.bound(1.0) * 10
    rep.add_flag("orthonormal", True, detail=f"residual {ortho:.2e}, flag {basis.orthonormal}")
    basis.unitary = all(la.is_unitary(b, tol) for b in basis.elements)
    rep.add_flag("unitary", True, detail=f"flag {basis.unitary}")
    basis.in_normaliser = basis.unitary and all(_normaliser_votes(tower, elements, tol))
    rep.add_flag("in_normaliser", True, detail=f"flag {basis.in_normaliser}")
    if basis.orthonormal and basis.in_normaliser:
        pvm = float(np.max(la.frobenius_norms(compressed @ compressed - compressed)))
        pvm = max(pvm, float(np.max(la.frobenius_norms(compressed - la.dagger(compressed)))))
        for i, p in enumerate(compressed[:-1]):
            pvm = max(pvm, float(np.max(la.frobenius_norms(p @ compressed[i + 1 :]))))
        rep.add("entangled_subspace_pvm", pvm, tol.bound(1.0) * 10)
    basis.report = rep
    return rep


def cardinality_test(
    tower: Tower, basis: PimsnerPopaBasis, tol: Tolerance | None = None
) -> Report:
    """Orthonormality holds exactly when d * dim N = dim M.

    ``verify_basis`` must have run (the completeness flag is required);
    a violated biconditional raises :class:`InternalError` since it is a
    theorem for genuine bases.
    """
    if basis.report is None or basis.orthonormal is None:
        raise PreconditionError("run verify_basis first")
    if not basis.report.checks[0].passed:
        raise PreconditionError("cardinality test applies to verified bases only")
    rep = Report()
    inc = basis.inclusion
    counting = basis.size * inc.small.dim == inc.big.dim
    rep.add_flag(
        "orthonormal_iff_dimension_count",
        counting == basis.orthonormal,
        detail=f"d={basis.size}, dim N={inc.small.dim}, dim M={inc.big.dim}",
    )
    if not rep.passed:
        raise InternalError("orthonormality biconditional violated for a verified basis")
    return rep


def kraus_decomposition(
    tower: Tower,
    x1: np.ndarray,
    basis: PimsnerPopaBasis,
    tol: Tolerance | None = None,
) -> tuple[list[np.ndarray], Report]:
    """Write a positive x1 in N' ∩ M1 as sum_i a_i* e_N a_i with a_i in M.

    The coefficients are a_i* = [M:N] E_M(sqrt(x1) b_i* e_N); the induced
    completely positive map sum a_i* (.) a_i on N' ∩ M is independent of
    the basis, which downstream checks rely on.
    """
    tol = tol or DEFAULT_TOL
    inc = basis.inclusion
    pi, e1 = tower.gns.left, tower.jones1
    if not la.is_psd(x1, tol):
        raise PreconditionError("x1 must be positive semidefinite")
    if not tower.level1.contains(x1, tol):
        raise PreconditionError("x1 must lie in the first tower algebra")
    for b in tower.n_rep.basis:
        if la.frobenius_distance(x1 @ b, b @ x1) > tol.bound(float(np.linalg.norm(x1))):
            raise PreconditionError("x1 must commute with N")
    root = la.matrix_sqrt(x1, tol)
    idx = inc.index
    exp_m = tower.expect_onto_m
    coeffs: list[np.ndarray] = []
    # a* in M acts on the GNS space as pi(a*), so pi(a*) Lambda(1) = Lambda(a*)
    unit = tower.gns.vector(inc.big.unit)
    for b in basis.elements:
        a_star_rep = idx * exp_m(root @ la.dagger(pi(b)) @ e1)
        coeffs.append(la.dagger(tower.gns.element(a_star_rep @ unit)))
    rep = Report()
    rebuilt = sum(la.dagger(pi(a)) @ e1 @ pi(a) for a in coeffs)
    rep.add(
        "positive_element_reconstruction",
        la.frobenius_distance(rebuilt, x1),
        tol.bound(float(np.linalg.norm(x1))) * max(1, basis.size) * 10,
    )
    rc = tower.rel_comm
    closure = 0.0
    for x in rc.basis:
        image = sum(la.dagger(a) @ x @ a for a in coeffs)
        closure = max(closure, rc.membership_residual(image))
    rep.add("cp_map_preserves_relative_commutant", closure, tol.bound(1.0) * 10)
    if basis.unitary and basis.in_normaliser:
        reverse = 0.0
        for x in rc.basis:
            image = sum(a @ x @ la.dagger(a) for a in coeffs)
            reverse = max(reverse, rc.membership_residual(image))
        rep.add("reverse_cp_map_preserves_relative_commutant", reverse, tol.bound(1.0) * 10)
    return coeffs, rep


def cp_action_matrix(
    tower: Tower, coeffs: list[np.ndarray], tol: Tolerance | None = None
) -> np.ndarray:
    """HS-coordinate action of sum a_i* (.) a_i on N' ∩ M."""
    rc = tower.rel_comm
    cols = []
    for x in rc.basis:
        image = sum(la.dagger(a) @ x @ a for a in coeffs)
        cols.append(rc.coords(image))
    return np.stack(cols, axis=1)


def homogeneity_test(
    inc: Inclusion, tol: Tolerance | None = None
) -> tuple[bool, PimsnerPopaBasis | None, str]:
    """Decide homogeneity of a multiplicity-free N ⊆ M_n.

    Returns (flag, witness basis, obstruction).  The witness is a
    normaliser unitary basis transported through the frame of N;
    for inhomogeneous N the obstruction names the block-size mismatch.
    """
    tol = tol or DEFAULT_TOL
    small = inc.small
    if any(m != 1 for _, m in small.blocks):
        raise PreconditionError("homogeneity test requires a multiplicity-free inclusion")
    if len(inc.big.blocks) != 1 or inc.big.dim != inc.big.ambient_dim ** 2:
        raise PreconditionError("homogeneity test requires M to be the full matrix algebra")
    sizes = [bd for bd, _ in small.blocks]
    if len(set(sizes)) != 1:
        return False, None, f"block sizes {sizes} differ, no normaliser basis exists"
    k, block = len(sizes), sizes[0]
    frame = np.hstack(small.frames)  # (+)^k M_block in standard position -> small
    std = homogeneous_block_basis(k, block)
    witness = PimsnerPopaBasis(
        inc, [frame @ b @ la.dagger(frame) for b in std.elements]
    )
    return True, witness, ""

