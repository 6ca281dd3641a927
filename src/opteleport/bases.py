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
from .algebra import _expand, _frame_distance, _upper_pairs
from .errors import InternalError, PreconditionError
from .inclusion import Inclusion, diagonal_in_full, homogeneous_in_full, trivial_in_full
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
    _verified_on: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
    return PimsnerPopaBasis(homogeneous_in_full(k, block), _block_cyclic_unitaries(k, block))


def _block_cyclic_unitaries(k: int, block: int) -> list[np.ndarray]:
    """s^j (x) 1_block for j < k, s the cyclic shift of C^k: the elements of
    :func:`homogeneous_block_basis`, built without its inclusion."""
    s = shift_unitary(k)
    return [la.kron(np.linalg.matrix_power(s, j), la.eye(block)) for j in range(k)]


def verify_basis(tower: Tower, basis: PimsnerPopaBasis) -> Report:
    """Check completeness and the derived identities at ``tower.tol``; sets the flags.

    Checks, as residuals: sum b* e b = 1 on the GNS space, the expansion
    x = sum E(x b*) b on a spanning set, sum b* b = index, orthonormality,
    unitarity and normaliser membership (flag checks), and for orthonormal
    normaliser families that {b* e b} is a PVM resolving the identity.

    With e = P P*, each b* e b is V_b V_b* for V_b = pi(b)* P, which
    :meth:`GnsSpace.act` gives without forming pi(b): sum b* e b is W W*
    for the V_b side by side in W, and the PVM is read off the Gram blocks
    V_b* V_c (:func:`_pvm_residual`).
    """
    tol = tower.tol
    inc = basis.inclusion
    if tower.inclusion is not inc:
        raise PreconditionError("tower and basis must share an inclusion")
    rep = Report()
    d = tower.gns.dim
    elements = np.stack(basis.elements)
    ranged = tower.gns.act(la.dagger(elements), tower.levels[1].jones_range)  # V_b = pi(b)* P
    side = ranged.transpose(1, 0, 2).reshape(d, -1)
    rep.add(
        "completeness",
        la.frobenius_distance(side @ la.dagger(side), la.eye(d)),
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
    basis.unitary = bool(np.all(la.is_unitary(elements, tol)))
    rep.add_flag("unitary", True, detail=f"flag {basis.unitary}")
    basis.in_normaliser = basis.unitary and all(_normaliser_votes(tower, elements, tol))
    rep.add_flag("in_normaliser", True, detail=f"flag {basis.in_normaliser}")
    if basis.orthonormal and basis.in_normaliser:
        rep.add("entangled_subspace_pvm", _pvm_residual(ranged), tol.bound(1.0) * 10)
    basis.report = rep
    basis._verified_on = _checked(basis)
    return rep


def _pvm_residual(ranged: np.ndarray) -> float:
    """The largest of ||Q_b^2 - Q_b||_F and of ||Q_b Q_c||_F, b before c, for
    Q_b = V_b V_b* and the stack ``ranged`` of the (dim, r) matrices V_b.

    Each Q_b is Hermitian by construction, and both norms are exact on the
    Gram blocks G_bc = V_b* V_c: ||Q_b^2 - Q_b||_F = ||G_bb^2 - G_bb||_F, as
    G_bb - 1 commutes with G_bb, and ||Q_b Q_c||_F^2 = tr(G_bc* G_bb G_bc G_cc).
    """
    k, dim, r = ranged.shape
    rows = ranged.transpose(0, 2, 1).reshape(k * r, dim)
    gram = (np.conj(rows) @ rows.T).reshape(k, r, k, r).transpose(0, 2, 1, 3)  # [b, c] is G_bc
    own = gram[np.arange(k), np.arange(k)]
    worst = float(np.max(la.frobenius_norms(own @ own - own)))
    if k > 1:
        b, c = _upper_pairs(k)
        pairs = np.sum(np.conj(gram[b, c]) * (own[b] @ gram[b, c] @ own[c]), axis=(-2, -1)).real
        worst = max(worst, float(np.sqrt(max(0.0, np.max(pairs)))))
    return worst


def _checked(basis: PimsnerPopaBasis) -> tuple:
    """What a report vouches for: itself, the inclusion, the elements, the flags."""
    elements = np.stack(basis.elements)
    flags = (basis.orthonormal, basis.unitary, basis.in_normaliser)
    return basis.report, basis.inclusion, elements.shape, elements.tobytes(), flags


def _require_verified(tower: Tower, basis: PimsnerPopaBasis) -> None:
    """Refuse a basis of another inclusion than ``tower``'s; verify it there
    unless its report was made on the inclusion, elements and flags it has now."""
    if basis.inclusion is not tower.inclusion:
        raise PreconditionError("tower and basis must share an inclusion")
    if basis._verified_on != _checked(basis):
        verify_basis(tower, basis)


def _require_normaliser_basis(tower: Tower, basis: PimsnerPopaBasis) -> None:
    """The one gate for consumers of a unitary orthonormal normaliser basis: it
    belongs to ``tower``'s inclusion, is verified there once, and its report
    (completeness included) passes with all three flags set."""
    _require_verified(tower, basis)
    rep = basis.report
    if rep is None or not (rep.passed and basis.orthonormal and basis.unitary and basis.in_normaliser):
        raise PreconditionError("need a complete unitary orthonormal normaliser basis")


def cardinality_test(tower: Tower, basis: PimsnerPopaBasis) -> Report:
    """Orthonormality holds exactly when d * dim N = dim M.

    The basis must belong to ``tower``'s inclusion and is verified there
    unless its report is current (:func:`_require_verified`); its
    completeness check must pass.  A violated biconditional raises
    :class:`InternalError` since it is a theorem for genuine bases.
    """
    _require_verified(tower, basis)
    if not next(c.passed for c in basis.report.checks if c.name == "completeness"):
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
    tower: Tower, x1: np.ndarray, basis: PimsnerPopaBasis
) -> tuple[list[np.ndarray], Report]:
    """Write a positive x1 in N' ∩ M1 as sum_i a_i* e_N a_i with a_i in M,
    at ``tower.tol``.

    The coefficients are a_i* = [M:N] E_M(sqrt(x1) b_i* e_N); the induced
    completely positive map sum a_i* (.) a_i on N' ∩ M is independent of
    the basis, which downstream checks rely on.  The basis must belong to
    ``tower``'s inclusion; it is verified there unless it has been.
    """
    _require_verified(tower, basis)
    tol = tower.tol
    inc = basis.inclusion
    pi, e1 = tower.gns.left, tower.jones1
    if not la.is_psd(x1, tol):
        raise PreconditionError("x1 must be positive semidefinite")
    if not tower.level1.contains(x1, tol):
        raise PreconditionError("x1 must lie in the first tower algebra")
    if _frame_distance(tower.n_rep, x1, commutant=True) > tol.bound(float(np.linalg.norm(x1))):
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
    images = sum(la.dagger(a) @ rc.basis @ a for a in coeffs)
    closure = float(np.max(rc.membership_residual(images)))
    rep.add("cp_map_preserves_relative_commutant", closure, tol.bound(1.0) * 10)
    if basis.unitary and basis.in_normaliser:
        images = sum(a @ rc.basis @ la.dagger(a) for a in coeffs)
        reverse = float(np.max(rc.membership_residual(images)))
        rep.add("reverse_cp_map_preserves_relative_commutant", reverse, tol.bound(1.0) * 10)
    return coeffs, rep


def cp_action_matrix(tower: Tower, coeffs: list[np.ndarray]) -> np.ndarray:
    """HS-coordinate action of sum a_i* (.) a_i on N' ∩ M."""
    rc = tower.rel_comm
    return rc.coords(sum(la.dagger(a) @ rc.basis @ a for a in coeffs)).T


def homogeneity_test(inc: Inclusion) -> tuple[bool, PimsnerPopaBasis | None, str]:
    """Decide homogeneity of a multiplicity-free N ⊆ M_n.

    Returns (flag, witness basis, obstruction).  The witness is a
    normaliser unitary basis transported through the frame of N;
    for inhomogeneous N the obstruction names the block-size mismatch.
    """
    small = inc.small
    if any(m != 1 for _, m in small.blocks):
        raise PreconditionError("homogeneity test requires a multiplicity-free inclusion")
    if len(inc.big.blocks) != 1 or inc.big.dim != inc.big.ambient_dim ** 2:
        raise PreconditionError("homogeneity test requires M to be the full matrix algebra")
    sizes = [bd for bd, _ in small.blocks]
    if len(set(sizes)) != 1:
        return False, None, f"block sizes {sizes} differ, no normaliser basis exists"
    k, block = len(sizes), sizes[0]
    # (+)^k M_block in standard position -> small, through the frame of small
    unitaries = [_expand(small, None, b, np.zeros(b.shape, complex)) for b in _block_cyclic_unitaries(k, block)]
    return True, PimsnerPopaBasis(inc, unitaries), ""

