"""Quantum graphs from inclusions, their colourings, and chromatic-number
certificates.

A quantum graph here is a triple (S, M, B(H)): a weak*-closed operator
system S that is an M'-bimodule, with M a von Neumann algebra on H.  Every
S built here is a *-algebra, so a graph is a pair of algebras and the
bimodule property is the containment M' ⊆ S.  An (L, c) colouring is a PVM
{P_a} in M (x) L annihilating the traceless part S ∩ (M')^perp; L is always
represented concretely as a matrix algebra M_l with its normalised trace,
l = 1 meaning a local colouring.  A graph holds the tolerance of the
inclusion or tower it comes from, and its checks are decided at it.

Both certificate families reduce a c-colouring to a family of projections
R_a summing to [M:N] 1, which forces c >= [M:N]; the matching colouring
constructions then pin the chromatic numbers to the index exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

import numpy as np

from . import linalg as la
from .algebra import StarAlgebra, _dot, _generators, _swap_legs
from .bases import (
    PimsnerPopaBasis,
    _require_normaliser_basis,
    commutant_factor_basis,
    homogeneity_test,
    weyl_basis,
)
from .errors import CertificateError, ColouringError, InternalError, PreconditionError
from .inclusion import Inclusion
from .linalg import DEFAULT_TOL, Tolerance
from .reporting import Report
from .tower import Tower, basic_construction


@dataclass
class QuantumGraph:
    """A quantum graph (S, M) as a pair of algebras on one Hilbert space, with
    the tolerance of the inclusion or tower it comes from for its verdicts."""

    system: StarAlgebra  # the operator system S, here a *-algebra
    algebra: StarAlgebra  # the graph's von Neumann algebra M
    label: str = ""
    tol: Tolerance = DEFAULT_TOL

    @property
    def ambient_dim(self) -> int:
        return self.algebra.ambient_dim

    def verify(self) -> Report:
        """``commutant_bimodule`` at ``tol``: the largest distance to S of the column
        units of M' (:func:`_generators`), which generate M'; zero exactly when M' ⊆ S."""
        if self.system.ambient_dim != self.ambient_dim:
            raise PreconditionError("system and algebra must share an ambient")
        rep = Report()
        residual = self.system.membership_residual(_generators(self.algebra.commutant))
        rep.add("commutant_bimodule", float(np.max(residual)), self.tol.bound(1.0) * self.system.dim)
        return rep


def graphs_from_inclusion(inc: Inclusion) -> tuple[QuantumGraph, QuantumGraph]:
    """The two quantum graphs attached to N ⊆ M on its ambient space.

    Returns (S = M over the algebra N', S = N' over the algebra M); their
    bimodules are the inclusions N ⊆ M and M' ⊆ N' respectively, and the
    bimodule property is re-verified at ``inc.tol``, which both graphs hold.
    """
    nprime = inc.small.commutant
    g1 = QuantumGraph(inc.big, nprime, label="system M over N'", tol=inc.tol)
    g2 = QuantumGraph(nprime, inc.big, label="system N' over M", tol=inc.tol)
    for g in (g1, g2):
        if not g.verify().passed:
            raise InternalError(f"graph invariants failed for {g.label}")
    return g1, g2


def traceless_part(g: QuantumGraph) -> np.ndarray:
    """HS-orthonormal basis of S ∩ (M')^perp in the ambient trace pairing, at
    ``g.tol``: the parts of S orthogonal to M', which need M' ⊆ S."""
    if not g.verify().passed:
        raise PreconditionError("the traceless part needs M' inside S")
    s = g.system.basis
    return la.span_onb(s - g.algebra.commutant.project(s), g.tol)


@dataclass
class Colouring:
    """(L, c) colouring data: a PVM in M (x) M_l."""

    aux_dim: int  # l; the auxiliary algebra is M_l with its normalised trace
    projections: list[np.ndarray] = field(repr=False)
    label: str = ""

    @property
    def colours(self) -> int:
        return len(self.projections)


def _norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norms of a stack (..., m, m), each summed as ``np.linalg.norm``
    sums one matrix: a stacked check reads its per-matrix residual to the bit."""
    flat = stack.reshape(*stack.shape[:-2], 1, stack.shape[-2] * stack.shape[-1])
    re, im = flat.real, flat.imag
    return np.sqrt(re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))[..., 0, 0]


def _projection_gap(ps: np.ndarray) -> float:
    """max over a stack of max(||p - p*||, ||p p - p||): zero for projections."""
    return max(float(np.max(_norms(ps - la.dagger(ps)))), float(np.max(_norms(ps @ ps - ps))))


def verify_colouring(g: QuantumGraph, col: Colouring) -> Report:
    """PVM structure plus the annihilation of the traceless part, at ``g.tol``.

    PVM violations raise :class:`ColouringError`; the
    annihilation condition max_a ||P_a (x (x) 1_L) P_a|| over a traceless
    basis is always reported.  The products P_a P_b, b > a, and P_a x P_a
    over the traceless basis are stacked per a, so no stack holds more than
    one colour's products.
    """
    tol = g.tol
    rep = Report()
    n, l = g.ambient_dim, col.aux_dim
    dim = n * l
    for i, p in enumerate(col.projections):
        if p.shape != (dim, dim):
            raise ColouringError(f"projection {i} has shape {p.shape}, expected {(dim, dim)}")
    ps = np.stack(col.projections)
    pvm = _projection_gap(ps)
    for i, p in enumerate(ps[:-1]):
        pvm = max(pvm, float(np.max(_norms(p @ ps[i + 1 :]))))
    rep.add("pvm_projections_orthogonal", pvm, tol.bound(1.0) * col.colours)
    rep.add(
        "pvm_resolves_identity",
        la.frobenius_distance(ps.sum(axis=0), la.eye(dim)),
        tol.bound(1.0) * col.colours,
    )
    tensor_aux = StarAlgebra.tensor(g.algebra, StarAlgebra.full(l))
    rep.add(
        "pvm_in_algebra_tensor_aux",
        float(np.max(tensor_aux.membership_residual(ps))),
        tol.bound(1.0) * col.colours * 10,
    )
    if not rep.passed:
        raise ColouringError(
            "colouring is not a PVM in M (x) L: "
            + ", ".join(c.name for c in rep.failures())
        )
    lifted = la.kron(traceless_part(g), la.eye(l))
    worst = max(float(np.max(_norms(p @ lifted @ p), initial=0.0)) for p in ps)
    rep.add("annihilates_traceless_part", worst, tol.bound(1.0) * col.colours)
    return rep


# ---------------------------------------------------------------------------
# The factor construction (upper bound for the graph (N', M)).
# ---------------------------------------------------------------------------


@dataclass
class FactorFrame:
    """Adapted coordinates H ≅ (+)_j C^{n_j} (x) C^{l_j} (x) C^d for a
    factor inclusion N ≅ M_d ⊆ M ⊆ B(H)."""

    d: int
    block_sizes: list[int]  # l_j
    block_mults: list[int]  # n_j
    isometries: list[np.ndarray]  # W_j : C^{n_j l_j d} -> H

    @property
    def index(self) -> int:
        return sum(l * l for l in self.block_sizes)


def factor_frame(inc: Inclusion) -> FactorFrame:
    """Build the adapted tensor frame for a factor subalgebra N ⊆ M."""
    small = inc.small
    if len(small.blocks) != 1:
        raise PreconditionError("factor colouring requires N to be a factor")
    d, mult = small.blocks[0]
    # W: C^mult (x) C^d -> H with N = 1 (x) M_d
    w = _swap_legs(_dot(small, 0, la.eye(d * mult)), d, mult)
    # compress the relative commutant to the multiplicity space: in these
    # coordinates x = c (x) 1_d, and x -> c is a unital injective *-homomorphism
    c_alg = inc.relative_commutant.image(
        lambda x: la.partial_trace(la.dagger(w) @ x @ w, [mult, d], {1}, normalise=True), mult
    )
    isometries = []
    sizes, mults = [], []
    for j, (l_j, n_j) in enumerate(c_alg.blocks):
        # V_j: C^{n_j} (x) C^{l_j} -> C^mult
        v = _swap_legs(_dot(c_alg, j, la.eye(l_j * n_j)), l_j, n_j)
        isometries.append(w @ la.kron(v, la.eye(d)))
        sizes.append(l_j)
        mults.append(n_j)
    return FactorFrame(d, sizes, mults, isometries)


def _swap_last_two_legs(a: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    """Reorder legs (p, q, r) -> (p, r, q) of a square matrix."""
    p, q, r = dims
    t = a.reshape(p, q, r, p, q, r)
    t = t.transpose(0, 2, 1, 3, 5, 4)
    return t.reshape(p * q * r, p * q * r)


def _embed_last_leg(a: np.ndarray, outer: int, small: int, copies: int) -> np.ndarray:
    """Apply x -> 1_copies (x) x on the last leg of a (outer, small) matrix."""
    t = a.reshape(outer, small, outer, small)
    ident = np.eye(copies)
    out = np.einsum("PiQj,ab->PaiQbj", t, ident)
    return out.reshape(outer * copies * small, outer * copies * small)


def factor_colouring(inc: Inclusion) -> Colouring:
    """Colouring of the graph (N', M, B(H)) with [M:N] colours, N a factor.

    Each block contributes the twisted entangled projections of its Weyl
    family, flipped onto the auxiliary leg and embedded block-diagonally
    into M_l with l the lcm of the block sizes.
    """
    frame = factor_frame(inc)
    l = lcm(*frame.block_sizes)
    d = frame.d
    n = inc.big.ambient_dim
    projections: list[np.ndarray] = []
    for l_j, w_j in zip(frame.block_sizes, frame.isometries):
        psi = la.max_entangled(l_j)
        e_j = np.outer(psi, psi.conj())
        n_j = w_j.shape[1] // (l_j * d)
        for u in weyl_basis(l_j).elements:
            inner = la.kron(la.dagger(u), la.eye(l_j)) @ e_j @ la.kron(u, la.eye(l_j))
            lifted = la.kron(inner, la.eye(d))  # legs (l_j, l_j, d)
            swapped = _swap_last_two_legs(lifted, (l_j, l_j, d))  # legs (l_j, d, l_j)
            embedded = _embed_last_leg(swapped, l_j * d, l_j, l // l_j)  # aux leg now M_l
            block = la.kron(la.eye(n_j), embedded)
            iso = la.kron(w_j, la.eye(l))
            projections.append(iso @ block @ la.dagger(iso))
    return Colouring(l, projections, label=f"factor colouring c={len(projections)}")


# ---------------------------------------------------------------------------
# The basis construction (local colouring for the graph (M, N')).
# ---------------------------------------------------------------------------


def gns_graph(t: Tower) -> QuantumGraph:
    """The quantum graph (M, N', B(L^2(M, tau))) of a tower's inclusion, at ``t.tol``."""
    return QuantumGraph(t.m_rep, t.n_rep.commutant, label="system M over N' on L2", tol=t.tol)


def basis_colouring(t: Tower, basis: PimsnerPopaBasis) -> Colouring:
    """Local colouring {u_i* e_N u_i} of (M, N', B(L^2)) with [M:N] colours,
    for a basis that passes :func:`bases._require_normaliser_basis` on ``t``."""
    _require_normaliser_basis(t, basis)
    reps = t.gns.left(np.stack(basis.elements))
    projections = list(la.dagger(reps) @ t.jones1 @ reps)
    return Colouring(1, projections, label=f"basis colouring c={len(projections)}")


# ---------------------------------------------------------------------------
# Lower-bound certificates.
# ---------------------------------------------------------------------------


def _certificate(
    rep: Report, rs: np.ndarray, idx: int, col: Colouring, tol: Tolerance
) -> Report:
    """Finish a lower-bound certificate on its family R_a, stacked: each R_a
    is a projection and sum_a R_a = [M:N] 1, so the colour count is at
    least [M:N].  Raises :class:`CertificateError` naming the failed checks
    of ``rep`` when the arithmetic fails."""
    rep.add("certificate_projections", _projection_gap(rs), tol.bound(1.0) * col.colours * 10)
    rep.add(
        "certificate_sum",
        la.frobenius_distance(rs.sum(axis=0), idx * la.eye(rs.shape[-1])),
        tol.bound(float(idx)) * col.colours,
    )
    if not rep.passed:
        raise CertificateError(
            f"certificate arithmetic failed ({', '.join(c.name for c in rep.failures())}); "
            "no such colouring can exist at this colour count"
        )
    rep.add_flag(
        "colour_count_at_least_index",
        col.colours >= idx,
        detail=f"c = {col.colours} >= [M:N] = {idx}",
    )
    return rep


def factor_lower_bound(inc: Inclusion, col: Colouring) -> Report:
    """Certificate c >= [M:N] for colourings of (N', M, B(H)), N a factor,
    at ``inc.tol``.

    Per block, the twisted partial trace of each P_a is a projection; the
    blockwise sums R_a are mutually orthogonal across blocks and add up to
    [M:N] 1, which forces the colour count.
    """
    frame = factor_frame(inc)
    idx = frame.index
    l = col.aux_dim
    d = frame.d
    rs = []
    for p in col.projections:
        r_a = np.zeros((d * l, d * l), dtype=complex)
        for l_j, w_j in zip(frame.block_sizes, frame.isometries):
            n_j = w_j.shape[1] // (l_j * d)
            iso = la.kron(w_j, la.eye(l))
            comp = la.dagger(iso) @ p @ iso  # legs (n_j, l_j, d, l)
            r_a += l_j * l_j * la.partial_trace(
                comp, [n_j, l_j, d * l], {0, 1}, normalise=True
            )
        rs.append(r_a)
    return _certificate(Report(), np.stack(rs), idx, col, inc.tol)


def basis_lower_bound(t: Tower, basis: PimsnerPopaBasis, col: Colouring) -> Report:
    """Certificate c >= [M:N] for colourings of (M, N', B(L^2)), at ``t.tol``.

    Uses the averaging map y -> (1/[M:N]) sum u_i* y u_i, which is checked
    to be a conditional expectation of N' onto M' before the R_a family is
    formed.  The basis must pass :func:`bases._require_normaliser_basis` on ``t``.
    """
    _require_normaliser_basis(t, basis)
    tol, idx = t.tol, int(round(t.index))
    mprime = t.m_rep.commutant
    nprime = t.n_rep.commutant
    reps = t.gns.left(np.stack(basis.elements))
    rep = Report()

    def conjugate_sum(ys: np.ndarray, us: np.ndarray) -> np.ndarray:
        """sum_u u* y u for each y of the stack ys: one stacked product per u."""
        return sum(la.dagger(u) @ ys @ u for u in us)

    rep.add(
        "averaging_lands_in_far_commutant",
        float(np.max(mprime.membership_residual(conjugate_sum(nprime.basis, reps) / idx))),
        tol.bound(1.0) * nprime.dim,
    )
    fixed = mprime.basis
    rep.add(
        "averaging_fixes_far_commutant",
        float(np.max(la.frobenius_norms(conjugate_sum(fixed, reps) / idx - fixed))),
        tol.bound(1.0) * mprime.dim,
    )
    rs = conjugate_sum(np.stack(col.projections), la.kron(reps, la.eye(col.aux_dim)))
    return _certificate(rep, rs, idx, col, tol)


def _factor_certificate(inc: Inclusion) -> tuple[Colouring, Report, Report]:
    """The factor colouring of (N', M, B(H)), its report and its lower bound."""
    col = factor_colouring(inc)
    _, g2 = graphs_from_inclusion(inc)
    return col, verify_colouring(g2, col), factor_lower_bound(inc, col)


def _basis_certificate(t: Tower, basis: PimsnerPopaBasis) -> tuple[Colouring, Report, Report]:
    """The basis colouring of (M, N', B(L^2)), its report and its lower bound."""
    col = basis_colouring(t, basis)
    return col, verify_colouring(gns_graph(t), col), basis_lower_bound(t, basis, col)


# ---------------------------------------------------------------------------
# Combined bounds.
# ---------------------------------------------------------------------------


@dataclass
class ChromaticBounds:
    lower: int
    upper: int | None
    certificates: list[dict]
    warnings: list[str]

    @property
    def tight(self) -> bool:
        return self.upper is not None and self.lower == self.upper


def chromatic_bounds(inc: Inclusion) -> ChromaticBounds:
    """Chromatic bounds for the graphs attached to an inclusion, at ``inc.tol``.

    Covers the two theorem families: N a factor (quantum/quantum-commuting
    value [M:N] for (N', M) on the defining space) and inclusions with a
    unitary normaliser basis (local value [M:N] for (M, N') on the GNS
    space).  Uncovered inclusions return partial bounds with a warning, as
    does a basis that :func:`bases._require_normaliser_basis` refuses.
    """
    certificates: list[dict] = []
    warnings: list[str] = []

    def record(
        graph: str, kind: str, ambient_dim: int, col: Colouring, colour_rep: Report, bound_rep: Report
    ) -> None:
        certificates.append(
            {
                "graph": graph,
                "kind": kind,
                "ambient_dim": ambient_dim,
                "aux_dim": col.aux_dim,
                "colours": col.colours,
                "lower_bound": int(round(inc.index)),
                "colouring_report": colour_rep,
                "certificate_report": bound_rep,
            }
        )

    if len(inc.small.blocks) == 1:
        record(
            "system N' over M on the defining space",
            "quantum (finite-dimensional auxiliary)",
            inc.big.ambient_dim,
            *_factor_certificate(inc),
        )
    else:
        warnings.append("N is not a factor: no quantum-commuting certificate for (N', M)")

    basis = normaliser_basis_for(inc)
    if basis is None:
        warnings.append("no unitary normaliser basis constructor applies: no local certificate")
    else:
        t = basic_construction(inc)
        try:
            _require_normaliser_basis(t, basis)
        except PreconditionError as exc:
            warnings.append(f"the normaliser basis is refused ({exc}): no local certificate")
        else:
            record("system M over N' on the GNS space", "local", t.gns.dim, *_basis_certificate(t, basis))

    upper = min((c["colours"] for c in certificates if c["colouring_report"].passed), default=None)
    if upper is None:
        warnings.append("no colouring construction covered this inclusion; bounds are partial")
    lower = max((c["lower_bound"] for c in certificates if c["certificate_report"].passed), default=1)
    return ChromaticBounds(lower, upper, certificates, warnings)


def normaliser_basis_for(inc: Inclusion) -> PimsnerPopaBasis | None:
    """A unitary normaliser basis from the known constructors, if one applies."""
    small, big = inc.small, inc.big
    n = big.ambient_dim
    if big.dim != n * n:
        if small.same_span(big, inc.tol):
            return PimsnerPopaBasis(inc, [la.eye(n)])
        return None
    if len(small.blocks) == 1:
        return commutant_factor_basis(inc)
    if all(m == 1 for _, m in small.blocks):
        flag, witness, _ = homogeneity_test(inc)
        if flag and witness is not None:
            return witness
    return None
