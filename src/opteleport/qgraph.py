"""Quantum graphs from inclusions, their colourings, and chromatic-number
certificates.

A quantum graph here is a triple (S, M, B(H)): a weak*-closed operator
system S that is an M'-bimodule, with M a von Neumann algebra on H.  An
(L, c) colouring is a PVM {P_a} in M (x) L annihilating the traceless part
S ∩ (M')^perp; L is always represented concretely as a matrix algebra
M_l with its normalised trace, l = 1 meaning a local colouring.

Both certificate families reduce a c-colouring to a family of projections
R_a summing to [M:N] 1, which forces c >= [M:N]; the matching colouring
constructions then pin the chromatic numbers to the index exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

import numpy as np

from . import linalg as la
from .algebra import StarAlgebra, _swap_legs
from .bases import (
    PimsnerPopaBasis,
    commutant_factor_basis,
    homogeneity_test,
    verify_basis,
    weyl_basis,
)
from .errors import CertificateError, ColouringError, InternalError, PreconditionError
from .inclusion import Inclusion
from .linalg import DEFAULT_TOL, Tolerance
from .reporting import Report
from .tower import Tower, basic_construction


@dataclass
class QuantumGraph:
    """Operator system + algebra pair on a finite-dimensional Hilbert space."""

    system: np.ndarray  # HS-orthonormal stack spanning S
    algebra: StarAlgebra  # the graph's von Neumann algebra M
    ambient_dim: int
    label: str = ""

    def verify(self, tol: Tolerance = DEFAULT_TOL) -> Report:
        rep = Report()
        n = self.ambient_dim
        rep.add(
            "contains_identity",
            la.span_residual(self.system, la.eye(n)),
            tol.bound(np.sqrt(n)) * 10,
        )
        rep.add(
            "closed_under_adjoint",
            max(la.span_residual(self.system, la.dagger(s)) for s in self.system),
            tol.bound(1.0) * self.system.shape[0],
        )
        comm = self.algebra.commutant
        rep.add(
            "commutant_bimodule",
            max(
                la.span_residual(self.system, a @ s @ b)
                for a in comm.basis
                for s in self.system
                for b in comm.basis
            ),
            tol.bound(1.0) * self.system.shape[0],
        )
        return rep


def graphs_from_inclusion(
    inc: Inclusion, tol: Tolerance = DEFAULT_TOL
) -> tuple[QuantumGraph, QuantumGraph]:
    """The two quantum graphs attached to N ⊆ M on its ambient space.

    Returns (S = M over the algebra N', S = N' over the algebra M); their
    bimodules are the inclusions N ⊆ M and M' ⊆ N' respectively, and the
    operator-system invariants are re-verified on construction.
    """
    n = inc.big.ambient_dim
    nprime = inc.small.commutant
    g1 = QuantumGraph(inc.big.basis, nprime, n, label="system M over N'")
    g2 = QuantumGraph(nprime.basis, inc.big, n, label="system N' over M")
    for g in (g1, g2):
        rep = g.verify(tol)
        if not rep.passed:
            raise InternalError(f"graph invariants failed for {g.label}")
    return g1, g2


def traceless_part(g: QuantumGraph, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """HS-orthonormal basis of S ∩ (M')^perp in the ambient trace pairing."""
    comm = g.algebra.commutant
    cross = np.array(
        [[la.trace_inner(c, s) for s in g.system] for c in comm.basis]
    )
    coeffs = la.nullspace(cross, tol)
    mats = [np.tensordot(v, g.system, axes=(0, 0)) for v in coeffs]
    return la.span_onb(mats, tol) if mats else np.zeros((0, g.ambient_dim, g.ambient_dim))


@dataclass
class Colouring:
    """(L, c) colouring data: a PVM in M (x) M_l."""

    aux_dim: int  # l; the auxiliary algebra is M_l with its normalised trace
    projections: list[np.ndarray] = field(repr=False)
    label: str = ""

    @property
    def colours(self) -> int:
        return len(self.projections)


def verify_colouring(
    g: QuantumGraph, col: Colouring, tol: Tolerance = DEFAULT_TOL, strict: bool = True
) -> Report:
    """PVM structure plus the annihilation of the traceless part.

    PVM violations raise :class:`ColouringError` when strict; the
    annihilation condition max_a ||P_a (x (x) 1_L) P_a|| over a traceless
    basis is always reported.
    """
    rep = Report()
    n, l = g.ambient_dim, col.aux_dim
    dim = n * l
    pvm = 0.0
    for i, p in enumerate(col.projections):
        if p.shape != (dim, dim):
            raise ColouringError(f"projection {i} has shape {p.shape}, expected {(dim, dim)}")
        pvm = max(pvm, la.frobenius_distance(p, la.dagger(p)))
        pvm = max(pvm, la.frobenius_distance(p @ p, p))
        for q in col.projections[i + 1 :]:
            pvm = max(pvm, float(np.linalg.norm(p @ q)))
    rep.add("pvm_projections_orthogonal", pvm, tol.bound(1.0) * col.colours)
    rep.add(
        "pvm_resolves_identity",
        la.frobenius_distance(sum(col.projections), la.eye(dim)),
        tol.bound(1.0) * col.colours,
    )
    tensor_aux = StarAlgebra.tensor(g.algebra, StarAlgebra.full(l))
    rep.add(
        "pvm_in_algebra_tensor_aux",
        max(tensor_aux.membership_residual(p) for p in col.projections),
        tol.bound(1.0) * col.colours * 10,
    )
    if strict and not rep.passed:
        raise ColouringError(
            "colouring is not a PVM in M (x) L: "
            + ", ".join(c.name for c in rep.failures())
        )
    worst = 0.0
    for x in traceless_part(g, tol):
        lifted = la.kron(x, la.eye(l))
        for p in col.projections:
            worst = max(worst, float(np.linalg.norm(p @ lifted @ p)))
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


def _lcm(values: list[int]) -> int:
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


def factor_frame(inc: Inclusion, tol: Tolerance = DEFAULT_TOL) -> FactorFrame:
    """Build the adapted tensor frame for a factor subalgebra N ⊆ M."""
    small = inc.small
    if len(small.blocks) != 1:
        raise PreconditionError("factor colouring requires N to be a factor")
    d, mult = small.blocks[0]
    # W: C^mult (x) C^d -> H with N = 1 (x) M_d
    w = _swap_legs(small.frames[0], d, mult)
    # compress the relative commutant to the multiplicity space
    rel = inc.relative_commutant
    compressed = []
    for x in rel.basis:
        y = la.dagger(w) @ x @ w  # = c (x) 1_d in these coordinates
        compressed.append(la.partial_trace(y, [mult, d], {1}, normalise=True))
    c_alg = StarAlgebra.from_span(la.span_onb(compressed, tol), tol)
    isometries = []
    sizes, mults = [], []
    for (l_j, n_j), frame in zip(c_alg.blocks, c_alg.frames):
        # V_j: C^{n_j} (x) C^{l_j} -> C^mult
        v = _swap_legs(frame, l_j, n_j)
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


def factor_colouring(inc: Inclusion, tol: Tolerance = DEFAULT_TOL) -> Colouring:
    """Colouring of the graph (N', M, B(H)) with [M:N] colours, N a factor.

    Each block contributes the twisted entangled projections of its Weyl
    family, flipped onto the auxiliary leg and embedded block-diagonally
    into M_l with l the lcm of the block sizes.
    """
    frame = factor_frame(inc, tol)
    l = _lcm(frame.block_sizes)
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
    """The quantum graph (M, N', B(L^2(M, tau))) of a tower's inclusion."""
    return QuantumGraph(
        t.m_rep.basis,
        t.n_rep.commutant,
        t.gns.dim,
        label="system M over N' on L2",
    )


def basis_colouring(
    t: Tower, basis: PimsnerPopaBasis, tol: Tolerance = DEFAULT_TOL
) -> Colouring:
    """Local colouring {u_i* e_N u_i} of (M, N', B(L^2)) with [M:N] colours."""
    if basis.orthonormal is None:
        verify_basis(t, basis, tol)
    if not (basis.unitary and basis.in_normaliser and basis.orthonormal):
        raise PreconditionError("basis colouring needs a unitary orthonormal normaliser basis")
    pi, e1 = t.gns.left, t.jones1
    projections = [la.dagger(pi(u)) @ e1 @ pi(u) for u in basis.elements]
    return Colouring(1, projections, label=f"basis colouring c={len(projections)}")


# ---------------------------------------------------------------------------
# Lower-bound certificates.
# ---------------------------------------------------------------------------


def factor_lower_bound(
    inc: Inclusion, col: Colouring, tol: Tolerance = DEFAULT_TOL
) -> Report:
    """Certificate c >= [M:N] for colourings of (N', M, B(H)), N a factor.

    Per block, the twisted partial trace of each P_a is a projection; the
    blockwise sums R_a are mutually orthogonal across blocks and add up to
    [M:N] 1, which forces the colour count.
    """
    frame = factor_frame(inc, tol)
    idx = frame.index
    l = col.aux_dim
    d = frame.d
    rep = Report()
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
    rep.add(
        "certificate_projections",
        max(
            max(
                la.frobenius_distance(r, la.dagger(r)),
                la.frobenius_distance(r @ r, r),
            )
            for r in rs
        ),
        tol.bound(1.0) * col.colours * 10,
    )
    rep.add(
        "certificate_sum",
        la.frobenius_distance(sum(rs), idx * la.eye(d * l)),
        tol.bound(float(idx)) * col.colours,
    )
    if not rep.passed:
        raise CertificateError(
            "certificate arithmetic failed; no such colouring can exist at this colour count"
        )
    rep.add_flag(
        "colour_count_at_least_index",
        col.colours >= idx,
        detail=f"c = {col.colours} >= [M:N] = {idx}",
    )
    return rep


def basis_lower_bound(
    t: Tower, basis: PimsnerPopaBasis, col: Colouring, tol: Tolerance = DEFAULT_TOL
) -> Report:
    """Certificate c >= [M:N] for colourings of (M, N', B(L^2)).

    Uses the averaging map y -> (1/[M:N]) sum u_i* y u_i, which is checked
    to be a conditional expectation of N' onto M' before the R_a family is
    formed.
    """
    if not (basis.unitary and basis.in_normaliser and basis.orthonormal):
        raise PreconditionError("certificate needs a unitary orthonormal normaliser basis")
    idx = int(round(t.index))
    pi = t.gns.left
    mprime = t.m_rep.commutant
    nprime = t.n_rep.commutant
    reps = [pi(u) for u in basis.elements]
    l = col.aux_dim
    rep = Report()

    def average(y: np.ndarray) -> np.ndarray:
        return sum(la.dagger(r) @ y @ r for r in reps) / idx

    rep.add(
        "averaging_lands_in_far_commutant",
        max(mprime.membership_residual(average(y)) for y in nprime.basis),
        tol.bound(1.0) * nprime.dim,
    )
    rep.add(
        "averaging_fixes_far_commutant",
        max(la.frobenius_distance(average(y), y) for y in mprime.basis),
        tol.bound(1.0) * mprime.dim,
    )
    rs = []
    for p in col.projections:
        r_a = sum(
            la.kron(la.dagger(r), la.eye(l)) @ p @ la.kron(r, la.eye(l)) for r in reps
        )
        rs.append(r_a)
    rep.add(
        "certificate_projections",
        max(
            max(
                la.frobenius_distance(r, la.dagger(r)),
                la.frobenius_distance(r @ r, r),
            )
            for r in rs
        ),
        tol.bound(1.0) * col.colours * 10,
    )
    rep.add(
        "certificate_sum",
        la.frobenius_distance(sum(rs), idx * la.eye(t.gns.dim * l)),
        tol.bound(float(idx)) * col.colours,
    )
    if not rep.passed:
        raise CertificateError(
            "certificate arithmetic failed; no such colouring can exist at this colour count"
        )
    rep.add_flag(
        "colour_count_at_least_index",
        col.colours >= idx,
        detail=f"c = {col.colours} >= [M:N] = {idx}",
    )
    return rep


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


def chromatic_bounds(inc: Inclusion, tol: Tolerance = DEFAULT_TOL) -> ChromaticBounds:
    """Chromatic bounds for the graphs attached to an inclusion.

    Covers the two theorem families: N a factor (quantum/quantum-commuting
    value [M:N] for (N', M) on the defining space) and inclusions with a
    unitary normaliser basis (local value [M:N] for (M, N') on the GNS
    space).  Uncovered inclusions return partial bounds with a warning.
    """
    certificates: list[dict] = []
    warnings: list[str] = []
    lower, upper = 1, None

    if len(inc.small.blocks) == 1:
        col = factor_colouring(inc, tol)
        _, g2 = graphs_from_inclusion(inc)
        colour_rep = verify_colouring(g2, col, tol)
        bound_rep = factor_lower_bound(inc, col, tol)
        idx = int(round(inc.index))
        certificates.append(
            {
                "graph": "system N' over M on the defining space",
                "kind": "quantum (finite-dimensional auxiliary)",
                "ambient_dim": inc.big.ambient_dim,
                "aux_dim": col.aux_dim,
                "colours": col.colours,
                "lower_bound": idx,
                "colouring_report": colour_rep,
                "certificate_report": bound_rep,
            }
        )
        if colour_rep.passed:
            upper = col.colours if upper is None else min(upper, col.colours)
        if bound_rep.passed:
            lower = max(lower, idx)
    else:
        warnings.append("N is not a factor: no quantum-commuting certificate for (N', M)")

    basis = normaliser_basis_for(inc)
    if basis is not None:
        t = basic_construction(inc, tol)
        verify_basis(t, basis, tol)
        if basis.unitary and basis.in_normaliser and basis.orthonormal:
            col = basis_colouring(t, basis, tol)
            g = gns_graph(t)
            colour_rep = verify_colouring(g, col, tol)
            bound_rep = basis_lower_bound(t, basis, col, tol)
            idx = int(round(inc.index))
            certificates.append(
                {
                    "graph": "system M over N' on the GNS space",
                    "kind": "local",
                    "ambient_dim": t.gns.dim,
                    "aux_dim": 1,
                    "colours": col.colours,
                    "lower_bound": idx,
                    "colouring_report": colour_rep,
                    "certificate_report": bound_rep,
                }
            )
            if colour_rep.passed:
                upper = col.colours if upper is None else min(upper, col.colours)
            if bound_rep.passed:
                lower = max(lower, idx)
    else:
        warnings.append("no unitary normaliser basis constructor applies: no local certificate")

    if upper is None:
        warnings.append("no colouring construction covered this inclusion; bounds are partial")
    return ChromaticBounds(lower, upper, certificates, warnings)


def normaliser_basis_for(inc: Inclusion) -> PimsnerPopaBasis | None:
    """A unitary normaliser basis from the known constructors, if one applies."""
    small, big = inc.small, inc.big
    n = big.ambient_dim
    if big.dim != n * n:
        if small.same_span(big):
            return PimsnerPopaBasis(inc, [la.eye(n)])
        return None
    if small.dim == 1:
        b = weyl_basis(n)
        b.inclusion = inc
        return b
    if len(small.blocks) == 1:
        return commutant_factor_basis(inc)
    if all(m == 1 for _, m in small.blocks):
        flag, witness, _ = homogeneity_test(inc)
        if flag and witness is not None:
            return witness
    return None
