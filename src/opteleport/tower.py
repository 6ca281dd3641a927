"""GNS representations and the Jones basic construction, one level at a time.

Coordinates on the GNS space of (M, tau) use a self-adjoint basis of M
orthonormal for <x, y> = tau(y* x).  In these coordinates the modular
conjugation is plain entrywise complex conjugation and the right regular
representation is the transpose of the left one, so no antilinear operator
type is needed anywhere.

A :class:`Tower` is a list of :class:`Level` records grown by
:meth:`Tower.extend`, which repeats one step at every height: take the GNS
space of the top algebra, add the Jones projection onto the image of the
algebra below it, and take the conjugated commutant of that represented
algebra as the next algebra.  Its canonical trace is solved from the
defining relation tr(x e y) = tau(x y) through a central-density ansatz on
seeded pairs, then gated on the Markov restriction over the whole basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg as la
from .algebra import (
    StarAlgebra,
    Superoperator,
    Trace,
    _combine,
    _expectation_rows,
    _tau_onb,
    conditional_expectation_onto,
)
from .errors import (
    InternalError,
    MarkovError,
    NormaliserError,
    PreconditionError,
    TraceError,
)
from .inclusion import Inclusion, inclusion_matrix, index_from_matrix
from .linalg import DEFAULT_TOL, Tolerance
from .reporting import Report

_PAIR_SEED = 0x70A3  # deterministic draws for trace-relation validation pairs


class GnsSpace:
    """The GNS representation of a tracial finite-dimensional algebra."""

    def __init__(self, algebra: StarAlgebra, trace: Trace, tol: Tolerance = DEFAULT_TOL) -> None:
        if trace.algebra is not algebra:
            raise TraceError("trace must live on the represented algebra")
        if not (trace.is_state(tol) and trace.is_faithful(tol)):
            raise TraceError("GNS construction needs a faithful tracial state")
        self.algebra = algebra
        self.trace = trace
        self.tol = tol
        self.onb = _tau_onb(algebra.basis, trace)
        self.dim = self.onb.shape[0]
        # Row l is (rho b_l)^T flattened, so that pi(x)_{lk} = tr(rho b_l x b_k)
        # is this stack times the flattened products x b_k: two BLAS products
        # per call, and nothing of size dim^2 n^2 is ever held.
        self._rho_onb_t = _expectation_rows(self.onb, trace.density)

    def vector(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of the GNS image of x."""
        return self._rho_onb_t @ x.ravel()

    def left(self, x: np.ndarray) -> np.ndarray:
        """Left multiplication by x as a matrix on the GNS space."""
        return self._rho_onb_t @ np.matmul(x, self.onb).reshape(self.dim, -1).T

    def right(self, x: np.ndarray) -> np.ndarray:
        """Right multiplication by x; the transpose of :meth:`left` here."""
        return self.left(x).T

    def pullback(self, density: np.ndarray) -> np.ndarray:
        """K with Tr(density left(x)) = Tr(K x) for every x.

        From left(x)_{lk} = tr(rho b_l x b_k): K = sum_{kl} D_{kl} b_k rho b_l,
        with D the density and rho the density of this space's trace.
        """
        rho_b = np.matmul(self.trace.density, self.onb).reshape(self.dim, -1)
        mixed = (density @ rho_b).reshape(self.onb.shape)  # sum_l D_kl rho b_l
        n = self.onb.shape[1]
        return self.onb.transpose(1, 0, 2).reshape(n, -1) @ mixed.reshape(-1, n)

    def element(self, v: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`vector`: the algebra element with GNS coordinates v."""
        return _combine(v, self.onb)

    def subspace_projection(self, sub: StarAlgebra) -> np.ndarray:
        """Orthogonal projection onto the GNS image of a subalgebra.

        For the Jones projection this gives e Lambda(x) = Lambda(E(x)) with
        E the trace-preserving expectation onto the subalgebra.
        """
        sub_onb = _tau_onb(sub.basis, self.trace.restrict(sub))
        rows = sub_onb.reshape(sub_onb.shape[0], -1) @ self._rho_onb_t.T
        return rows.T @ np.conj(rows)


@dataclass(eq=False)
class Level:
    """The algebra M_k of the tower N = M_{-1} ⊆ M = M_0 ⊆ M_1 ⊆ ...

    ``upper`` is M_{k-1} inside M_k (N itself at k = 0).  From k = 1 on,
    M_k acts on ``gns``, the GNS space of (M_{k-1}, trace_{k-1}): ``lower``
    is M_{k-2} represented there, ``jones`` the projection onto its GNS
    image, and ``density`` the central density solved for ``trace``.
    """

    algebra: StarAlgebra
    trace: Trace
    upper: StarAlgebra
    gns: GnsSpace | None = None
    lower: StarAlgebra | None = None
    jones: np.ndarray | None = None
    density: np.ndarray | None = None
    mirror: StarAlgebra | None = None  # M_{k-1}' ∩ M_k, filled by Tower.mirror

    @cached_property
    def expect(self) -> Superoperator:
        """trace-preserving conditional expectation M_k -> M_{k-1}."""
        return conditional_expectation_onto(self.upper, self.algebra, self.trace)


def _step(prev: Level, tol: Tolerance) -> Level:
    """The basic construction on top of ``prev``: the record one level up."""
    gns = GnsSpace(prev.algebra, prev.trace, tol)
    lower = prev.upper.image(gns.left, gns.dim)
    upper = prev.algebra.image(gns.left, gns.dim)
    jones = gns.subspace_projection(prev.upper)
    algebra = lower.commutant.conjugate_entrywise()
    density, trace = _extend_trace(prev, gns, jones, algebra, tol)
    return Level(algebra, trace, upper, gns, lower, jones, density)


def _extend_trace(
    prev: Level, gns: GnsSpace, jones: np.ndarray, algebra: StarAlgebra, tol: Tolerance
) -> tuple[np.ndarray, Trace]:
    """Extend ``prev.trace`` to ``algebra`` through tr(x e y) = trace(x y).

    Any trace on a finite-dimensional algebra has a central density, so the
    relation is solved for one by least squares on seeded combinations of
    the basis of ``prev.algebra``; a large residual means the relation is
    inconsistent.  The normalised extension must then restrict to the old
    trace on the whole basis (the Markov gate).
    """
    basis = prev.algebra.basis
    k = basis.shape[0]
    rng = la.rng_from(_PAIR_SEED)
    picks = min(k, max(12, 2 * len(algebra.blocks)))
    combos = [np.tensordot(rng.standard_normal(k), basis, axes=(0, 0)) for _ in range(picks)]
    images = [gns.left(c) for c in combos]
    zs = np.stack(algebra.central_projections)
    zs_t = zs.transpose(0, 2, 1).reshape(len(zs), -1)  # Tr(z_j y) = zs_t @ y.ravel()
    rows = np.array([zs_t @ (pc @ jones @ pd).ravel() for pc in images for pd in images])
    values = np.array([prev.trace(c @ d) for c in combos for d in combos])
    coeffs, *_ = np.linalg.lstsq(rows, values, rcond=None)
    resid = float(np.abs(rows @ coeffs - values).max())
    if resid > tol.bound(1.0) * len(values):
        raise MarkovError(f"trace extension inconsistent, residual {resid:.2e}")
    density = np.tensordot(coeffs, zs, axes=(0, 0))
    total = float(np.trace(density).real)
    weights = [
        float(np.trace(density @ algebra.minimal_projection(j)).real) / total
        for j in range(len(algebra.blocks))
    ]
    trace = Trace(algebra, weights)
    # trace(left(x)) - prev.trace(x) = Tr((K - rho) x) for every basis element at once
    gap = gns.pullback(trace.density) - prev.trace.density
    worst = float(np.abs(basis.reshape(k, -1) @ gap.T.ravel()).max())
    if worst > tol.bound(1.0) * k:
        raise MarkovError(f"trace is not Markov for the inclusion, residual {worst:.2e}")
    return density, trace


def _view(k: int, field: str, doc: str) -> property:
    return property(lambda self: getattr(self.level(k), field), doc=doc)


class Tower:
    """The tower N ⊆ M ⊆ M1 ⊆ ..., one :class:`Level` record per algebra.

    Construction builds M1; :meth:`extend` adds one level per call.  The
    paper-named attributes below are read-only views of the first levels.
    """

    def __init__(self, inclusion: Inclusion, tol: Tolerance = DEFAULT_TOL) -> None:
        self.inclusion = inclusion
        self.tol = tol
        self.levels = [Level(inclusion.big, inclusion.trace, inclusion.small)]
        self.extend()

    def extend(self) -> Level:
        """Append the next level by one basic-construction step."""
        self.levels.append(_step(self.levels[-1], self.tol))
        return self.levels[-1]

    def level(self, k: int) -> Level:
        """The record of M_k; PreconditionError when it is not built yet."""
        if not 0 <= k < len(self.levels):
            raise PreconditionError(
                f"tower level {k} is not built; call iterate() or extend() first"
            )
        return self.levels[k]

    gns = _view(1, "gns", "GNS space of (M, tau).")
    gns1 = _view(2, "gns", "GNS space of (M1, trace1).")
    jones1 = _view(1, "jones", "e_N, the projection onto the GNS image of N.")
    jones2 = _view(2, "jones", "e_M, the projection onto the GNS image of M.")
    level1 = _view(1, "algebra", "M1, the conjugated commutant of the represented N.")
    level2 = _view(2, "algebra", "M2, the conjugated commutant of the represented M.")
    trace1 = _view(1, "trace", "The Markov extension of tau to M1.")
    trace2 = _view(2, "trace", "The Markov extension of trace1 to M2.")
    n_rep = _view(1, "lower", "N on the GNS space of M.")
    m_rep = _view(1, "upper", "M on its GNS space.")
    m1_rep = _view(2, "upper", "M1 on its GNS space.")
    expect_onto_m = _view(1, "expect", "trace1-preserving conditional expectation M1 -> M.")
    rel_comm = property(lambda self: self.mirror(0), doc="N' ∩ M in the base ambient.")
    mirror1 = property(lambda self: self.mirror(1), doc="M' ∩ M1.")
    mirror2 = property(lambda self: self.mirror(2), doc="M1' ∩ M2.")

    @property
    def index(self) -> float:
        return self.inclusion.index

    def mirror(self, k: int) -> StarAlgebra:
        """M_{k-1}' ∩ M_k: N' ∩ M at k = 0, then its images under gamma(k - 1)."""
        lvl = self.level(k)
        if lvl.mirror is None:
            lvl.mirror = (
                self.inclusion.relative_commutant
                if k == 0
                else self.mirror(k - 1).anti_image(lvl.gns.right, lvl.gns.dim)
            )
        return lvl.mirror

    def gamma(self, k: int, x: np.ndarray) -> np.ndarray:
        """Anti-isomorphism M_{k-1}' ∩ M_k -> M_k' ∩ M_{k+1} (right multiplication)."""
        return self.level(k + 1).gns.right(x)

    def gamma0(self, x: np.ndarray) -> np.ndarray:
        """Anti-isomorphism N' ∩ M -> M' ∩ M1 (right multiplication)."""
        return self.gamma(0, x)

    def shift(self, x: np.ndarray) -> np.ndarray:
        """The canonical shift N' ∩ M -> M1' ∩ M2 (a *-isomorphism)."""
        return self.gamma(1, self.gamma(0, x))

    @cached_property
    def gamma0_operator(self) -> Superoperator:
        """gamma0 as a typed map N' ∩ M -> M' ∩ M1 (anti-isomorphism, not CP)."""
        return Superoperator(self.rel_comm, self.mirror1, self.gamma0)

    @cached_property
    def shift_operator(self) -> Superoperator:
        """The canonical shift as a typed map; being a *-isomorphism it is UCP."""
        return Superoperator(self.rel_comm, self.mirror2, self.shift)


def basic_construction(inclusion: Inclusion, tol: Tolerance = DEFAULT_TOL) -> Tower:
    """Build one level of the tower; raises MarkovError for non-Markov traces."""
    return Tower(inclusion, tol)


def iterate(tower: Tower) -> Tower:
    """Extend the tower to its second level (M2, e_M, gamma(1, ·), shift)."""
    while len(tower.levels) < 3:
        tower.extend()
    return tower


# ---------------------------------------------------------------------------
# Verification operations
# ---------------------------------------------------------------------------


def verify_tower(t: Tower, tol: Tolerance | None = None, deep: bool = True) -> Report:
    """Residual checks for all level-one and level-two tower identities."""
    tol = tol or t.tol
    rep = Report()
    inc = t.inclusion
    pi, e1 = t.gns.left, t.jones1
    exp = inc.expectation

    rep.add(
        "jones1_projection",
        max(
            la.frobenius_distance(e1, la.dagger(e1)),
            la.frobenius_distance(e1 @ e1, e1),
        ),
        tol.bound(1.0),
    )
    rep.add(
        "gns_inner_product",
        _gns_inner_residual(t),
        tol.bound(1.0),
    )
    rep.add(
        "compression_is_expectation",  # e x e = E(x) e
        max(
            la.frobenius_distance(e1 @ pi(x) @ e1, pi(exp(x)) @ e1) for x in inc.big.basis
        ),
        tol.bound(1.0),
    )
    rng = la.rng_from(_PAIR_SEED + 1)
    bim = 0.0
    for _ in range(6):
        a = inc.small.project(la.random_hermitian(inc.small.ambient_dim, rng))
        b = inc.small.project(la.random_hermitian(inc.small.ambient_dim, rng))
        x = la.random_hermitian(inc.big.ambient_dim, rng)
        x = inc.big.project(x)
        bim = max(bim, la.frobenius_distance(exp(a @ x @ b), a @ exp(x) @ b))
    rep.add("expectation_bimodule", bim, tol.bound(1.0) * 10)
    rep.add(
        "jones1_commutes_with_small",
        max(la.frobenius_distance(e1 @ b, b @ e1) for b in t.n_rep.basis),
        tol.bound(1.0),
    )
    rep.add("jones1_conjugation_invariant", la.frobenius_distance(np.conj(e1), e1), tol.bound(1.0))

    # level1 equals the span of {x e y} together with the conjugated commutant
    prods = [pi(x) @ e1 @ pi(y) for x in inc.big.basis for y in inc.big.basis]
    span = la.span_onb(prods, tol)
    rep.add_flag("level1_spanned_by_compressions", span.shape[0] == t.level1.dim)
    rep.add(
        "level1_span_membership",
        max(la.span_residual(span, b) for b in t.level1.basis),
        tol.bound(1.0) * t.level1.dim,
    )

    rep.add(
        "tr1_defining_relation",
        max(
            abs(
                complex(np.trace(t.levels[1].density @ (pi(x) @ e1 @ pi(y))))
                - inc.trace(x @ y)
            )
            for x in inc.big.basis
            for y in inc.big.basis
        ),
        tol.bound(1.0) * inc.big.dim,
    )
    rep.add(
        "markov_restriction",
        max(abs(t.trace1(pi(x)) - inc.trace(x)) for x in inc.big.basis),
        tol.bound(1.0) * inc.big.dim,
    )
    idx = inc.index
    rep.add(
        "markov_expectation_of_jones",
        la.frobenius_distance(t.expect_onto_m(e1), la.eye(t.gns.dim) / idx),
        tol.bound(1.0),
    )
    lam1 = inclusion_matrix(t.m_rep, t.level1)
    rep.add_flag(
        "index_matches_level1",
        int(round(index_from_matrix(lam1))) == int(round(idx))
        and abs(idx - round(idx)) < 1e-9,
        detail=f"[M:N]={idx}, [M1:M]={index_from_matrix(lam1)}",
    )

    # entanglement relation x e = gamma0(x) e on the relative commutant
    rep.add(
        "relative_commutant_entanglement",
        max(
            la.frobenius_distance(pi(x) @ e1, t.gamma0(x) @ e1) for x in t.rel_comm.basis
        ),
        tol.bound(1.0),
    )

    if not deep:
        return rep
    iterate(t)
    pi1, e2 = t.gns1.left, t.jones2
    e1_up = pi1(e1)
    rep.add(
        "jones2_commutes_with_m",  # the level-two fact e_M ∈ M'
        max(la.frobenius_distance(e2 @ b, b @ e2) for b in t.levels[2].lower.basis),
        tol.bound(1.0),
    )
    rep.add(
        "jones2_conjugation_invariant",
        la.frobenius_distance(np.conj(e2), e2),
        tol.bound(1.0),
    )
    exp_m = t.expect_onto_m
    rep.add(
        "compression_is_expectation_level2",  # e_M x e_M = E_M(x) e_M on M1
        max(
            la.frobenius_distance(
                e2 @ pi1(x) @ e2, pi1(exp_m(x)) @ e2
            )
            for x in t.level1.basis
        ),
        tol.bound(1.0) * t.level1.dim,
    )
    rep.add(
        "temperley_lieb_first",  # e_N e_M e_N = idx^{-1} e_N
        la.frobenius_distance(e1_up @ e2 @ e1_up, e1_up / idx),
        tol.bound(1.0),
    )
    rep.add(
        "temperley_lieb_second",
        la.frobenius_distance(e2 @ e1_up @ e2, e2 / idx),
        tol.bound(1.0),
    )
    rep.add(
        "markov_expectation_level2",
        la.frobenius_distance(t.levels[2].expect(e2), la.eye(t.gns1.dim) / idx),
        tol.bound(1.0),
    )
    rep.add(
        "shift_entanglement",  # e_N x e_M = e_N shift(x) e_M
        max(
            la.frobenius_distance(
                e1_up @ pi1(pi(x)) @ e2, e1_up @ t.shift(x) @ e2
            )
            for x in t.rel_comm.basis
        ),
        tol.bound(1.0),
    )
    rep.merge(_shift_isomorphism_report(t, tol))
    return rep


def _gns_inner_residual(t: Tower) -> float:
    rng = la.rng_from(_PAIR_SEED + 2)
    n = t.inclusion.big.ambient_dim
    worst = 0.0
    for _ in range(20):
        x = t.inclusion.big.project(la.random_hermitian(n, rng))
        y = t.inclusion.big.project(la.random_hermitian(n, rng))
        lhs = np.vdot(t.gns.vector(y), t.gns.vector(x))
        worst = max(worst, abs(lhs - t.inclusion.trace(la.dagger(y) @ x)))
        worst = max(
            worst,
            float(
                np.abs(t.gns.left(x) @ t.gns.vector(y) - t.gns.vector(x @ y)).max()
            ),
        )
    return worst


def _shift_isomorphism_report(t: Tower, tol: Tolerance) -> Report:
    rep = Report()
    rc = t.rel_comm
    rep.add(
        "shift_unital",
        la.frobenius_distance(t.shift(rc.unit), la.eye(t.gns1.dim)),
        tol.bound(1.0),
    )
    rng = la.rng_from(_PAIR_SEED + 3)
    mult = star = anti0 = star0 = anti1 = 0.0
    for _ in range(6):
        x = rc.project(la.random_hermitian(rc.ambient_dim, rng))
        y = rc.project(la.random_hermitian(rc.ambient_dim, rng))
        mult = max(mult, la.frobenius_distance(t.shift(x @ y), t.shift(x) @ t.shift(y)))
        star = max(star, la.frobenius_distance(t.shift(la.dagger(x)), la.dagger(t.shift(x))))
        anti0 = max(anti0, la.frobenius_distance(t.gamma0(x @ y), t.gamma0(y) @ t.gamma0(x)))
        star0 = max(
            star0, la.frobenius_distance(t.gamma0(la.dagger(x)), la.dagger(t.gamma0(x)))
        )
        gx, gy = t.gamma0(x), t.gamma0(y)
        anti1 = max(
            anti1, la.frobenius_distance(t.gamma(1, gx @ gy), t.gamma(1, gy) @ t.gamma(1, gx))
        )
    rep.add("shift_multiplicative", mult, tol.bound(1.0) * 10)
    rep.add("shift_star_preserving", star, tol.bound(1.0) * 10)
    rep.add("gamma0_anti_multiplicative", anti0, tol.bound(1.0) * 10)
    rep.add("gamma0_star_preserving", star0, tol.bound(1.0) * 10)
    rep.add("gamma1_anti_multiplicative", anti1, tol.bound(1.0) * 10)
    # M1 is generated by the represented M together with the first Jones
    # projection, so commutation against those generators suffices.
    gens = [t.gns1.left(t.gns.left(b)) for b in t.inclusion.big.basis]
    gens.append(t.gns1.left(t.jones1))
    shifted = [t.shift(x) for x in rc.basis]
    rep.add(
        "shift_lands_in_level2_commutant",
        max(max(la.frobenius_distance(s @ g, g @ s) for g in gens) for s in shifted),
        tol.bound(1.0) * t.level1.dim,
    )
    rep.add(
        "shift_image_in_level2",
        max(t.level2.membership_residual(s) for s in shifted),
        tol.bound(1.0) * t.level2.dim,
    )
    return rep


def verify_epr(t: Tower, tol: Tolerance | None = None) -> Report:
    """Entanglement checks: the two commutation lemmas plus perfect correlation."""
    tol = tol or t.tol
    rep = Report()
    pi, e1 = t.gns.left, t.jones1
    rc = t.rel_comm
    rep.add(
        "left_right_on_jones",  # x e = pi_r(x) e = gamma0(x) e
        max(
            max(
                la.frobenius_distance(pi(x) @ e1, t.gns.right(x) @ e1),
                la.frobenius_distance(t.gns.right(x) @ e1, t.gamma0(x) @ e1),
            )
            for x in rc.basis
        ),
        tol.bound(1.0),
    )
    iterate(t)
    pi1, e2 = t.gns1.left, t.jones2
    e1_up = pi1(e1)
    rep.add(
        "shift_on_second_jones",
        max(
            la.frobenius_distance(e1_up @ pi1(pi(x)) @ e2, e1_up @ t.shift(x) @ e2)
            for x in rc.basis
        ),
        tol.bound(1.0),
    )
    # any unit vector in the image of N is perfectly correlated
    rng = la.rng_from(_PAIR_SEED + 4)
    worst = 0.0
    vectors = [t.gns.vector(t.inclusion.small.unit)]
    coeffs = rng.standard_normal(t.inclusion.small.dim)
    y = np.tensordot(coeffs, t.inclusion.small.basis, axes=(0, 0))
    v = t.gns.vector(y)
    vectors.append(v / np.linalg.norm(v))
    for psi in vectors:
        for x in rc.basis:
            worst = max(worst, float(np.linalg.norm((pi(x) - t.gamma0(x)) @ psi)))
    rep.add("perfect_correlation", worst, tol.bound(1.0))
    return rep


def normalizer_check(t: Tower, u: np.ndarray, tol: Tolerance | None = None) -> bool:
    """Whether a unitary u in M normalises N.

    Three equivalent formulations are evaluated — conjugation stability of
    the subalgebra, equivariance of the conditional expectation, and the
    right-regular identity for u e_N u* — and must agree; disagreement
    means a library bug, not a property of u.
    """
    tol = tol or t.tol
    inc = t.inclusion
    if not la.is_unitary(u, tol) or not inc.big.contains(u, tol):
        raise NormaliserError("normaliser candidates must be unitaries in M")
    n_basis = inc.small.basis
    conj_stable = all(
        inc.small.contains(la.dagger(u) @ b @ u, tol) for b in n_basis
    )
    exp = inc.expectation
    rng = la.rng_from(_PAIR_SEED + 5)
    equivariant = True
    for _ in range(6):
        x = inc.big.project(la.random_hermitian(inc.big.ambient_dim, rng))
        lhs = la.dagger(u) @ exp(x) @ u
        rhs = exp(la.dagger(u) @ x @ u)
        if la.frobenius_distance(lhs, rhs) > tol.bound(float(np.linalg.norm(lhs))) * 10:
            equivariant = False
            break
    pu, pru = t.gns.left(u), t.gns.right(u)
    e1 = t.jones1
    jones_identity = la.frobenius_distance(
        pu @ e1 @ la.dagger(pu), pru @ e1 @ la.dagger(pru)
    ) <= tol.bound(1.0) * 10
    votes = [conj_stable, equivariant, jones_identity]
    if len(set(votes)) != 1:
        raise InternalError(f"normaliser criteria disagree: {votes}")
    return conj_stable


def verify_tracial_entangled_state(
    t: Tower,
    u: np.ndarray,
    psi: np.ndarray | None = None,
    tol: Tolerance | None = None,
    samples: int = 12,
) -> Report:
    """Tracial restricted vector state and EPR-double identity for u* psi.

    ``psi`` is a unit vector in the GNS image of N (the image of the unit
    by default); ``u`` must normalise N.
    """
    tol = tol or t.tol
    if not normalizer_check(t, u, tol):
        raise NormaliserError("u does not normalise N")
    if psi is None:
        psi = t.gns.vector(t.inclusion.small.unit)
    psi = np.asarray(psi, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > tol.bound(1.0):
        raise PreconditionError("psi must be a unit vector")
    if np.linalg.norm((np.eye(t.gns.dim) - t.jones1) @ psi) > tol.bound(1.0) * 10:
        raise PreconditionError("psi must lie in the GNS image of N")
    rep = Report()
    rc = t.rel_comm
    pu = t.gns.left(u)
    xi = la.dagger(pu) @ psi
    rng = la.rng_from(_PAIR_SEED + 6)
    tracial = 0.0
    for _ in range(samples):
        x = rc.project(la.random_hermitian(rc.ambient_dim, rng))
        y = rc.project(la.random_hermitian(rc.ambient_dim, rng))
        px, py = t.gns.left(x), t.gns.left(y)
        lhs = np.vdot(xi, px @ py @ xi)
        rhs = np.vdot(xi, py @ px @ xi)
        tracial = max(tracial, abs(lhs - rhs))
    rep.add("restricted_state_tracial", tracial, tol.bound(1.0) * 10)
    double = 0.0
    for x in rc.basis:
        lhs = t.gamma0(u @ x @ la.dagger(u)) @ xi
        rhs = t.gns.left(x) @ xi
        double = max(double, float(np.linalg.norm(lhs - rhs)))
    rep.add("epr_double_identity", double, tol.bound(1.0))
    return rep
