"""GNS representations and the Jones basic construction, one level at a time.

Coordinates on the GNS space of (M, tau) are those against the matrix units
f^j_ab / sqrt(t_j), orthonormal for <x, y> = tau(y* x).  In them left and
right multiplication are the block Kronecker products xbar_j (x) 1 and
1 (x) xbar_j^T, and the modular conjugation is complex conjugation followed
by the swap (a, b) -> (b, a) on each block, so no antilinear operator type is
needed anywhere.

A :class:`Tower` is a list of :class:`Level` records grown by
:meth:`Tower.extend`, which repeats one step at every height: take the GNS
space of the top algebra, write down the algebra below it as represented
there (frames read off the units) and the top algebra from its block
layout, add the Jones projection onto the image of the algebra below, and
take the conjugated commutant of that represented algebra as the next
algebra.  Its canonical trace gives each block the weight of the paired
block two levels down, so that tr(x e y) = tau(x y), normalised to a state
and then gated on the Markov restriction over the whole basis.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import linalg as la
from .algebra import (
    StarAlgebra,
    Superoperator,
    Trace,
    _adjoint_dot,
    _conjugated,
    _corners,
    _dot,
    _frame_distance,
    _frame_from,
    _from_corners,
    _generators,
    _hermitian_combinations,
    _layout_distance,
    _layout_split,
    _masses,
    _overlap,
    _scattered,
    _upper_pairs,
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

_PAIR_SEED = 0x70A3  # deterministic draws for the verifiers' sample elements
_TRACIAL_SAMPLES = 12  # pairs (x, y) of N' ∩ M on which the restricted state is tested
_SHIFT_CHUNK = 1 << 20  # complex entries (16 MB) formed at a time: shifted operators, compressed rows


class GnsSpace:
    """The GNS representation of a tracial finite-dimensional algebra.

    Everything is read off the frames and the trace weights t_j.  The
    coordinates are those against the tau-orthonormal units f^j_ab / sqrt(t_j),
    (a, b) a-major per block: x has the coordinates sqrt(t_j) xbar_j, with
    xbar_j the multiplicity average of W_j* x W_j, left multiplication by x
    is (+)_j xbar_j (x) 1_{d_j} and right multiplication (+)_j 1_{d_j} (x) xbar_j^T.
    The modular conjugation J, Lambda(x) -> Lambda(x*), is complex
    conjugation followed by the swap (a, b) -> (b, a) on each block.

    :meth:`vector`, :meth:`left` and :meth:`right` take a matrix or a stack
    of shape (..., n, n); :meth:`act` takes a stack of shape (k, n, n).
    ``tol`` gates the trace as a faithful state and is not kept.
    """

    def __init__(self, algebra: StarAlgebra, trace: Trace, tol: Tolerance = DEFAULT_TOL) -> None:
        if trace.algebra is not algebra:
            raise TraceError("trace must live on the represented algebra")
        if not (trace.is_state(tol) and trace.is_faithful(tol)):
            raise TraceError("GNS construction needs a faithful tracial state")
        self.algebra = algebra
        self.trace = trace
        self.dim = algebra.dim
        dims = [d for d, _ in algebra.blocks]
        ends = np.cumsum(np.square(dims))
        self._slices = [slice(end - d * d, end) for d, end in zip(dims, ends)]
        # the coordinate (a, b) of each block read at (b, a)
        swaps = [end - d * d + np.arange(d * d).reshape(d, d).T for d, end in zip(dims, ends)]
        self._swap = np.concatenate(swaps, axis=None)

    def vector(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of the GNS image of x, (+)_j sqrt(t_j) xbar_j.
        For a stack of shape (..., n, n), the (..., dim) stack of them."""
        lead = np.shape(x)[:-2]
        corners = zip(np.sqrt(self.trace.weights), _corners(self.algebra, x))
        return np.concatenate([r * c.reshape(*lead, -1) for r, c in corners], axis=-1)

    def element(self, v: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`vector`: the algebra element with GNS coordinates v."""
        blocks = zip(self.algebra.blocks, self._slices, np.sqrt(self.trace.weights))
        return _from_corners(self.algebra, [v[sl].reshape(d, d) / r for (d, _), sl, r in blocks])

    def left(self, x: np.ndarray) -> np.ndarray:
        """Left multiplication by x as a matrix on the GNS space, (+)_j xbar_j (x) 1.
        For a stack of shape (..., n, n), the (..., dim, dim) stack of them."""
        return self._multiplication(x, "...abcb->...acb", lambda c: c[..., None])

    def right(self, x: np.ndarray) -> np.ndarray:
        """Right multiplication by x, (+)_j 1 (x) xbar_j^T; takes stacks as :meth:`left`."""
        return self._multiplication(x, "...abac->...abc", lambda c: c.swapaxes(-1, -2)[..., None, :, :])

    def _multiplication(
        self, x: np.ndarray, diagonal: str, place: Callable[[np.ndarray], np.ndarray]
    ) -> np.ndarray:
        """The block-diagonal operator whose block j, read as a (d, d, d, d)
        array through the writable view ``diagonal``, is ``place`` of the
        corner xbar_j there and zero elsewhere: each block is written in place."""
        lead = np.shape(x)[:-2]
        out = np.zeros((*lead, self.dim, self.dim), dtype=complex)
        for (d, _), sl, c in zip(self.algebra.blocks, self._slices, _corners(self.algebra, x)):
            np.einsum(diagonal, out[..., sl, sl].reshape(*lead, d, d, d, d))[...] = place(c)
        return out

    def act(self, xs: np.ndarray, v: np.ndarray) -> np.ndarray:
        """left(x) @ v for every x of the stack xs, as a (len(xs), dim, r) stack:
        each corner xbar_j acts on the first leg of block j, and no dim x dim
        operator is formed."""
        out = np.empty((len(xs), self.dim, v.shape[1]), dtype=complex)
        for (d, _), sl, c in zip(self.algebra.blocks, self._slices, _corners(self.algebra, xs)):
            out[:, sl] = (c @ v[sl].reshape(d, -1)).reshape(len(xs), d * d, -1)
        return out

    def _conjugate(self, x: np.ndarray, operator: bool = False) -> np.ndarray:
        """J applied to a vector or to the columns of x; with ``operator``,
        J x J for an operator or a stack of them."""
        if operator:
            return np.conj(x)[..., self._swap, :][..., self._swap]
        return np.conj(x)[self._swap]

    def pullback(self, density: np.ndarray) -> np.ndarray:
        """K with Tr(density left(x)) = Tr(K x) for every x.

        Tr(density left(x)) = sum_j Tr(G_j xbar_j) with G_j the partial trace
        over the second leg of the diagonal block j of density, so
        K = sum_j W_j (G_j (x) 1_{m_j}) W_j* / m_j.
        """
        blocks = zip(self.algebra.blocks, self._slices)
        return _from_corners(
            self.algebra,
            [np.trace(density[sl, sl].reshape(d, d, d, d), axis1=1, axis2=3) / m for (d, m), sl in blocks],
        )

    def subspace_isometry(self, rep: StarAlgebra) -> np.ndarray:
        """Isometry P onto the GNS image of a subalgebra, given as ``rep``, its
        image under :meth:`represented`: the (dim, rep.dim) columns are the unit
        vectors along pi(f_pq) Lambda(1) = F_p F_q* Lambda(1), for the units
        f_pq and the frame F of each block of ``rep``.

        For the Jones projection e = P P* this gives e Lambda(x) = Lambda(E(x))
        with E the trace-preserving expectation onto the subalgebra.
        """
        unit = self.vector(self.algebra.unit)[:, None]
        columns = []
        for i, (e, _) in enumerate(rep.blocks):
            down = _adjoint_dot(rep, i, unit).reshape(e, -1)  # (q, s): F_q* Lambda(1)
            columns.append(_dot(rep, i, la.kron(la.eye(e), down.T)))  # (x, (p, q))
        p = np.concatenate(columns, axis=1)
        return p / np.linalg.norm(p, axis=0)

    def unit_frames(self, sub: StarAlgebra) -> list[list[np.ndarray]]:
        """For block i of ``sub`` ⊆ ``algebra`` and block j of the algebra, the
        (d_j, e_i, r_ij) isometry f with sum_s f[:, p, s] f[:, q, s]* the corner
        of the unit f_pq of block i in block j; r_ij is the multiplicity of
        block i in block j, and 0 where block i does not occur there.

        The corners of the units f_p0 form a system of matrix units in M_{d_j},
        and f is its frame.
        """
        out = []
        starts = self.algebra._starts
        for i, (e, _) in enumerate(sub.blocks):
            row, whole = [], _overlap(self.algebra, sub, i, la.eye(e * sub.blocks[i][1]))
            for j, (d, m) in enumerate(self.algebra.blocks):
                y = whole[starts[j] : starts[j + 1]].reshape(d, m, e, -1)  # (a, r, p, s)
                g = np.einsum("arps,brs->pab", y, np.conj(y[:, :, 0])) / m
                rank = int(round(float(np.trace(g[0]).real)))
                row.append(_frame_from(g, g[0], rank).reshape(d, e, rank) if rank else np.zeros((d, e, 0)))
            out.append(row)
        return out

    def represented(self, sub: StarAlgebra) -> StarAlgebra:
        """``sub`` ⊆ ``algebra`` acting on this space by left multiplication.

        On the coordinates of block j, block i of ``sub`` acts through the
        corners of its units, whose frame (:meth:`unit_frames`), tensored with
        1_{d_j}, is the frame of the image.  For sub = algebra it selects the
        coordinates of block j.  The frame is scattered from the unit frames
        (:func:`_scattered`), so it is an index map where they are.
        """
        blocks, rows, cols, values = [], [], [], []
        for (e, _), row in zip(sub.blocks, self.unit_frames(sub)):
            mult = sum(d * f.shape[2] for (d, _), f in zip(self.algebra.blocks, row))
            start = sum(d * m for d, m in blocks)
            for (d, _), sl, f in zip(self.algebra.blocks, self._slices, row):
                # the entry f[a, p, s] sits in row (a, c) of slice j and column (p, (s, c)), c < d_j
                a, p, s = np.nonzero(f)
                c = np.arange(d)
                rows.append((sl.start + a[:, None] * d + c).ravel())
                cols.append((start + p[:, None] * mult + s[:, None] * d + c).ravel())
                values.append(np.repeat(f[a, p, s], d))
                start += f.shape[2] * d
            blocks.append((e, mult))
        return _scattered(self.dim, blocks, *map(np.concatenate, (rows, cols, values)))


@dataclass(eq=False)
class Level:
    """The algebra M_k of the tower N = M_{-1} ⊆ M = M_0 ⊆ M_1 ⊆ ...

    ``upper`` is M_{k-1} inside M_k (N itself at k = 0).  From k = 1 on,
    M_k acts on ``gns``, the GNS space of (M_{k-1}, trace_{k-1}): ``lower``
    is M_{k-2} represented there, ``jones_range`` the isometry P onto its
    GNS image, ``jones`` = P P* the Jones projection, and ``canonical`` the
    canonical trace with tr(x e y) = tau(x y), of which ``trace`` is the
    normalisation; ``density`` is its density, formed when read.
    """

    algebra: StarAlgebra
    trace: Trace
    upper: StarAlgebra
    gns: GnsSpace | None = None
    lower: StarAlgebra | None = None
    jones_range: np.ndarray | None = None
    canonical: Trace | None = None
    mirror: StarAlgebra | None = None  # M_{k-1}' ∩ M_k, filled by Tower.mirror

    @property
    def jones(self) -> np.ndarray | None:
        """The Jones projection P P* onto the GNS image of ``lower``, of the current ``jones_range``."""
        p = self.jones_range
        return None if p is None else p @ np.conj(p.T)

    @property
    def density(self) -> np.ndarray | None:
        """The density of the canonical trace, formed on first read."""
        return None if self.canonical is None else self.canonical.density

    @cached_property
    def expect(self) -> Superoperator:
        """trace-preserving conditional expectation M_k -> M_{k-1}."""
        return conditional_expectation_onto(self.upper, self.algebra, self.trace)


def _step(prev: Level, tol: Tolerance) -> Level:
    """The basic construction on top of ``prev``: the record one level up.

    Every piece is written down from the frames of ``prev``: ``prev.upper``
    represented (:meth:`GnsSpace.represented`), the Jones projection onto its
    GNS image, and the canonical trace (:func:`_canonical_trace`).
    ``prev.algebra`` on its own GNS space needs no frames: block j acts as
    M_{d_j} (x) 1_{d_j} on the d_j^2 consecutive coordinates of that block, the
    layout :meth:`StarAlgebra.block_diagonal` writes down.
    """
    gns = GnsSpace(prev.algebra, prev.trace, tol)
    lower = gns.represented(prev.upper)
    upper = StarAlgebra.block_diagonal([(d, d) for d, _ in prev.algebra.blocks])
    jones_range = gns.subspace_isometry(lower)
    # J permutes the rows of the gated frames of the commutant and conjugates them
    algebra = _conjugated(lower.commutant, gns._swap)
    canonical, trace = _canonical_trace(prev, lower, upper, algebra, tol)
    return Level(algebra, trace, upper, gns, lower, jones_range, canonical)


def _canonical_trace(
    prev: Level, lower: StarAlgebra, upper: StarAlgebra, algebra: StarAlgebra, tol: Tolerance
) -> tuple[Trace, Trace]:
    """The canonical trace of ``algebra`` = J lower' J, normalised to a state.

    Block k of ``algebra`` is J (block k of lower') J.  When block k of
    lower' shares its central projection with block i of ``lower`` (where its
    minimal projections have mass, :func:`_masses`), it holds the minimal
    projection e x for x minimal in block i of ``prev.upper``, so
    tr(x e y) = trace(x y) gives it the weight of that block under
    ``prev.trace`` (Jones 1983).  It returns that
    unnormalised trace and the normalised one, which must restrict to the
    old one on ``upper``, prev.algebra acting by left multiplication (the
    Markov gate).
    """
    weights = prev.trace.restrict(prev.upper).weights
    paired = np.argmax(_masses(lower, lower.commutant), axis=0)
    canonical = Trace(algebra, weights[paired])
    total = float(weights[paired] @ np.array([d for d, _ in algebra.blocks]))
    trace = Trace(algebra, canonical.weights / total)
    # trace(left(x)) - prev.trace(x) on the HS-orthonormal basis of prev.algebra: the restriction of
    # a trace is a trace, so it is (+)_j (gap_j / m_j) 1 on block j, for gap_j the gap of the weights
    gap = trace.restrict(upper).weights - prev.trace.weights
    worst = float(np.linalg.norm(gap * np.sqrt([d / m for d, m in prev.algebra.blocks])))
    if worst > tol.bound(1.0) * prev.algebra.dim:
        raise MarkovError(f"trace is not Markov for the inclusion, residual {worst:.2e}")
    return canonical, trace


def _view(k: int, field: str, doc: str) -> property:
    return property(lambda self: getattr(self.level(k), field), doc=doc)


class Tower:
    """The tower N ⊆ M ⊆ M1 ⊆ ..., one :class:`Level` record per algebra.

    Construction builds M1; :meth:`extend` adds one level per call.  The
    paper-named attributes below are read-only views of the first levels.
    :meth:`gamma`, :meth:`gamma0` and :meth:`shift` take a matrix or a stack
    of shape (..., n, n), through :meth:`GnsSpace.right`.  Every level and
    every verifier of the tower works at ``inclusion.tol``, the tolerance
    the inclusion was built at.
    """

    def __init__(self, inclusion: Inclusion) -> None:
        self.inclusion = inclusion
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

    @property
    def tol(self) -> Tolerance:
        """The tolerance of the inclusion, at which the tower is built and verified."""
        return self.inclusion.tol

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
        """Anti-isomorphism M_{k-1}' ∩ M_k -> M_k' ∩ M_{k+1} (right multiplication),
        of a matrix or of each matrix of a stack of shape (..., n, n)."""
        return self.level(k + 1).gns.right(x)

    def gamma0(self, x: np.ndarray) -> np.ndarray:
        """Anti-isomorphism N' ∩ M -> M' ∩ M1 (right multiplication); takes stacks."""
        return self.gamma(0, x)

    def shift(self, x: np.ndarray) -> np.ndarray:
        """The canonical shift N' ∩ M -> M1' ∩ M2 (a *-isomorphism); takes stacks."""
        return self.gamma(1, self.gamma(0, x))


def basic_construction(inclusion: Inclusion) -> Tower:
    """Build one level of the tower at ``inclusion.tol``; raises MarkovError
    for non-Markov traces."""
    return Tower(inclusion)


def iterate(tower: Tower) -> Tower:
    """Extend the tower to its second level (M2, e_M, gamma(1, ·), shift)."""
    while len(tower.levels) < 3:
        tower.extend()
    return tower


# ---------------------------------------------------------------------------
# Verification operations
# ---------------------------------------------------------------------------


def verify_tower(t: Tower) -> Report:
    """Residual checks for all level-one and level-two tower identities.

    Checks that end in a Jones projection e = P P* run on its range:
    ||A e||_F = ||A P||_F because P* has orthonormal rows, and A P comes from
    :meth:`GnsSpace.act` without forming A.  e x e = E(x) e is read through
    the range of e, at both levels (:func:`_compression_residual`): its part
    in the range from kernels of P, that off it from the coordinates of E(x)
    in the algebra below, one stacked expectation per chunk of blocks.
    Elements of M1 and M2 are read
    in the frames of an algebra that holds them, weighted by sqrt(m_j) so that
    the coordinates are Hilbert-Schmidt isometric: ranks, residuals and
    distances keep their meaning, and no dense basis above level 1 is built.
    The span of M e_N M is decided by its rank, from singular values alone
    (:func:`_level1_span_report`).
    Every family of elements (a basis, the samples of a check) goes through
    the GNS maps as one stack; sampled elements are drawn on the corners
    (:meth:`StarAlgebra.random_hermitian`).
    """
    tol = t.tol
    rep = Report()
    inc = t.inclusion
    gns, e1, p1 = t.gns, t.jones1, t.levels[1].jones_range
    pi = gns.left
    exp = inc.expectation
    basis = inc.big.basis
    # pi(x) over the basis of M, and pi(x) P, so that pi(x) e1 pi(y) = (pi(x) P)(pi(y) P)*
    images = pi(basis)
    ranged = gns.act(basis, p1)

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
    small = inc.small.basis
    rep.add(
        "compression_is_expectation",  # e x e = E(x) e
        _compression_residual(gns, p1, exp, small, _range_parts(gns, p1, small)),
        tol.bound(1.0),
    )
    rng = la.rng_from(_PAIR_SEED + 1)
    a, x, b = (alg.random_hermitian(rng, 6) for alg in (inc.small, inc.big, inc.small))
    rep.add("expectation_bimodule", _largest(exp(a @ x @ b) - a @ exp(x) @ b), tol.bound(1.0) * 10)
    rep.add("jones1_commutes_with_small", _frame_distance(t.n_rep, e1, commutant=True), tol.bound(1.0))
    rep.add(
        "jones1_conjugation_invariant",
        la.frobenius_distance(gns._conjugate(e1, operator=True), e1),
        tol.bound(1.0),
    )

    rep.merge(_level1_span_report(t, tol, images, ranged))
    rep.add(
        "markov_restriction",
        float(np.abs(t.trace1(images) - inc.trace(basis)).max()),
        tol.bound(1.0) * inc.big.dim,
    )
    idx = inc.index
    rep.add(
        "markov_expectation_of_jones",
        la.frobenius_distance(t.expect_onto_m(e1), la.eye(t.gns.dim) / idx),
        tol.bound(1.0),
    )
    idx1 = index_from_matrix(inclusion_matrix(t.m_rep, t.level1), tol)
    rep.add_flag(
        "index_matches_level1",
        abs(idx1 - idx) <= tol.bound(idx),
        detail=f"[M:N]={idx}, [M1:M]={idx1}",
    )

    (on_jones,) = _entanglement_gaps(t, p1)
    rep.add("relative_commutant_entanglement", _largest(on_jones), tol.bound(1.0))  # x e = gamma0(x) e

    iterate(t)
    gns1, p2 = t.gns1, t.levels[2].jones_range
    e2 = t.jones2
    e1_up = gns1.left(e1)
    # one pass over pi(M) on the range of e_M feeds both of its level-two checks
    parts = _range_parts(gns1, p2, images)
    rep.add(
        "jones2_commutes_with_m",  # the level-two fact e_M ∈ M'
        float(np.sqrt(2.0 * np.max(np.diagonal(parts[1]).real))),
        tol.bound(1.0),
    )
    rep.add(
        "jones2_conjugation_invariant",
        la.frobenius_distance(gns1._conjugate(e2, operator=True), e2),
        tol.bound(1.0),
    )
    rep.add(
        "compression_is_expectation_level2",  # e_M x e_M = E_M(x) e_M on M1
        _compression_residual(gns1, p2, t.expect_onto_m, images, parts),
        tol.bound(1.0) * t.level1.dim,
    )
    # with e_M = P P*: e_N e_M e_N = (e_N P)(e_N P)*, and ||e_M e_N e_M - e_M / idx||_F
    # = ||P* e_N P - 1 / idx||_F because P is an isometry
    e1_p2 = e1_up @ p2
    rep.add(
        "temperley_lieb_first",  # e_N e_M e_N = idx^{-1} e_N
        la.frobenius_distance(e1_p2 @ la.dagger(e1_p2), e1_up / idx),
        tol.bound(1.0),
    )
    rep.add(
        "temperley_lieb_second",
        la.frobenius_distance(la.dagger(p2) @ e1_p2, la.eye(p2.shape[1]) / idx),
        tol.bound(1.0),
    )
    rep.add(
        "markov_expectation_level2",
        _markov_expectation_residual(t, idx),
        tol.bound(1.0),
    )
    # one pass over the shifted basis, a chunk at a time, feeds the entanglement and level-two checks
    to_level2 = _level2_distances(gns1, t.levels[1].upper)
    entangled = lands = image = 0.0
    for xs, shifted in _shift_chunks(t):
        entangled = max(entangled, _shift_entanglement_residual(t, xs, shifted))
        chunk_lands, chunk_image = to_level2(shifted)
        lands, image = max(lands, float(np.max(chunk_lands))), max(image, float(np.max(chunk_image)))
    rep.add("shift_entanglement", entangled, tol.bound(1.0))  # e_N x e_M = e_N shift(x) e_M
    rep.merge(_shift_isomorphism_report(t, tol, lands, image))
    return rep


def _level1_span_report(t: Tower, tol: Tolerance, images: np.ndarray, ranged: np.ndarray) -> Report:
    """level1 is the span of {x e y} over the basis of M, and trace1(x e y) = tau(x y).

    ``images`` is pi over the basis of M and ``ranged`` is pi(x) P, so that
    x e y = (pi(x) P)(pi(y) P)*.  The rank of the span is read in the
    isometric corner coordinates of level1 (:func:`_pair_coordinates`), from
    singular values alone (:func:`_row_rank`).  The units of level1 then lie
    at distance sqrt(dim level1 - rank) from the span, exactly: for
    orthonormal rows V of the span that is ||V* V - 1||_F, the distance of a
    projection of that rank to the identity.  The corner coordinates see only
    the part of x e y in level1, so the membership residual also holds the
    distance of e and of every pi(x) to level1, which puts each x e y there.
    """
    rep = Report()
    inc, level1 = t.inclusion, t.level1
    coords = _pair_coordinates(level1, ranged)
    rank = _row_rank(coords, tol)
    rep.add_flag("level1_spanned_by_compressions", rank == level1.dim)
    rep.add(
        "level1_span_membership",  # the units of level1 against the span
        max(
            float(np.sqrt(level1.dim - rank)),
            float(_frame_distance(level1, np.concatenate([t.jones1[None], images])).max()),
        ),
        tol.bound(1.0) * level1.dim,
    )
    # trace1 is Tr(rho .) with rho central in level1: sum_j m_j Tr(rhobar_j xbar_j)
    rho = _corners(level1, t.levels[1].density)
    rows = np.concatenate([np.sqrt(m) * c.T.ravel() for (_, m), c in zip(level1.blocks, rho)])
    xs = inc.big.basis
    taus = np.einsum("xik,yki->xy", np.matmul(inc.trace.density, xs), xs).ravel()
    rep.add(
        "tr1_defining_relation",
        float(np.abs(coords @ rows - taus).max()),
        tol.bound(1.0) * inc.big.dim,
    )
    return rep


def _range_parts(gns: GnsSpace, p: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P* pi(x) P over the stack xs of elements of the algebra of ``gns``,
    and the Gram matrix of the (1 - P P*) pi(x) P, from :meth:`GnsSpace.act`.
    For Hermitian x and e = P P*, ||[e, pi(x)]||_F is sqrt(2) times the root
    of the Gram matrix's diagonal entry at x."""
    lifted = gns.act(xs, p)
    inside = la.dagger(p) @ lifted
    lifted -= p @ inside
    outside = lifted.reshape(len(xs), -1)
    return inside, np.conj(outside) @ outside.T


def _entanglement_gaps(t: Tower, *vectors: np.ndarray) -> list[np.ndarray]:
    """(pi(x) - gamma0(x)) v over the basis x of N' ∩ M, for each family of
    GNS vectors v: the entanglement relation x e = gamma0(x) e on the range
    of e1, and perfect correlation on the image of N."""
    rc = t.rel_comm.basis
    gammas = t.gamma0(rc)
    return [t.gns.act(rc, v) - gammas @ v for v in vectors]


def _largest(stack: np.ndarray) -> float:
    """The largest Frobenius norm in a stack of matrices."""
    return float(la.frobenius_norms(stack).max())


def _pair_coordinates(alg: StarAlgebra, a: np.ndarray) -> np.ndarray:
    """The coordinates of a_x a_y* in ``alg`` for every pair (x, y) of the
    stack a, one row per pair, x-major.

    Block j holds sqrt(m_j) times the corner of W_j* a_x a_y* W_j, (a, b)
    a-major, so the coordinates of an element of ``alg`` are HS isometric.
    The corner factors as (W_j* a_x)(W_j* a_y)* summed over the multiplicity
    leg, so no product a_x a_y* is formed.
    """
    n, parts = len(a), []
    for j, (d, m) in enumerate(alg.blocks):
        g = _adjoint_dot(alg, j, a).reshape(n * d, -1)
        pairs = (g @ la.dagger(g)).reshape(n, d, n, d).transpose(0, 2, 1, 3)
        parts.append(pairs.reshape(n * n, d * d) / np.sqrt(m))
    return np.hstack(parts)


def _row_rank(rows: np.ndarray, tol: Tolerance) -> int:
    """The rank of the rows, with the cut of :func:`la.span_onb` on their
    singular values.  A tall stack is first reduced to its triangular factor,
    which has the same singular values."""
    if rows.shape[0] > rows.shape[1]:
        rows = np.linalg.qr(rows, mode="r")
    return int(np.sum(np.linalg.svd(rows, compute_uv=False) > tol.abs))


def _markov_expectation_residual(t: Tower, idx: float) -> float:
    """||E(e_M) - 1 / idx||_F for the trace2-preserving expectation E onto M1.

    E(x) = P(x rho) P(rho)^{-1} (:func:`conditional_expectation_onto`) with P
    the projection onto ``levels[2].upper``, M1's own left action on its GNS
    space: its corners are the diagonal blocks of an operator, averaged over
    the second leg, and block j has multiplicity d_j.  With e_M = P2 P2*, the
    block of e_M rho is P2 (rho P2)* on its rows and columns, so neither
    e_M rho nor a basis of M1 is formed.
    """
    lvl = t.levels[2]
    gns, rho, p = lvl.gns, lvl.trace.density, lvl.jones_range
    rho_p = rho @ p
    total = 0.0
    for (d, _), sl in zip(gns.algebra.blocks, gns._slices):
        corner = np.trace((p[sl] @ la.dagger(rho_p[sl])).reshape(d, d, d, d), axis1=1, axis2=3) / d
        scale = np.trace(rho[sl, sl].reshape(d, d, d, d), axis1=1, axis2=3) / d
        gap = corner @ np.linalg.inv(scale) - la.eye(d) / idx
        total += d * la.frobenius_norms(gap) ** 2
    return float(np.sqrt(total))


def _level2_distances(gns: GnsSpace, sub: StarAlgebra) -> Callable[[np.ndarray], tuple]:
    """The map taking an operator S on ``gns``, the GNS space of an algebra
    A, to (lands, image): lands is the Frobenius distance of S to A' and
    image that to A' ∩ B, for B the commutant of the right action of
    ``sub`` ⊆ A.  image bounds the distance of S to B from above and equals
    it for S in A'.  For a stack of operators, the arrays of their distances.

    In GNS coordinates A' is (+)_j 1_{d_j} (x) M_{d_j}, so one pass over the
    diagonal blocks gives lands and the projection (+)_j 1 (x) X_j of S onto
    A'.  A' and B are the commutants of left(A) and of right(sub), which
    commute, so the projections onto A' and B commute and their product
    projects onto A' ∩ B: image^2 = lands^2 + ||(+)_j 1 (x) X_j - its part
    in B||^2.  On block j the right action of y is 1 (x) ybar_j^T, and
    ybar_j = F_j ((+)_i y_i (x) 1_{r_ij}) F_j* for F_j the unit frames of
    ``sub`` in block j, columns (i, p, s).  So 1 (x) X_j lies in B when
    conj(F_j)* X_j conj(F_j) lies in (+)_i 1_{e_i} (x) M_{r_ij}, and the
    second term is sum_j d_j times the squared distance of that d_j x d_j
    corner to this layout.
    """
    frames = gns.unit_frames(sub)  # [i][j]: (d_j, e_i, r_ij)
    layout = [(d, d) for d, _ in gns.algebra.blocks]
    changes, corner_layouts = [], []  # per block j: conj(F_j), and the pairs (e_i, r_ij) with r_ij > 0
    for j, (d, _) in enumerate(layout):
        row = [fs[j] for fs in frames]
        changes.append(np.conj(np.concatenate([f.reshape(d, -1) for f in row], axis=1)))
        corner_layouts.append([f.shape[1:] for f in row if f.shape[2]])

    def distances(s: np.ndarray) -> tuple:
        lands_sq, means = _layout_split(s, layout, commutant=True)
        image_sq = lands_sq + sum(
            d * _layout_distance(la.dagger(u) @ x @ u, lay, commutant=True) ** 2
            for (d, _), u, lay, x in zip(layout, changes, corner_layouts, means)
        )
        return np.sqrt(lands_sq), np.sqrt(image_sq)

    return distances


def _compression_residual(
    gns: GnsSpace, p: np.ndarray, expect: Superoperator, subs: np.ndarray, parts: tuple[np.ndarray, np.ndarray]
) -> float:
    """max over the basis x of the algebra of ``gns`` of a bound on
    ||P P* pi(x) P - pi(E x) P||_F (= ||e pi(x) e - pi(E x) e||_F, e = P P*);
    ``subs`` is a basis of the range B of E, ``parts`` its :func:`_range_parts`.

    With E x = sum_b c_b b + R, the first term the HS projection onto B, the
    square splits along e and 1 - e into ||S - T||_F^2, S = P* pi(x) P and
    T = sum_b c_b P* pi(b) P, and c* G c, G the Gram matrix of the
    (1 - e) pi(b) P.  S is read off the kernels sum_b P_j[a, b]* P_j[c, b],
    the images of the units f_ac, in the combinations that build the basis.
    R adds ||R||_F ||P||_F, and s = ||P* P - 1||_F adds s ||S + T||_F / 2, as
    the exact square exceeds the split one by Re tr((S - T)* (P* P - 1) (S + T)):
    the bound is never below the dense residual, and equal to it, to
    rounding, for an isometry P and E into B.

    The images S of the units need the blocks of the algebra one at a time;
    the rest runs once per chunk of consecutive blocks, whose rows of S, T,
    E x and sum_b c_b b hold at most ``_SHIFT_CHUNK`` entries together, or
    one larger block alone.
    """
    xs, r = gns.algebra.basis, p.shape[1]
    inside, gram = parts[0].reshape(len(subs), -1), parts[1]
    flat = subs.reshape(len(subs), -1)
    dual = np.linalg.inv(np.conj(flat) @ flat.T) @ np.conj(flat)  # coordinates against subs
    skew, size = la.frobenius_distance(la.dagger(p) @ p, la.eye(r)) / 2, np.linalg.norm(p)
    step = max(1, _SHIFT_CHUNK // (2 * (r * r + flat.shape[1])))
    chunks: list[list] = []
    for block in zip(gns.algebra.blocks, gns._slices):
        if chunks and block[1].stop - chunks[-1][0][1].start <= step:
            chunks[-1].append(block)
        else:
            chunks.append([block])
    worst = 0.0
    for chunk in chunks:
        start, stop = chunk[0][1].start, chunk[-1][1].stop
        compressed = np.empty((stop - start, r * r), dtype=complex)
        for (d, m), sl in chunk:
            legs = p[sl].reshape(d, d, r).transpose(0, 2, 1).reshape(d * r, d)  # rows (a, s), columns b
            kernel = (np.conj(legs) @ legs.T).reshape(d, r, d, r).transpose(0, 2, 1, 3).reshape(d, d, -1)
            upper, lower = _upper_pairs(d)
            units = kernel[np.arange(d), np.arange(d)], kernel[upper, lower], kernel[lower, upper]
            _hermitian_combinations(*units, m, compressed[sl.start - start : sl.stop - start])
        ys = expect(xs[start:stop]).reshape(stop - start, -1)
        coords = dual @ ys.T
        images = coords.T @ inside
        out_sq = np.einsum("bx,bx->x", np.conj(coords), gram @ coords).real
        bound = np.hypot(np.linalg.norm(compressed - images, axis=1), np.sqrt(np.maximum(out_sq, 0.0)))
        bound += skew * np.linalg.norm(compressed + images, axis=1)
        bound += size * np.linalg.norm(ys - coords.T @ flat, axis=1)
        worst = max(worst, float(np.max(bound)))
    return worst


def _shift_chunks(t: Tower) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The basis of N' ∩ M and its image under the public :meth:`Tower.shift`,
    in chunks of at most ``_SHIFT_CHUNK`` entries of the level-two GNS
    dimension, so that no stack of the whole shifted basis is held."""
    basis = t.rel_comm.basis
    step = max(1, _SHIFT_CHUNK // t.gns1.dim**2)
    for start in range(0, len(basis), step):
        xs = basis[start : start + step]
        yield xs, t.shift(xs)


def _shift_entanglement_residual(t: Tower, xs: np.ndarray, shifted: np.ndarray) -> float:
    """max over the stack ``xs`` in N' ∩ M of ||e_N (pi1(pi(x)) - shift(x)) e_M||_F,
    where ``shifted`` stacks :meth:`Tower.shift` over ``xs``.

    With e_M = P P* this is ||e_N (pi1(pi(x)) - shift(x)) P||_F: pi1(pi(x)) P
    comes from :meth:`GnsSpace.act`, and e_N, an element of M1, acts through
    its corners on the columns of the whole stacked difference at once.
    """
    p2 = t.levels[2].jones_range
    gap = t.gns1.act(t.gns.left(xs), p2) - shifted @ p2
    k, dim, r = gap.shape
    ranged = t.gns1.act(t.jones1[None], gap.transpose(1, 0, 2).reshape(dim, -1))[0]
    return _largest(ranged.reshape(dim, k, r).transpose(1, 0, 2))


def _gns_inner_residual(t: Tower) -> float:
    """max over 20 drawn pairs (x, y) in M of |<y, x> - tau(y* x)| and of the
    norm of pi(x) Lambda(y) - Lambda(x y), with the GNS maps on the stacks."""
    big, gns = t.inclusion.big, t.gns
    rng = la.rng_from(_PAIR_SEED + 2)
    xs, ys = big.random_hermitian(rng, 20), big.random_hermitian(rng, 20)
    vx, vy = gns.vector(xs), gns.vector(ys)
    inner = np.abs(np.einsum("ki,ki->k", np.conj(vy), vx) - t.inclusion.trace(la.dagger(ys) @ xs))
    acts = np.linalg.norm(np.einsum("kij,kj->ki", gns.left(xs), vy) - gns.vector(xs @ ys), axis=1)
    return float(max(inner.max(), acts.max()))


def _shift_isomorphism_report(t: Tower, tol: Tolerance, lands: float, image: float) -> Report:
    """The shift and gamma maps as (anti-)isomorphisms; ``lands`` and
    ``image`` are the largest level-two distances of the shift over the
    basis of N' ∩ M, from :func:`verify_tower`.

    gamma1 = gns1.right places (+)_j 1_{d_j} (x) c_j^T for c_j the corners
    of its argument in M1, and ||(+)_j 1_{d_j} (x) z_j||_F^2 =
    sum_j d_j ||z_j||_F^2, so the gamma1 identities on the samples are read
    off the corners of their gamma0 images: shift(xy) - shift(x) shift(y)
    has the corners c_j(gamma0(xy)) - c_j(gamma0(y)) c_j(gamma0(x)), and
    likewise for the star and for gamma1 anti-multiplicative.  No operator
    at the level-two GNS dimension is formed for them.  The level-two
    memberships take one pass over each chunk of shifted operators
    (:func:`_level2_distances`); ``shift_image_in_level2`` is the distance
    to M1' ∩ M2, an upper bound on that to M2, and equal to it on M1'.
    """
    rep = Report()
    rc = t.rel_comm
    rep.add(
        "shift_unital",
        la.frobenius_distance(t.shift(rc.unit), la.eye(t.gns1.dim)),
        tol.bound(1.0),
    )
    rng = la.rng_from(_PAIR_SEED + 3)
    xs, ys = rc.random_hermitian(rng, 6), rc.random_hermitian(rng, 6)
    gx, gy, gxy, gxd = np.moveaxis(t.gamma0(np.stack([xs, ys, xs @ ys, la.dagger(xs)], axis=1)), 1, 0)
    anti0 = _largest(gxy - gy @ gx)
    star0 = _largest(gxd - la.dagger(gx))
    mult = star = anti1 = 0.0
    for (d, _), (cx, cy, cxy, cxd, c_anti) in zip(
        t.level1.blocks, _corners(t.level1, np.stack([gx, gy, gxy, gxd, gx @ gy]))
    ):
        mult = mult + d * la.frobenius_norms(cxy - cy @ cx) ** 2
        star = star + d * la.frobenius_norms(cxd - la.dagger(cx)) ** 2
        anti1 = anti1 + d * la.frobenius_norms(c_anti - cx @ cy) ** 2
    rep.add("shift_multiplicative", np.sqrt(mult.max()), tol.bound(1.0) * 10)
    rep.add("shift_star_preserving", np.sqrt(star.max()), tol.bound(1.0) * 10)
    rep.add("gamma0_anti_multiplicative", anti0, tol.bound(1.0) * 10)
    rep.add("gamma0_star_preserving", star0, tol.bound(1.0) * 10)
    rep.add("gamma1_anti_multiplicative", np.sqrt(anti1.max()), tol.bound(1.0) * 10)
    # M1 is generated by the represented M and the first Jones projection, so
    # commuting with both is lying in the commutant of M1 on its GNS space.
    # M2 is the commutant of the right action of M there.
    rep.add("shift_lands_in_level2_commutant", lands, tol.bound(1.0) * t.level1.dim)
    rep.add("shift_image_in_level2", image, tol.bound(1.0) * t.level2.dim)
    return rep


def verify_epr(t: Tower) -> Report:
    """Entanglement checks: the two commutation lemmas plus perfect correlation."""
    tol = t.tol
    rep = Report()
    # any unit vector in the image of N is perfectly correlated
    small = t.inclusion.small
    y = small.random_hermitian(la.rng_from(_PAIR_SEED + 4))
    psi = t.gns.vector(np.stack([small.unit, y])).T
    psi[:, 1] /= np.linalg.norm(psi[:, 1])
    on_jones, on_psi = _entanglement_gaps(t, t.levels[1].jones_range, psi)
    rep.add("left_right_on_jones", _largest(on_jones), tol.bound(1.0))  # gamma0 is pi_r
    iterate(t)
    rep.add(
        "shift_on_second_jones",
        max(_shift_entanglement_residual(t, xs, shifted) for xs, shifted in _shift_chunks(t)),
        tol.bound(1.0),
    )
    rep.add("perfect_correlation", float(np.linalg.norm(on_psi, axis=1).max()), tol.bound(1.0))
    return rep


def normalizer_check(t: Tower, u: np.ndarray) -> bool:
    """Whether a unitary u in M normalises N.

    Three equivalent formulations are evaluated — conjugation stability of
    the subalgebra, equivariance of the conditional expectation, and the
    right-regular identity for u e_N u* — and must agree; disagreement
    means a library bug, not a property of u.
    """
    return _normaliser_votes(t, np.asarray(u, dtype=complex)[None], t.tol)[0]


def _normaliser_votes(t: Tower, us: np.ndarray, tol: Tolerance) -> list[bool]:
    """:func:`normalizer_check` for every unitary of the stack ``us`` at once.

    The equivariance vote uses the same six fixed-seed elements of M for
    every u and every call, drawn once per inclusion
    (:func:`_equivariance_sample`); each vote is one stacked expectation,
    membership or GNS map.
    """
    inc = t.inclusion
    small, big, exp = inc.small, inc.big, inc.expectation
    # the rules of la.is_unitary and StarAlgebra.contains, for the stack at once
    if (
        us.shape[-2:] != (big.ambient_dim,) * 2
        or not np.isfinite(us).all()
        or not np.all(la.is_unitary(us, tol))
        or np.any(big.membership_residual(us) > tol.bound(la.frobenius_norms(us)))
    ):
        raise NormaliserError("normaliser candidates must be unitaries in M")
    # (len(us), 1, n, n) stacks broadcast against N's column units, which Ad u* must keep in N
    u_star, u_col = la.dagger(us)[:, None], us[:, None]
    conj = u_star @ _generators(small) @ u_col
    conj_stable = np.all(small.membership_residual(conj) <= tol.bound(la.frobenius_norms(conj)), axis=1)
    xs, exs = _equivariance_sample(inc)
    lhs = u_star @ exs @ u_col
    gap = la.frobenius_norms(lhs - exp(u_star @ xs @ u_col))
    equivariant = np.all(gap <= tol.bound(la.frobenius_norms(lhs)) * 10, axis=1)
    jones_gap = _jones_gaps(t, us)
    votes = []
    for stable, equi, jones in zip(conj_stable, equivariant, jones_gap):
        three = [bool(stable), bool(equi), bool(jones <= tol.bound(1.0) * 10)]
        if len(set(three)) != 1:
            raise InternalError(f"normaliser criteria disagree: {three}")
        votes.append(bool(stable))
    return votes


def _equivariance_sample(inc: Inclusion) -> tuple[np.ndarray, np.ndarray]:
    """The six fixed-seed Hermitian elements x of M that the equivariance vote
    of :func:`_normaliser_votes` reads, and their expectations E(x), read-only.
    They depend on the inclusion alone, so they are drawn once and kept on
    it, as its index is."""
    if "_equivariance_sample" not in vars(inc):
        xs = inc.big.random_hermitian(la.rng_from(_PAIR_SEED + 5), 6)
        sample = xs, inc.expectation(xs)
        for x in sample:
            x.flags.writeable = False
        inc._equivariance_sample = sample
    return inc._equivariance_sample


def _jones_gaps(t: Tower, us: np.ndarray) -> np.ndarray:
    """||pi(u) e1 pi(u)* - R(u) e1 R(u)*||_F for the u of ``us``, R(u) = J pi(u*) J, as
    sqrt(2) ||B - A A* B||_F for the isometries A = pi(u) P and B = R(u) P of one rank,
    e1 = P P*: two :meth:`GnsSpace.act` stacks, and never a difference of norms."""
    gns, p = t.gns, t.levels[1].jones_range
    a = gns.act(us, p)
    b = np.conj(gns.act(la.dagger(us), gns._conjugate(p)))[:, gns._swap]
    return np.sqrt(2.0) * la.frobenius_norms(b - a @ (la.dagger(a) @ b))


def verify_tracial_entangled_state(t: Tower, u: np.ndarray, psi: np.ndarray | None = None) -> Report:
    """Tracial restricted vector state and EPR-double identity for u* psi.

    ``psi`` is a unit vector in the GNS image of N (the image of the unit
    by default); ``u`` must normalise N.
    """
    tol = t.tol
    if not normalizer_check(t, u):
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
    px, py = (t.gns.left(rc.random_hermitian(rng, _TRACIAL_SAMPLES)) for _ in range(2))
    tracial = np.abs(((px @ py - py @ px) @ xi) @ xi.conj()).max()  # <xi, [x, y] xi>
    rep.add("restricted_state_tracial", float(tracial), tol.bound(1.0) * 10)
    double = 0.0
    for x in rc.basis:
        lhs = t.gamma0(u @ x @ la.dagger(u)) @ xi
        rhs = t.gns.left(x) @ xi
        double = max(double, float(np.linalg.norm(lhs - rhs)))
    rep.add("epr_double_identity", double, tol.bound(1.0))
    return rep
