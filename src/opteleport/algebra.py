"""Concrete finite-dimensional *-algebras of matrices.

A :class:`StarAlgebra` is a unital *-subalgebra of some ``M_n(C)`` stored
as its structure: a block layout ``[(n_j, m_j)]`` and per-block frames
``W_j`` with ``A = W (+)_j (M_{n_j} (x) 1_{m_j}) W*``.  Central and minimal
projections, matrix units and the canonical HS-orthonormal self-adjoint
basis are derived from the frames on first use, which keeps every
downstream construction deterministic and leaves large algebras without a
dense (dim, n, n) stack unless a query needs one.

Traces are represented by their block weight vectors; evaluation goes
through the central density ``rho`` with ``tau(x) = Tr(rho x)``.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np

from . import linalg as la
from .errors import (
    InternalError,
    NotScalarError,
    PreconditionError,
    StructureError,
    TraceError,
)
from .linalg import DEFAULT_TOL, Tolerance

# Structure discovery draws its generic elements from a fixed internal seed,
# so that rebuilt algebras are bit-identical.
_STRUCTURE_SEED = 0x5EED
_MAX_DRAWS = 8


class StarAlgebra:
    """Unital *-subalgebra of M_n(C) with explicit block structure.

    Attributes
    ----------
    ambient_dim:
        n, the size of the carrier matrices.
    blocks:
        list of ``(block_dim, multiplicity)`` pairs, sorted canonically.
    frames:
        per block j, an ``n x (n_j m_j)`` isometry whose columns are indexed
        ``(a, r)``, a-major; together they form a unitary.  The matrix unit
        ``f_ab`` of block j is ``sum_r W[:, (a, r)] W[:, (b, r)]*``.

    Derived on first use and cached: ``central_projections``, ``unit``,
    ``matrix_units`` (per block a ``(n_j, n_j, n, n)`` array, indexed
    ``f[a][b]``) and ``basis``, the self-adjoint HS-orthonormal spanning
    stack of shape (dim, n, n).

    An algebra holds no tolerance: :meth:`contains`, :meth:`same_span` and
    :meth:`commuting_product` gate at the caller's, ``Inclusion.tol`` for an
    inclusion and everything built on it.
    """

    def __init__(self, ambient_dim: int, blocks: list[tuple[int, int]], frames: list[np.ndarray]) -> None:
        self.ambient_dim = int(ambient_dim)
        self.blocks = [(int(n), int(m)) for n, m in blocks]
        self.frames = [np.asarray(w, dtype=complex) for w in frames]
        n = self.ambient_dim
        w = np.hstack(self.frames) if self.frames else np.zeros((n, 0), dtype=complex)
        if (
            w.shape != (n, n)
            or [f.shape[1] for f in self.frames] != [d * m for d, m in self.blocks]
            or np.linalg.norm(la.dagger(w) @ w - la.eye(n)) > 1e-6 * n
        ):
            raise StructureError("algebra unit is not the ambient identity")

    # -- constructors -------------------------------------------------------

    @classmethod
    def trivial(cls, n: int) -> "StarAlgebra":
        """C * 1_n."""
        return cls(n, [(1, n)], [la.eye(n)])

    @classmethod
    def full(cls, n: int) -> "StarAlgebra":
        """All of M_n(C)."""
        return cls(n, [(n, 1)], [la.eye(n)])

    @classmethod
    def diagonal(cls, n: int) -> "StarAlgebra":
        """The diagonal maximal abelian subalgebra of M_n(C)."""
        return cls.block_diagonal([(1, 1)] * n)

    @classmethod
    def block_diagonal(cls, layout: Sequence[tuple[int, int]]) -> "StarAlgebra":
        """Direct sum of M_{n_j} x 1_{m_j} blocks embedded contiguously.

        Each block occupies ``n_j * m_j`` coordinates arranged as
        C^{n_j} (x) C^{m_j}, matrix factor first.
        """
        n = sum(bd * m for bd, m in layout)
        cuts = np.cumsum([bd * m for bd, m in layout])[:-1]
        return cls(n, list(layout), np.split(la.eye(n), cuts, axis=1))

    @classmethod
    def from_generators(
        cls,
        mats: Sequence[np.ndarray],
        ambient_dim: int,
        tol: Tolerance = DEFAULT_TOL,
    ) -> "StarAlgebra":
        """Smallest unital *-algebra containing the generators.

        Each nonzero generator is scaled to unit Frobenius norm, which does
        not change the algebra it generates but keeps every membership test
        meaningful at any input scale.  The generic elements that
        :func:`_discover` splits are products of random combinations of 1,
        the generators and their adjoints, two letters long at first; the
        length doubles on each redraw, up to 2n letters.
        """
        n = int(ambient_dim)
        seed = [la.as_matrix(m) for m in mats]
        for m in seed:
            if m.shape != (n, n):
                raise PreconditionError(f"generator shape {m.shape} != ({n}, {n})")
        seed = [m / nrm if (nrm := np.linalg.norm(m)) > 0 else m for m in seed]
        letters = np.stack([la.eye(n)] + seed + [la.dagger(m) for m in seed])

        def draw(rng: np.random.Generator, attempt: int) -> np.ndarray:
            word = la.eye(n)
            for _ in range(min(2 ** (attempt + 1), 2 * n)):
                f = np.tensordot(_gaussian(rng, len(letters)), letters, axes=1)
                word = word @ (f / np.linalg.norm(f))
            return word

        return _discover(n, draw, seed, None, tol)

    @classmethod
    def from_span(cls, onb: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> "StarAlgebra":
        """Structure of a span that is a unital *-algebra, from random
        combinations of the span; any other span raises :class:`StructureError`."""
        return _discover(
            onb.shape[1],
            lambda rng, _: np.tensordot(_gaussian(rng, len(onb)), onb, axes=1),
            onb,
            len(onb),
            tol,
        )

    @classmethod
    def commuting_product(
        cls, a: "StarAlgebra", b: "StarAlgebra", tol: Tolerance = DEFAULT_TOL
    ) -> "StarAlgebra":
        """The algebra a ∨ b generated by two commuting subalgebras of one ambient.

        Commutation is gated cheaply at ``tol``: the column units of b, which
        generate it, must lie in the commutant of a, read in the frame coordinates
        of a (:func:`_commutation_gap`), or :class:`PreconditionError` is raised.
        The algebra itself is built by :func:`_commuting_product`, which a
        caller that has already passed such a gate may call directly.
        """
        clash = _commutation_gap(a, b)
        if clash > tol.bound(1.0) * 10:
            raise PreconditionError(f"commuting product of non-commuting algebras ({clash:.2e})")
        return _commuting_product(a, b)

    @classmethod
    def tensor(cls, *factors: "StarAlgebra") -> "StarAlgebra":
        """Tensor product, blocks combined pairwise in factor order.

        The frame of a block pair is the Kronecker product of the two frames
        with its column legs regrouped from ((a, r), (a', r')) to
        ((a, a'), (r, r')).
        """
        left = factors[0]
        for right in factors[1:]:
            n = left.ambient_dim * right.ambient_dim
            blocks: list[tuple[int, int]] = []
            frames: list[np.ndarray] = []
            for (dl, ml), wl in zip(left.blocks, left.frames):
                for (dr, mr), wr in zip(right.blocks, right.frames):
                    w = la.kron(wl, wr).reshape(n, dl, ml, dr, mr).transpose(0, 1, 3, 2, 4)
                    blocks.append((dl * dr, ml * mr))
                    frames.append(w.reshape(n, -1))
            left = cls(n, blocks, frames)
        return left

    def image(self, phi: Callable[[np.ndarray], np.ndarray], ambient_dim: int) -> "StarAlgebra":
        """Image under a unital injective *-homomorphism into M_{ambient_dim}.

        Structure is propagated: the units f_{a0} map to units, block
        dimensions are unchanged, multiplicities are re-read from the ranks
        of the mapped corner projections, and the frame is read off the
        mapped units, so phi is applied to n_j elements per block.
        """
        blocks: list[tuple[int, int]] = []
        frames: list[np.ndarray] = []
        for (bd, _), w in zip(self.blocks, self.frames):
            g = [phi(f) for f in _column_units(w, bd)]
            rank = float(np.trace(g[0]).real)
            mult = int(round(rank))
            if abs(rank - mult) > 1e-6:
                raise StructureError("image multiplicity is not an integer")
            blocks.append((bd, mult))
            frames.append(_frame_from(g, g[0], mult))
        return StarAlgebra(ambient_dim, blocks, frames)

    def anti_image(
        self, phi: Callable[[np.ndarray], np.ndarray], ambient_dim: int
    ) -> "StarAlgebra":
        """Image under a unital injective *-anti-homomorphism.

        Anti-multiplicativity swaps the matrix-unit indices, so
        ``g[a][b] = phi(f[b][a]) = phi(f[a][b]*)`` is again a system of
        matrix units: the image of the *-homomorphism ``x -> phi(x*)``.
        """
        return self.image(lambda x: phi(la.dagger(x)), ambient_dim)

    # -- derived structure ---------------------------------------------------

    @cached_property
    def central_projections(self) -> list[np.ndarray]:
        """The minimal central projections z_j = W_j W_j*, aligned with ``blocks``."""
        return [w @ la.dagger(w) for w in self.frames]

    @cached_property
    def unit(self) -> np.ndarray:
        return sum(self.central_projections)

    def minimal_projection(self, block: int) -> np.ndarray:
        """f_00 of the block: the frame columns with a = 0."""
        w = self.frames[block][:, : self.blocks[block][1]]
        return w @ la.dagger(w)

    @cached_property
    def matrix_units(self) -> list[np.ndarray]:
        out = []
        for (d, m), w in zip(self.blocks, self.frames):
            legs = _legs(w, d)
            out.append(np.matmul(legs[:, None], la.dagger(legs)[None, :]))
        return out

    @cached_property
    def basis(self) -> np.ndarray:
        """Self-adjoint HS-orthonormal basis, blockwise: the f_aa / sqrt(m),
        then for each a < b the symmetric and antisymmetric combinations
        of f_ab and f_ba."""
        n = self.ambient_dim
        out = np.empty((self.dim, n, n), dtype=complex)
        k = 0
        for (d, m), w in zip(self.blocks, self.frames):
            legs = _legs(w, d)
            root = np.sqrt(float(m))
            out[k : k + d] = np.matmul(legs, la.dagger(legs)) / root
            upper, lower = _upper_pairs(d)
            f_ab = np.matmul(legs[upper], la.dagger(legs[lower]))
            f_ba = la.dagger(f_ab)
            scale = root * np.sqrt(2.0)
            out[k + d : k + d * d : 2] = (f_ab + f_ba) / scale
            out[k + d + 1 : k + d * d : 2] = 1j * (f_ab - f_ba) / scale
            k += d * d
        return out

    # -- basic queries -------------------------------------------------------

    @property
    def dim(self) -> int:
        return sum(d * d for d, _ in self.blocks)

    def coords(self, x: np.ndarray) -> np.ndarray:
        return la.span_coords(self.basis, x)

    def project(self, x: np.ndarray) -> np.ndarray:
        """HS-orthogonal projection onto the algebra, of a matrix or of each
        matrix of a stack of shape (..., n, n).

        The identity on all of M_n.  Otherwise dense (one gemv each way on
        the basis, 2 dim n^2 flops, a gemm for a stack) for small algebras,
        and through the frames (O(n^3), no basis) once dim > 2n: W_j times
        the average of W_j* x W_j over the multiplicity legs.
        """
        n = self.ambient_dim
        if self.dim == n * n:
            return np.array(x, dtype=complex)
        if self.dim <= 2 * n:
            return la.span_project(self.basis, x)
        return _from_corners(self, _corners(self, x))

    def random_hermitian(self, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
        """A random Hermitian element of the algebra, drawn on its corners.

        Same law as a GUE matrix of size n projected onto the algebra, which
        is a standard Gaussian in HS-orthonormal coordinates, whose corner on
        block j is a GUE matrix of size d_j scaled by 1/sqrt(m_j).  It draws
        sum_j d_j^2 Gaussian pairs instead of n^2 and needs one frame product
        per block; on ``full(n)`` it is ``la.random_hermitian(n, rng)`` bit
        for bit.  With ``count``, a (count, n, n) stack of independent draws,
        each block drawn for the whole stack at once.
        """
        corners = [la.random_hermitian(d, rng, count) / np.sqrt(m) for d, m in self.blocks]
        return _from_corners(self, corners)

    def contains(self, x: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
        return self.membership_residual(x) <= tol.bound(float(np.linalg.norm(x)))

    def membership_residual(self, x: np.ndarray) -> float | np.ndarray:
        """Frobenius distance from x to the algebra; for a stack of shape
        (..., n, n) the array of the distances of its matrices.

        Where :meth:`project` takes the frames (n^2 > dim > 2n) the distance
        is read in the frame coordinates (:func:`_frame_distance`), with no
        product back.
        """
        n = self.ambient_dim
        if 2 * n < self.dim < n * n:
            return _frame_distance(self, x)
        gap = self.project(x)
        gap -= x
        norms = la.frobenius_norms(gap)
        return float(norms) if np.ndim(x) == 2 else norms

    def same_span(self, other: "StarAlgebra", tol: Tolerance = DEFAULT_TOL) -> bool:
        """Equal dimension and ambient, and every column unit f_{a0} of
        ``self`` lies in ``other`` (:func:`_generators`), so ``self`` lies in
        ``other`` and the dimensions close it."""
        if self.dim != other.dim or self.ambient_dim != other.ambient_dim:
            return False
        return _holds(other, _generators(self), tol)

    @cached_property
    def center(self) -> "StarAlgebra":
        return StarAlgebra(self.ambient_dim, [(1, d * m) for d, m in self.blocks], self.frames)

    @cached_property
    def commutant(self) -> "StarAlgebra":
        """Relative commutant in the ambient M_n(C): the same frames with the
        two column legs swapped, ``W (+)_j (1_{n_j} (x) M_{m_j}) W*``."""
        blocks = [(m, d) for d, m in self.blocks]
        frames = [_swap_legs(w, d, m) for (d, m), w in zip(self.blocks, self.frames)]
        return _canonical(self.ambient_dim, blocks, frames)


def _legs(w: np.ndarray, d: int) -> np.ndarray:
    """The frame as a (d, n, m) stack: legs[a] holds the columns (a, r)."""
    return w.reshape(w.shape[0], d, -1).transpose(1, 0, 2)


def _corners(alg: StarAlgebra, x: np.ndarray) -> list[np.ndarray]:
    """Per block j the multiplicity average xbar_j of W_j* x W_j, for a matrix
    or a stack of matrices x; W (+)_j (xbar_j (x) 1) W* is the HS projection."""
    out = []
    for (d, m), w in zip(alg.blocks, alg.frames):
        y = (la.dagger(w) @ x @ w).reshape(*np.shape(x)[:-2], d, m, d, m)
        out.append(np.trace(y, axis1=-3, axis2=-1) / m)
    return out


def _layout_distance(
    x: np.ndarray, layout: Sequence[tuple[int, int]], commutant: bool = False
) -> float | np.ndarray:
    """The Frobenius distance of x to the algebra (+)_j M_{d_j} (x) 1_{m_j} on
    consecutive diagonal blocks, for ``layout`` the pairs (d_j, m_j), or with
    ``commutant`` to its commutant (+)_j 1_{d_j} (x) M_{m_j}.  For a stack of
    shape (..., D, D), the array of the distances of its matrices.

    The projection averages each diagonal block over the legs the algebra
    holds scalar and drops everything off the diagonal blocks; the distance
    sums the squares of what it leaves out, never a difference of norms, and
    x is left as it is.
    """
    total, _ = _layout_split(x, layout, commutant)
    return float(np.sqrt(total)) if np.ndim(x) == 2 else np.sqrt(total)


def _layout_split(
    x: np.ndarray, layout: Sequence[tuple[int, int]], commutant: bool = False
) -> tuple[float | np.ndarray, list[np.ndarray]]:
    """The squared distance of :func:`_layout_distance`, and per block the
    mean its projection keeps: the (d_j, d_j) average over the leg m_j, so
    that the projection is (+)_j mean_j (x) 1_{m_j}, or with ``commutant``
    the (m_j, m_j) average over the leg d_j, with projection
    (+)_j 1_{d_j} (x) mean_j."""
    total, o, means = 0.0, 0, []
    for d, m in layout:
        sl, end = slice(o, o + d * m), o + d * m
        off = la.frobenius_norms(x[..., sl, :o]) ** 2 + la.frobenius_norms(x[..., sl, end:]) ** 2
        total = total + off
        block = x[..., sl, sl]
        legs = block.reshape(*block.shape[:-2], d, m, d, m)
        if commutant:
            mean = np.trace(legs, axis1=-4, axis2=-2) / d
            gap = legs - la.eye(d)[:, None, :, None] * mean[..., None, :, None, :]
        else:
            mean = np.trace(legs, axis1=-3, axis2=-1) / m
            gap = legs - mean[..., :, None, :, None] * la.eye(m)[None, :, None, :]
        total = total + la.frobenius_norms(gap.reshape(block.shape)) ** 2
        means.append(mean)
        o = end
    return total, means


def _frame_distance(alg: StarAlgebra, x: np.ndarray, commutant: bool = False) -> float | np.ndarray:
    """The Frobenius distance of x, or of each matrix of a stack, to ``alg`` or,
    with ``commutant``, to its commutant, read in the frame coordinates
    W* x W, W = hstack(frames): W is unitary and carries the algebra onto its
    block layout (:func:`_layout_distance`)."""
    w = np.hstack(alg.frames)
    return _layout_distance(la.dagger(w) @ x @ w, alg.blocks, commutant)


def _commutation_gap(a: StarAlgebra, b: StarAlgebra) -> float:
    """The largest Frobenius distance to the commutant a' of the column units
    f_{a0} of b (:func:`_generators`); zero exactly when a and b commute.

    The units and their adjoints generate b, and a' is a *-algebra, so b
    lies in a' once the units do; an adjoint lies as far from a' as its unit.
    """
    if a.ambient_dim != b.ambient_dim:
        raise PreconditionError("commutation requires a common ambient")
    return float(np.max(_frame_distance(a, _generators(b), commutant=True)))


def _commuting_product(a: StarAlgebra, b: StarAlgebra) -> StarAlgebra:
    """a ∨ b for subalgebras a and b of one ambient that commute, ungated
    (:meth:`StarAlgebra.commuting_product` adds the gate).

    For commuting a and b, a ∨ b is the direct sum, over the block pairs
    (j, k) whose central projections satisfy z_j z_k != 0, of
    M_{d_j} (x) M_{d_k} with matrix units ``f_a[p][q] @ f_b[r][s]``; its
    frame is read off the units ``f_a[p][0] @ f_b[r][0]``, applied factor by
    factor to the range of the corner f_a[0][0] f_b[0][0], which is found
    inside the range of f_a[0][0]; the units themselves are never formed.
    Pairs with z_j z_k = 0 (the two algebras share central projections, e.g.
    a centre of a contained in b) add nothing and are skipped, so the
    structure needs no rediscovery.  A pair rank that is not a multiple of
    d_j d_k raises :class:`StructureError`.
    """
    blocks: list[tuple[int, int]] = []
    frames: list[np.ndarray] = []
    cols_a = [_column_units(w, d) for (d, _), w in zip(a.blocks, a.frames)]
    cols_b = [_column_units(w, d) for (d, _), w in zip(b.blocks, b.frames)]
    for wa, fa in zip(a.frames, cols_a):
        for wb, fb in zip(b.frames, cols_b):
            overlap = la.dagger(wa) @ wb
            rank = float(np.vdot(overlap, overlap).real)  # Tr(z_j z_k)
            if rank < 0.5:
                continue
            d = len(fa) * len(fb)
            mult = int(round(rank / d))
            if abs(rank - d * mult) > 1e-6:
                raise StructureError("commuting product multiplicity is not an integer")
            head = wa[:, : wa.shape[1] // len(fa)]  # columns (0, r): f_a[0][0] = head head*
            eta = head @ _corner_range(la.dagger(head) @ fb[0] @ head, mult)
            units = np.matmul(fa[:, None], np.matmul(fb, eta)[None]).reshape(d, -1, mult)
            blocks.append((d, mult))
            frames.append(units.transpose(1, 0, 2).reshape(a.ambient_dim, -1))
    return StarAlgebra(a.ambient_dim, blocks, frames)


def _from_corners(alg: StarAlgebra, corners: Sequence[np.ndarray]) -> np.ndarray:
    """sum_j W_j (c_j (x) 1_{m_j}) W_j*: the algebra element with the given
    corners, or the stack of them for corners of shape (..., d_j, d_j)."""
    n = alg.ambient_dim
    out = np.zeros((*np.shape(corners[0])[:-2], n, n), dtype=complex)
    for (d, m), w, c in zip(alg.blocks, alg.frames, corners):
        legs = _legs(w, d).transpose(1, 2, 0).reshape(n, -1)  # columns (r, a)
        rows = legs.reshape(n, m, d) @ c[..., None, :, :]
        out += rows.reshape(*out.shape[:-1], -1) @ la.dagger(legs)
    return out


@cache
def _upper_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(d, 1)``, the index pairs a < b of a block of size d,
    computed once per d and returned read-only."""
    upper, lower = np.triu_indices(d, 1)
    upper.flags.writeable = lower.flags.writeable = False
    return upper, lower


def _column_units(w: np.ndarray, d: int) -> np.ndarray:
    """The matrix units f_{a0}, a < d, of a block frame as a (d, n, n) stack."""
    legs = _legs(w, d)
    return np.matmul(legs, la.dagger(legs[0]))


def _generators(alg: StarAlgebra) -> np.ndarray:
    """The column units f_{a0} of every block as one (sum_j d_j, n, n) stack.
    With their adjoints they generate ``alg`` (f_ab = f_a0 f_b0*), so a
    *-algebra holds ``alg`` once it holds them."""
    return np.concatenate([_column_units(w, d) for (d, _), w in zip(alg.blocks, alg.frames)])


def _swap_legs(w: np.ndarray, d: int, m: int) -> np.ndarray:
    """Reorder frame columns from (a, r), a-major, to (r, a), r-major."""
    return w.reshape(w.shape[0], d, m).transpose(0, 2, 1).reshape(w.shape[0], -1)


def _frame_from(f_a0: Sequence[np.ndarray], corner: np.ndarray, mult: int) -> np.ndarray:
    """Frame columns f_{a0} eta_r, (a, r) a-major, with eta an orthonormal
    basis of the range of the corner projection f_00."""
    eta = _corner_range(corner, mult)
    return np.matmul(f_a0, eta).transpose(1, 0, 2).reshape(len(corner), -1)


def _corner_range(corner: np.ndarray, mult: int) -> np.ndarray:
    """Orthonormal basis of the range of a corner projection of rank ``mult``."""
    vals, vecs = np.linalg.eigh(corner)
    eta = vecs[:, vals > 0.5]
    if eta.shape[1] != mult:
        raise StructureError("corner projection rank disagrees with multiplicity")
    return eta


def _canonical(n: int, blocks: list[tuple[int, int]], frames: list[np.ndarray]) -> StarAlgebra:
    """The algebra with its blocks in canonical order: by block dimension,
    then by the rounded entries of the central projection, which are formed
    only for blocks that share their block dimension."""
    count = Counter(bd for bd, _ in blocks)
    keys = [
        (bd, tuple(np.round((w @ la.dagger(w)).real.reshape(-1), 6)) if count[bd] > 1 else ())
        for (bd, _), w in zip(blocks, frames)
    ]
    order = sorted(range(len(blocks)), key=lambda j: keys[j])
    return StarAlgebra(n, [blocks[j] for j in order], [frames[j] for j in order])


def _gaussian(rng: np.random.Generator, k: int) -> np.ndarray:
    """k independent standard complex Gaussian coefficients."""
    return rng.standard_normal(k) + 1j * rng.standard_normal(k)


def _discover(
    n: int,
    draw: Callable[[np.random.Generator, int], np.ndarray],
    members: Sequence[np.ndarray],
    dim: int | None,
    tol: Tolerance,
) -> StarAlgebra:
    """The *-algebra A of M_n split out of two generic elements of A from
    ``draw(rng, attempt)`` (see :func:`_split`), returned once it contains
    every member and, unless ``dim`` is None, has dimension ``dim``.

    The candidate is built from spectral projections and polar parts of
    elements of A, so it lies in A; containing members that generate or
    span A makes it A.  A failed candidate is redrawn from the fixed seed,
    and after ``_MAX_DRAWS`` failures :class:`StructureError` is raised: a
    result is right or an error, never silently wrong.
    """
    cut = float(np.sqrt(tol.bound(1.0)))
    rng = la.rng_from(_STRUCTURE_SEED)
    for attempt in range(_MAX_DRAWS):
        x, y = draw(rng, attempt), draw(rng, attempt)
        cand = _split(n, x + la.dagger(x), y, cut)
        if cand is not None and (dim is None or cand.dim == dim) and _holds(cand, members, tol):
            return cand
    raise StructureError(f"no {_MAX_DRAWS} generic draws split a *-algebra containing the input")


def _holds(alg: StarAlgebra, members: Sequence[np.ndarray], tol: Tolerance) -> bool:
    """Whether every member lies in ``alg``: stacked membership residuals
    against each member's own bound, n members at a time, so that no
    temporary holds more than n^3 entries."""
    n = alg.ambient_dim
    for start in range(0, len(members), n):
        chunk = np.asarray(members[start : start + n])
        if np.any(alg.membership_residual(chunk) > tol.bound(la.frobenius_norms(chunk))):
            return False
    return True


def _split(n: int, h: np.ndarray, y: np.ndarray, cut: float) -> StarAlgebra | None:
    """Murota, Kanno, Kojima and Kojima (2010): for generic Hermitian h in A
    the eigenvalue clusters split block j into d_j spectral projections of
    rank m_j, with isometries Q_a.  For generic y, Q_a* y Q_c is a nonzero
    scalar times a unitary when clusters a and c lie in one block and zero
    across blocks; None when a link used is not.  A block grows from its
    first free cluster along the strongest links (a maximum spanning tree,
    since in a long chain a far cluster links weakly to the first but
    strongly to a neighbour), and the polar unitaries of the links, composed
    along the tree, give the frame columns Q_a u_a.  Gaps and links count
    above the relative ``cut``: far above rounding, far below a generic draw.
    """
    vals, vecs = np.linalg.eigh(h)  # sorted, so each cluster is a run
    starts = np.flatnonzero(np.r_[True, np.diff(vals) > cut * np.max(np.abs(vals))])
    sizes = np.diff(np.r_[starts, n])
    runs = [slice(a, a + m) for a, m in zip(starts, sizes)]
    yq = la.dagger(vecs) @ y @ vecs
    norms = np.sqrt(np.add.reduceat(np.add.reduceat(np.abs(yq) ** 2, starts, 0), starts, 1))
    free = set(range(len(runs)))
    blocks: list[tuple[int, int]] = []
    frames: list[np.ndarray] = []
    while free:
        ref = min(free)
        units = {ref: la.eye(sizes[ref])}
        best, parent = norms[:, ref].copy(), np.full(len(runs), ref)
        while rest := [c for c in free if c not in units]:
            a = max(rest, key=lambda c: best[c])
            if best[a] <= cut * np.linalg.norm(y):
                break
            p = parent[a]
            u, s, vh = np.linalg.svd(yq[runs[a], runs[p]])
            if sizes[a] != sizes[p] or s[-1] < (1 - cut) * s[0]:
                return None
            units[a] = u @ vh @ units[p]
            closer = norms[:, a] > best
            best[closer], parent[closer] = norms[closer, a], a
        blocks.append((len(units), int(sizes[ref])))
        frames.append(np.hstack([vecs[:, runs[a]] @ units[a] for a in sorted(units)]))
        free -= units.keys()
    return _canonical(n, blocks, frames)


class Trace:
    """Tracial functional on a StarAlgebra, stored as block weights.

    ``weights[j]`` is the trace of a minimal projection of block j, so the
    evaluation density is ``rho = sum_j (weights[j] / m_j) z_j`` and
    faithful tracial states have strictly positive weights summing against
    block dimensions to 1.
    """

    def __init__(self, algebra: StarAlgebra, weights: Sequence[float]) -> None:
        if len(weights) != len(algebra.blocks):
            raise TraceError("one weight per block required")
        self.algebra = algebra
        self.weights = np.asarray(weights, dtype=float)
        rho = np.zeros((algebra.ambient_dim, algebra.ambient_dim), dtype=complex)
        for w, (bd, m), z in zip(self.weights, algebra.blocks, algebra.central_projections):
            rho = rho + (w / m) * z
        self.density = rho

    @classmethod
    def normalized(cls, algebra: StarAlgebra) -> "Trace":
        """tau(x) = Tr(x) / n, restricted to the algebra."""
        n = algebra.ambient_dim
        return cls(algebra, [m / n for _, m in algebra.blocks])

    def __call__(self, x: np.ndarray) -> complex | np.ndarray:
        """Tr(rho x); for a stack of shape (..., n, n) the array of its values."""
        if np.ndim(x) == 2:
            return complex(np.sum(self.density.T * x))
        return np.einsum("ji,...ij->...", self.density, x)

    def is_state(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return abs(self(self.algebra.unit) - 1.0) <= tol.bound()

    def is_faithful(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return bool(np.all(self.weights > tol.abs))

    def restrict(self, sub: StarAlgebra) -> "Trace":
        """Restriction to a subalgebra, re-expressed through its own blocks."""
        weights = [self(sub.minimal_projection(j)).real for j in range(len(sub.blocks))]
        return Trace(sub, weights)


class Superoperator:
    """Linear map between star algebras, checked through its Choi matrix.

    The map is stored as a callable on ambient matrices of the domain; the
    CP test extends it to the full ambient by precomposing with the
    trace-preserving expectation onto the domain (which preserves complete
    positivity in both directions).  A conjugation x -> v x v*, made only by
    :meth:`conjugation`, carries v as its witness, the read-only
    ``ad_unitary``, which certifies complete positivity without a Choi
    matrix; the map is built from v, so the two cannot disagree.  Every
    other map has ``ad_unitary`` None.

    A call takes a matrix or a stack of shape (..., n, n) and maps each of
    its matrices.  With ``stacks`` the callable maps a whole stack itself, as
    a conjugation (``v @ xs @ v*``) and a conditional expectation do;
    otherwise the elements of a stack are mapped one by one.
    """

    def __init__(
        self,
        domain: StarAlgebra,
        codomain: StarAlgebra,
        apply: Callable[[np.ndarray], np.ndarray],
        domain_trace: Trace | None = None,
        stacks: bool = False,
    ) -> None:
        self.domain = domain
        self.codomain = codomain
        self._apply = apply
        if domain_trace is not None:
            self.domain_trace = domain_trace
        self._witness: np.ndarray | None = None
        self.stacks = stacks

    @classmethod
    def conjugation(cls, v: np.ndarray, algebra: StarAlgebra) -> "Superoperator":
        """x -> v x v* on ``algebra``, with v as the complete-positivity witness."""
        op = cls(algebra, algebra, lambda x: v @ x @ la.dagger(v), stacks=True)
        op._witness = v
        return op

    @property
    def ad_unitary(self) -> np.ndarray | None:
        """The v of a :meth:`conjugation`, None for any other map."""
        return self._witness

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.stacks or np.ndim(x) == 2:
            return self._apply(x)
        out = np.stack([self._apply(y) for y in x.reshape(-1, *x.shape[-2:])])
        return out.reshape(*x.shape[:-2], *out.shape[1:])

    @cached_property
    def domain_trace(self) -> Trace:
        """The normalised trace of the domain unless one was given; built on first use."""
        return Trace.normalized(self.domain)

    @cached_property
    def _onto_domain(self) -> Callable[[np.ndarray], np.ndarray]:
        return _expectation(self.domain, self.domain_trace)

    def extended(self, x: np.ndarray) -> np.ndarray:
        """Apply to an arbitrary ambient matrix via the expectation onto the domain."""
        return self._apply(self._onto_domain(x))

    @cached_property
    def choi(self) -> np.ndarray:
        """Choi matrix of the extended map on the full domain ambient."""
        nd = self.domain.ambient_dim
        nc = self.codomain.ambient_dim
        units = la.eye(nd * nd).reshape(-1, nd, nd)  # E_ij at position (i, j), i-major
        images = self(self._onto_domain(units)).reshape(nd, nd, nc, nc)
        return images.transpose(0, 2, 1, 3).reshape(nd * nc, nd * nc)

    def cp_residual(self) -> float:
        """||v* v - 1||_F for a witness v; otherwise the Hermitian defect of
        the Choi matrix plus the size of its most negative eigenvalue."""
        if self.ad_unitary is not None:
            v = self.ad_unitary
            return la.frobenius_distance(la.dagger(v) @ v, la.eye(v.shape[0]))
        choi = self.choi
        vals = np.linalg.eigvalsh((choi + la.dagger(choi)) / 2)
        return float(max(0.0, -vals.min())) + la.frobenius_distance(choi, la.dagger(choi))

    def is_unital(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return tol.close(self._apply(self.domain.unit), self.codomain.unit)

    def is_cp(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        if self.ad_unitary is not None:
            return la.is_unitary(self.ad_unitary, tol)
        return la.is_psd(self.choi, tol)

    def is_ucp(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return self.is_unital(tol) and self.is_cp(tol)


def _expectation(sub: StarAlgebra, trace: Trace) -> Callable[[np.ndarray], np.ndarray]:
    """x -> P(x rho) P(rho)^{-1}, with P = ``sub.project`` and rho the central
    density of ``trace``.

    Because rho commutes with ``sub``, tau(E(x) y) = tau(x y) for every y in
    ``sub`` and every matrix x, in or outside the algebra ``trace`` lives on.
    P(rho) has the corners of rho, so its inverse in ``sub`` has their inverses.
    A stack of shape (..., n, n) is right-multiplied by rho and by P(rho)^{-1}
    as one (k n, n) matrix, a single gemm per product.
    """
    rho = trace.density
    inverse = _from_corners(sub, [np.linalg.inv(c) for c in _corners(sub, rho)])
    n = len(rho)

    def expect(x: np.ndarray) -> np.ndarray:
        shape = np.shape(x)
        y = sub.project((np.reshape(x, (-1, n)) @ rho).reshape(shape))
        return (y.reshape(-1, n) @ inverse).reshape(shape)

    return expect


def conditional_expectation_onto(
    sub: StarAlgebra, ambient: StarAlgebra, trace: Trace
) -> Superoperator:
    """tau-preserving conditional expectation from ``ambient`` onto ``sub``,
    E(x) = P(x rho) P(rho)^{-1} for the density rho of ``trace``."""
    return Superoperator(ambient, sub, _expectation(sub, trace), domain_trace=trace, stacks=True)


def intersect(a: StarAlgebra, b: StarAlgebra, tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    """Intersection of two *-subalgebras of the same ambient.

    The library no longer calls it: relative commutants come from
    :meth:`StarAlgebra.commuting_product` and connectedness from the inclusion
    matrix.  It stays public, and the benchmark tracer names it.
    """
    if a.ambient_dim != b.ambient_dim:
        raise PreconditionError("intersect requires a common ambient")
    fa = a.basis.reshape(a.dim, -1)
    fb = b.basis.reshape(b.dim, -1)
    stacked = np.hstack([fa.T, -fb.T])
    sols = la.nullspace(stacked, tol)
    mats = [
        np.tensordot(sol[: a.dim], a.basis, axes=(0, 0)) for sol in sols
    ]
    span = la.span_onb(mats, tol)
    if span.shape[0] == 0:
        raise InternalError("intersection of unital algebras lost the unit")
    return StarAlgebra.from_span(span, tol)


def scalar_decompose_cp_family(
    maps: Sequence[Superoperator],
    algebra: StarAlgebra,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Scalars mu[i, j] with each map acting as mu[i, j] * id on central block j.

    Requires each map completely positive on the algebra with the family
    summing to the identity; a CP summand that is not scalar on some block
    raises :class:`NotScalarError` (impossible for valid input).
    """
    onb = algebra.basis
    total = [sum(m(b) for m in maps) for b in onb]
    if max(np.linalg.norm(t - b) for t, b in zip(total, onb)) > tol.bound(1.0) * len(onb):
        raise PreconditionError("family does not sum to the identity map")
    mu = np.zeros((len(maps), len(algebra.blocks)))
    ends = np.cumsum([d * d for d, _ in algebra.blocks])
    for j, block in enumerate(np.split(onb, ends[:-1])):
        for i, m in enumerate(maps):
            imgs = np.stack([m(b) for b in block])
            scal = np.einsum("kij,kij->", np.conj(block), imgs) / block.shape[0]
            resid = np.linalg.norm(imgs - scal * block)
            if resid > tol.bound(1.0) * block.shape[0]:
                raise NotScalarError(f"map {i} is not scalar on block {j}")
            if scal.real < -tol.abs or abs(scal.imag) > tol.abs:
                raise NotScalarError(f"map {i} has non-positive scalar on block {j}")
            mu[i, j] = max(scal.real, 0.0)
    if np.max(np.abs(mu.sum(axis=0) - 1.0)) > tol.bound(1.0) * len(maps):
        raise PreconditionError("block scalars do not sum to one")
    for m in maps:
        if not m.is_cp(tol):
            raise PreconditionError("family member is not completely positive")
    return mu
