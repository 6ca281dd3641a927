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

from bisect import bisect_left
from collections import Counter
from functools import cache, cached_property
from itertools import accumulate, groupby
from typing import Callable, Iterator, NamedTuple, Sequence

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


class _IndexMap(NamedTuple):
    """W = hstack(frames) with one nonzero entry per column: column c holds ``phases[c]`` in row ``rows[c]``."""

    rows: np.ndarray
    phases: np.ndarray


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

    Where every column of W = hstack(frames) holds one nonzero entry, W is
    stored as its index map (:class:`_IndexMap`, O(n)): the standard-position
    constructors, :attr:`center`, :attr:`commutant`, :func:`_scattered` and
    the tower steps write it down, and an exact-zero test finds it in any
    other frame (a tensor product, say); other frames stay dense.  The frame
    primitives (:func:`_compress`, :func:`_adjoint_dot`, :func:`_dot`,
    :func:`_expand` and :func:`_unit_stack`) read an index map by slices,
    row gathers and scatters, and ``frames`` is built when read.

    An algebra holds no tolerance: :meth:`contains`, :meth:`same_span` and
    :meth:`commuting_product` gate at the caller's, ``Inclusion.tol`` for an
    inclusion and everything built on it.

    Every construction gates the layout: positive integer pairs (n_j, m_j)
    with sum_j n_j m_j = n, or :class:`StructureError`.  The constructor gates
    the frames: together they must be square and unitary,
    ||W*W - 1||_F <= 1e-6 n for W = hstack(frames), or :class:`StructureError`
    is raised; on an index map that reads O(n) entries (:func:`_gate`).
    Every frame that is computed (an image, a tensor product, a commuting
    product, a discovered structure, a represented algebra, frames given by
    a caller) passes that gate once.  Frames derived exactly from frames that
    passed it skip it (:meth:`_derived`): identity splits, the same frames
    read with other multiplicities (:attr:`center`), their columns permuted
    (:attr:`commutant` and the canonical block order) and their rows permuted
    and entries conjugated (:func:`_conjugated`, the modular conjugation of a
    tower step).  Such a W' has W'*W' equal to W*W up to the same
    permutation, or its conjugate, so ||W'*W' - 1||_F is exactly
    ||W*W - 1||_F and the verdict carries over.
    """

    def __init__(self, ambient_dim: int, blocks: list[tuple[int, int]], frames: list[np.ndarray]) -> None:
        n, self.blocks = _layout(ambient_dim, blocks)
        frames = [np.asarray(w, dtype=complex) for w in frames]
        if [f.shape for f in frames] != [(n, d * m) for d, m in self.blocks]:
            raise StructureError("algebra unit is not the ambient identity")
        self.ambient_dim, self._dense, self._index = n, frames, _index_of(np.hstack(frames))
        _read_map(self)
        _gate(self)

    @classmethod
    def _derived(cls, ambient_dim: int, blocks: list[tuple[int, int]], frames: list | _IndexMap) -> "StarAlgebra":
        """The algebra on complex ``frames`` or an index map, with the layout gate but without the frame
        gate: only for frames that split the identity, or that permute the rows or columns of frames that
        passed the gate, or conjugate them (see the class docstring)."""
        alg = cls.__new__(cls)
        alg.ambient_dim, alg.blocks = _layout(ambient_dim, blocks)
        alg._index, alg._dense = (frames, None) if isinstance(frames, _IndexMap) else (None, frames)
        _read_map(alg)
        return alg

    @property
    def frames(self) -> list[np.ndarray]:
        """Per block j the n x (n_j m_j) frame W_j; built on every read from an index map."""
        return [_block(self, j) for j in range(len(self.blocks))]

    # -- constructors -------------------------------------------------------

    @classmethod
    def trivial(cls, n: int) -> "StarAlgebra":
        """C * 1_n."""
        return cls.block_diagonal([(1, n)])

    @classmethod
    def full(cls, n: int) -> "StarAlgebra":
        """All of M_n(C)."""
        return cls.block_diagonal([(n, 1)])

    @classmethod
    def diagonal(cls, n: int) -> "StarAlgebra":
        """The diagonal maximal abelian subalgebra of M_n(C)."""
        return cls.block_diagonal([(1, 1)] * n)

    @classmethod
    def block_diagonal(cls, layout: Sequence[tuple[int, int]]) -> "StarAlgebra":
        """Direct sum of M_{n_j} x 1_{m_j} blocks embedded contiguously.

        Each block occupies ``n_j * m_j`` coordinates arranged as
        C^{n_j} (x) C^{m_j}, matrix factor first: W is the identity.
        """
        n, pairs = _layout(None, layout)
        return cls._derived(n, pairs, _IndexMap(np.arange(n), np.ones(n)))

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
        for j, (bd, _) in enumerate(self.blocks):
            g = [phi(f) for f in _column_units(self, j)]
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
        """The minimal central projections z_j = W_j W_j*, aligned with ``blocks``:
        the identity for one block, a 0/1 diagonal on an index map."""
        n = self.ambient_dim
        if len(self.blocks) == 1:
            return [la.eye(n)]
        return [_expand(self, j, la.eye(d * m), np.zeros((n, n), complex)) for j, (d, m) in enumerate(self.blocks)]

    @cached_property
    def unit(self) -> np.ndarray:
        return sum(self.central_projections)

    def minimal_projection(self, block: int) -> np.ndarray:
        """f_00 of the block: the frame columns with a = 0."""
        return _unit_stack(self, block, np.zeros(1, dtype=int), np.zeros(1, dtype=int))[0]

    @cached_property
    def matrix_units(self) -> list[np.ndarray]:
        out = []
        for j, (d, _) in enumerate(self.blocks):
            a, b = np.divmod(np.arange(d * d), d)
            out.append(_unit_stack(self, j, a, b).reshape(d, d, self.ambient_dim, self.ambient_dim))
        return out

    @cached_property
    def basis(self) -> np.ndarray:
        """Self-adjoint HS-orthonormal basis, blockwise: the f_aa / sqrt(m),
        then for each a < b the symmetric and antisymmetric combinations
        of f_ab and f_ba (:func:`_hermitian_combinations`)."""
        n = self.ambient_dim
        out = np.empty((self.dim, n, n), dtype=complex)
        k = 0
        for j, (d, m) in enumerate(self.blocks):
            upper, lower = _upper_pairs(d)
            f_ab = _unit_stack(self, j, upper, lower)
            diagonal = _unit_stack(self, j, np.arange(d), np.arange(d))
            _hermitian_combinations(diagonal, f_ab, la.dagger(f_ab), m, out[k : k + d * d])
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
        return StarAlgebra._derived(self.ambient_dim, [(1, d * m) for d, m in self.blocks], self._index or self._dense)

    @cached_property
    def commutant(self) -> "StarAlgebra":
        """Relative commutant in the ambient M_n(C): the same frames with the
        two column legs swapped, ``W (+)_j (1_{n_j} (x) M_{m_j}) W*``."""
        blocks = [(m, d) for d, m in self.blocks]
        if self._index is None:
            frames = [_swap_legs(w, d, m) for (d, m), w in zip(self.blocks, self._dense)]
        else:
            swap = [_swap_legs(np.arange(o, o + d * m)[None], d, m)[0] for (d, m), o in zip(self.blocks, self._starts)]
            frames = _columns(self._index, np.concatenate(swap))
        return _canonical(self.ambient_dim, blocks, frames, StarAlgebra._derived)


def _layout(ambient_dim: int | None, blocks: Sequence[tuple[int, int]]) -> tuple[int, list[tuple[int, int]]]:
    """n (the layout's own for None) and the layout as int pairs, gated: positive integer
    pairs (n_j, m_j) with sum_j n_j m_j = n, or :class:`StructureError`."""
    try:
        pairs = [(int(d), int(m)) for d, m in blocks]
        total = sum(d * m for d, m in pairs)
        n = total if ambient_dim is None else int(ambient_dim)
        exact = [(d, m) for d, m in blocks] == pairs and ambient_dim in (None, n)
    except (TypeError, ValueError) as exc:
        raise StructureError(f"block layout {blocks!r} is not a list of integer pairs") from exc
    if not pairs or not exact or min(map(min, pairs)) < 1 or total != n:
        raise StructureError(f"block layout {blocks!r} is not positive integer pairs filling C^{ambient_dim}")
    return n, pairs


def _index_of(w: np.ndarray) -> _IndexMap | None:
    """The index map of a frame with exactly one nonzero entry per column, by an exact-zero test; else None."""
    nonzero = w != 0
    if (nonzero.sum(axis=0) != 1).any():
        return None
    rows = nonzero.argmax(axis=0)
    return _IndexMap(rows, w[rows, np.arange(w.shape[1])])


def _read_map(alg: StarAlgebra) -> None:
    """Set ``alg._starts``, the first column of each block of W and then n, and ``alg._maps``: per
    block j the rows of W_j (a slice where they run consecutively) and its phases (None where all
    are 1), then those of all of W; None for dense frames."""
    alg._starts, alg._maps = [0, *accumulate(d * m for d, m in alg.blocks)], None
    if alg._index is None:
        return
    (rows, phases), runs = alg._index, [*zip(alg._starts, alg._starts[1:]), (0, alg.ambient_dim)]
    # the columns c after which the rows do not step by 1, and the columns whose phase is not 1
    breaks, off = (rows[1:] - rows[:-1] != 1).nonzero()[0].tolist(), (phases != 1).nonzero()[0].tolist()
    if not breaks and not off:  # standard position: the rows are 0, 1, ..., n - 1
        alg._maps = [(slice(o, e), None) for o, e in runs]
        return
    heads = rows[alg._starts[:-1] + [0]].tolist()
    alg._maps = [
        (
            slice(h, h + e - o) if bisect_left(breaks, o) == bisect_left(breaks, e - 1) else rows[o:e],
            None if bisect_left(off, o) == bisect_left(off, e) else phases[o:e],
        )
        for (o, e), h in zip(runs, heads)
    ]


def _gate(alg: StarAlgebra) -> None:
    """The unitarity gate ||W*W - 1||_F <= 1e-6 n, W = hstack(frames).  On an index map W*W is the
    diagonal of the |phases|^2 once the rows form a permutation; a repeated row leaves a zero row
    in the square W, so ||W*W - 1||_F >= 1 and it is refused."""
    n, index = alg.ambient_dim, alg._index
    if index is None:
        gap = np.linalg.norm(la.dagger(w := _block(alg, None)) @ w - la.eye(n))
    else:
        permutation = (np.bincount(index.rows, minlength=n) == 1).all()
        gap = np.linalg.norm(np.abs(index.phases) ** 2 - 1) if permutation else np.inf
    if gap > 1e-6 * n:
        raise StructureError("algebra unit is not the ambient identity")


def _columns(index: _IndexMap, perm: np.ndarray) -> _IndexMap:
    """The index map of W[:, perm]."""
    return _IndexMap(index.rows[perm], index.phases[perm])


def _block(alg: StarAlgebra, j: int | None) -> np.ndarray:
    """The frame W_j, or W for j None: the frames given, or a scatter of an index map (j an int)."""
    if alg._dense is not None:
        return np.hstack(alg._dense) if j is None else alg._dense[j]
    return _dot(alg, j, la.eye(alg._starts[j + 1] - alg._starts[j]))


def _compress(alg: StarAlgebra, j: int | None, x: np.ndarray) -> np.ndarray:
    """W_j* x W_j, or W* x W for j None, for a matrix or a stack x: a slice of x in standard
    position, a gather times the phases on any other index map."""
    if alg._index is None:
        w = _block(alg, j)
        return la.dagger(w) @ x @ w
    rows, phases = alg._maps[-1 if j is None else j]
    y = x[..., rows, rows] if isinstance(rows, slice) else x.take(rows, -2).take(rows, -1)
    return y if phases is None else np.conj(phases)[:, None] * y * phases


def _adjoint_dot(alg: StarAlgebra, j: int | None, x: np.ndarray) -> np.ndarray:
    """W_j* x, or W* x for j None, for x of shape (..., n, k): a row gather on an index map."""
    if alg._index is None:
        return la.dagger(_block(alg, j)) @ x
    rows, phases = alg._maps[-1 if j is None else j]
    return x[..., rows, :] if phases is None else np.conj(phases)[:, None] * x[..., rows, :]


def _dot(alg: StarAlgebra, j: int, y: np.ndarray) -> np.ndarray:
    """W_j y for y of shape (n_j m_j, k): a row scatter on an index map."""
    if alg._index is None:
        return alg._dense[j] @ y
    rows, phases = alg._maps[j]
    out = np.zeros((alg.ambient_dim, y.shape[1]), dtype=complex)
    out[rows] = y if phases is None else phases[:, None] * y
    return out


def _expand(alg: StarAlgebra, j: int | None, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """W_j y W_j*, or W y W* for j None, written into ``out``, which is zero on the rows and columns
    of W_j, and returned; for y of shape (..., n_j m_j, n_j m_j).  A scatter times the phases on an
    index map."""
    if alg._index is None:
        w = _block(alg, j)
        out += w @ y @ la.dagger(w)
        return out
    rows, phases = alg._maps[-1 if j is None else j]
    if phases is not None:
        y = phases[:, None] * y * np.conj(phases)
    if isinstance(rows, slice):
        out[..., rows, rows] = y
    else:
        out[..., rows[:, None], rows] = y
    return out


def _overlap(a: StarAlgebra, b: StarAlgebra, k: int, y: np.ndarray) -> np.ndarray:
    """W^a* W^b_k y: block k of b, times y, in the frame coordinates of a (block j on the rows
    ``a._starts[j : j + 2]``), with no frame formed on an index map."""
    if a.ambient_dim != b.ambient_dim:
        raise PreconditionError("N and M must share an ambient")
    return _adjoint_dot(a, None, _dot(b, k, y))


def _conjugated(alg: StarAlgebra, perm: np.ndarray) -> StarAlgebra:
    """The algebra on the frames conj(W_j)[perm], derived: W'*W' is the conjugate of W*W."""
    if alg._index is None:
        return StarAlgebra._derived(alg.ambient_dim, alg.blocks, [np.conj(w)[perm] for w in alg._dense])
    rows, phases = alg._index
    return StarAlgebra._derived(alg.ambient_dim, alg.blocks, _IndexMap(np.argsort(perm)[rows], np.conj(phases)))


def _scattered(n: int, blocks: list, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> StarAlgebra:
    """The gated algebra whose W holds the nonzero ``values`` at (``rows``, ``cols``) and zeros elsewhere:
    an index map, written down and gated in O(n), where every column holds exactly one of them."""
    if (np.bincount(cols, minlength=n) == 1).all():
        order = np.argsort(cols)
        alg = StarAlgebra._derived(n, blocks, _IndexMap(rows[order], values[order]))
        _gate(alg)
        return alg
    w = np.zeros((n, n), dtype=complex)
    w[rows, cols] = values
    return StarAlgebra(n, blocks, np.split(w, np.cumsum([d * m for d, m in blocks])[:-1], axis=1))


def _unit_stack(alg: StarAlgebra, j: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The units f_{a_k b_k} = W_j (e_{a_k b_k} (x) 1_m) W_j* of block j as a (len(a), n, n) stack."""
    d, m = alg.blocks[j]
    if alg._index is not None:  # a scatter of the phases onto rows (a, r) and columns (b, r)
        rows, phases = alg._index.rows[alg._starts[j] : alg._starts[j + 1]].reshape(d, m), alg._maps[j][1]
        out = np.zeros((len(a), alg.ambient_dim, alg.ambient_dim), dtype=complex)
        phases = 1.0 if phases is None else phases.reshape(d, m)[a] * np.conj(phases.reshape(d, m)[b])
        out[np.arange(len(a))[:, None], rows[a], rows[b]] = phases
        return out
    legs = alg._dense[j].reshape(-1, d, m).transpose(1, 0, 2)  # legs[a] holds the columns (a, r)
    return np.matmul(legs[a], la.dagger(legs[b]))


def _corners(alg: StarAlgebra, x: np.ndarray) -> list[np.ndarray]:
    """Per block j the multiplicity average xbar_j of W_j* x W_j, for a matrix
    or a stack of matrices x; W (+)_j (xbar_j (x) 1) W* is the HS projection.
    A block of multiplicity 1 takes no average (and may return a view of x)."""
    out = []
    for j, (d, m) in enumerate(alg.blocks):
        y = _compress(alg, j, x)
        out.append(y if m == 1 else np.trace(y.reshape(*np.shape(x)[:-2], d, m, d, m), axis1=-3, axis2=-1) / m)
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
    lead = np.shape(x)[:-2]
    for (d, m), count in _runs(layout):
        size, end = d * m, o + count * d * m
        rows = x[..., o:end, :]
        total = total + la.frobenius_norms(rows[..., :o]) ** 2 + la.frobenius_norms(rows[..., end:]) ** 2
        if count == 1:
            legs = rows[..., o:end].reshape(*lead, d, m, d, m)
        else:
            # a run of equal blocks as one (..., count, size, size) stack; the
            # mass between two blocks of the run is summed off the diagonal
            run = rows[..., o:end].reshape(*lead, count, size, count, size)
            mass = la.frobenius_norms(np.moveaxis(run, -3, -2)) ** 2
            mass[..., np.arange(count), np.arange(count)] = 0.0
            total = total + mass.sum(axis=(-2, -1))
            legs = np.moveaxis(np.diagonal(run, axis1=-4, axis2=-2), -1, -3).reshape(*lead, count, d, m, d, m)
        if (d if commutant else m) == 1:
            # the averaged leg has size 1: the mean is the block, the gap exactly zero
            mean = legs.reshape(*legs.shape[:-4], size, size)
        else:
            if commutant:
                mean = np.trace(legs, axis1=-4, axis2=-2) / d
                gap = legs - la.eye(d)[:, None, :, None] * mean[..., None, :, None, :]
            else:
                mean = np.trace(legs, axis1=-3, axis2=-1) / m
                gap = legs - mean[..., :, None, :, None] * la.eye(m)[None, :, None, :]
            gaps = la.frobenius_norms(gap.reshape(*gap.shape[:-4], size, size)) ** 2
            total = total + (gaps if count == 1 else gaps.sum(axis=-1))
        means.extend([mean] if count == 1 else np.moveaxis(mean, -3, 0))
        o = end
    return total, means


def _runs(layout: Sequence[tuple[int, int]]) -> Iterator[tuple[tuple[int, int], int]]:
    """The runs of consecutive equal blocks of a layout as (block, count);
    a run of one or two blocks comes block by block, where one stack for
    the run is slower than a pass per block."""
    for block, run in groupby(layout):
        count = len(list(run))
        yield from [(block, count)] if count > 2 else [(block, 1)] * count


def _frame_distance(alg: StarAlgebra, x: np.ndarray, commutant: bool = False) -> float | np.ndarray:
    """The Frobenius distance of x, or of each matrix of a stack, to ``alg`` or,
    with ``commutant``, to its commutant, read in the frame coordinates
    W* x W, W = hstack(frames): W is unitary and carries the algebra onto its
    block layout (:func:`_layout_distance`)."""
    return _layout_distance(_compress(alg, None, x), alg.blocks, commutant)


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
    cols_b = [_column_units(b, k) for k in range(len(b.blocks))]
    overlaps = [_overlap(a, b, k, la.eye(d * m)) for k, (d, m) in enumerate(b.blocks)]
    for j, (_, ma) in enumerate(a.blocks):
        fa = _column_units(a, j)
        for fb, whole in zip(cols_b, overlaps):
            overlap = whole[a._starts[j] : a._starts[j + 1]]
            rank = float(np.vdot(overlap, overlap).real)  # Tr(z_j z_k)
            if rank < 0.5:
                continue
            d = len(fa) * len(fb)
            mult = int(round(rank / d))
            if abs(rank - d * mult) > 1e-6:
                raise StructureError("commuting product multiplicity is not an integer")
            head = _dot(a, j, la.eye(len(fa) * ma)[:, :ma])  # columns (0, r): f_a[0][0] = head head*
            eta = head @ _corner_range(la.dagger(head) @ fb[0] @ head, mult)
            units = np.matmul(fa[:, None], np.matmul(fb, eta)[None]).reshape(d, -1, mult)
            blocks.append((d, mult))
            frames.append(units.transpose(1, 0, 2).reshape(a.ambient_dim, -1))
    return StarAlgebra(a.ambient_dim, blocks, frames)


def _from_corners(alg: StarAlgebra, corners: Sequence[np.ndarray]) -> np.ndarray:
    """sum_j W_j (c_j (x) 1_{m_j}) W_j*: the algebra element with the given
    corners, or the stack of them for corners of shape (..., d_j, d_j)."""
    n, lead = alg.ambient_dim, np.shape(corners[0])[:-2]
    out = np.zeros((*lead, n, n), dtype=complex)
    for j, ((d, m), c) in enumerate(zip(alg.blocks, corners)):
        y = c if m == 1 else (c[..., :, None, :, None] * la.eye(m)[:, None, :]).reshape(*lead, d * m, -1)
        _expand(alg, j, y, out)  # c (x) 1_m on the columns of W_j
    return out


def _hermitian_combinations(
    diagonal: np.ndarray, upper: np.ndarray, lower: np.ndarray, m: int, out: np.ndarray
) -> np.ndarray:
    """The block of :attr:`StarAlgebra.basis` made of the images of the units
    under any linear map: ``diagonal`` holds the images of the f_aa, and
    ``upper`` and ``lower`` those of f_ab and f_ba for the pairs a < b of
    :func:`_upper_pairs`.  Written into ``out`` and returned."""
    d, root = len(diagonal), np.sqrt(float(m))
    out[:d] = diagonal / root
    scale = root * np.sqrt(2.0)
    out[d::2] = (upper + lower) / scale
    out[d + 1 :: 2] = 1j * (upper - lower) / scale
    return out


@cache
def _upper_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(d, 1)``, the index pairs a < b of a block of size d,
    computed once per d and returned read-only."""
    upper, lower = np.triu_indices(d, 1)
    upper.flags.writeable = lower.flags.writeable = False
    return upper, lower


def _masses(big: StarAlgebra, small: StarAlgebra) -> np.ndarray:
    """tr(z_k q_j) for the central projections z_k of ``big`` and a minimal
    projection q_j of each block j of ``small``, as a (len(big.blocks),
    len(small.blocks)) array: ||W_k* V_j||_F^2 for V_j the columns (0, r) of
    the frame of block j of ``small``, so no projection is formed."""
    out = np.empty((len(big.blocks), len(small.blocks)))
    for j, (d, m) in enumerate(small.blocks):
        head = _overlap(big, small, j, np.eye(d * m, m))
        out[:, j] = np.add.reduceat((head.real**2 + head.imag**2).sum(axis=1), big._starts[:-1])
    return out


def _column_units(alg: StarAlgebra, j: int) -> np.ndarray:
    """The matrix units f_{a0}, a < d, of block j as a (d, n, n) stack."""
    d = alg.blocks[j][0]
    return _unit_stack(alg, j, np.arange(d), np.zeros(d, dtype=int))


def _generators(alg: StarAlgebra) -> np.ndarray:
    """The column units f_{a0} of every block as one (sum_j d_j, n, n) stack.
    With their adjoints they generate ``alg`` (f_ab = f_a0 f_b0*), so a
    *-algebra holds ``alg`` once it holds them."""
    return np.concatenate([_column_units(alg, j) for j in range(len(alg.blocks))])


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


def _canonical(
    n: int,
    blocks: list[tuple[int, int]],
    frames: list[np.ndarray] | _IndexMap,
    make: Callable[[int, list, list], StarAlgebra] = StarAlgebra,
) -> StarAlgebra:
    """The algebra with its blocks in canonical order: by block dimension,
    then by the rounded entries of the central projection, which are formed
    only for blocks that share their block dimension; on an index map they
    are 0/1 diagonals on disjoint rows, so the order is read off the first
    row of each block, the block holding the smaller one last.  ``make``
    builds it: the gated constructor for computed frames,
    :meth:`StarAlgebra._derived` for a permutation of frames that passed the
    gate."""
    count = Counter(bd for bd, _ in blocks)
    starts = [0, *accumulate(d * m for d, m in blocks)]

    def key(j: int) -> tuple:
        if count[blocks[j][0]] == 1:
            return blocks[j][0], ()
        if isinstance(frames, _IndexMap):
            return blocks[j][0], (-frames.rows[starts[j] : starts[j + 1]].min(),)
        return blocks[j][0], tuple(np.round((frames[j] @ la.dagger(frames[j])).real.reshape(-1), 6))

    order = sorted(range(len(blocks)), key=key)
    if isinstance(frames, _IndexMap):
        frames = _columns(frames, np.concatenate([np.arange(starts[j], starts[j + 1]) for j in order]))
    else:
        frames = [frames[j] for j in order]
    return make(n, [blocks[j] for j in order], frames)


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
    block dimensions to 1.  The density is formed on first read.
    """

    def __init__(self, algebra: StarAlgebra, weights: Sequence[float]) -> None:
        if len(weights) != len(algebra.blocks):
            raise TraceError("one weight per block required")
        self.algebra = algebra
        self.weights = np.asarray(weights, dtype=float)

    @cached_property
    def density(self) -> np.ndarray:
        """rho = sum_j (weights[j] / m_j) z_j, from its corners."""
        return _from_corners(self.algebra, [w / m * la.eye(d) for w, (d, m) in zip(self.weights, self.algebra.blocks)])

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
        """Restriction to a subalgebra, re-expressed through its own blocks:
        block j weighs tau(q_j) = sum_k (weights[k] / m_k) tr(z_k q_j) for a
        minimal projection q_j (:func:`_masses`)."""
        scale = self.weights / [m for _, m in self.algebra.blocks]
        return Trace(sub, scale @ _masses(self.algebra, sub))


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

    @cached_property
    def choi(self) -> np.ndarray:
        """Choi matrix on the full domain ambient of the map after the expectation onto its domain."""
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
