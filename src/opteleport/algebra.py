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

from functools import cached_property
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

# Structure discovery draws (generic central elements, partial isometries)
# use fixed internal seeds so that rebuilt algebras are bit-identical.
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
    """

    def __init__(
        self,
        ambient_dim: int,
        blocks: list[tuple[int, int]],
        frames: list[np.ndarray],
        tol: Tolerance = DEFAULT_TOL,
    ) -> None:
        self.ambient_dim = int(ambient_dim)
        self.blocks = [(int(n), int(m)) for n, m in blocks]
        self.frames = [np.asarray(w, dtype=complex) for w in frames]
        self.tol = tol
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
        not change the algebra it generates but keeps the absolute rank cut
        of the closure meaningful at any input scale.  Closes the span under
        adjoints and products, then discovers the block structure.
        """
        n = int(ambient_dim)
        seed = [la.as_matrix(m) for m in mats]
        for m in seed:
            if m.shape != (n, n):
                raise PreconditionError(f"generator shape {m.shape} != ({n}, {n})")
        seed = [m / nrm if (nrm := np.linalg.norm(m)) > 0 else m for m in seed]
        span = la.span_onb(list(seed) + [dag for dag in map(la.dagger, seed)] + [la.eye(n)], tol)
        for _ in range(n * n + 1):
            prods = [span[i] @ span[j] for i in range(len(span)) for j in range(len(span))]
            new = la.span_onb(list(span) + prods, tol)
            if new.shape[0] == span.shape[0]:
                return cls.from_span(new, tol)
            span = new
        raise InternalError("algebra closure did not stabilise")

    @classmethod
    def from_span(cls, onb: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> "StarAlgebra":
        """Structure discovery on a subspace already closed as a *-algebra."""
        n = onb.shape[1]
        zs = _minimal_central_projections(onb, tol)
        blocks: list[tuple[int, int]] = []
        frames: list[np.ndarray] = []
        for z in zs:
            corner = la.span_onb([z @ b for b in onb], tol)
            bd2 = corner.shape[0]
            bd = int(round(np.sqrt(bd2)))
            if bd * bd != bd2:
                raise StructureError(f"block span dimension {bd2} is not a square")
            rank = float(np.trace(z).real)
            mult = int(round(rank / bd))
            if abs(rank - bd * mult) > 1e-6:
                raise StructureError(f"block rank {rank} not divisible by {bd}")
            f = _matrix_units_for_block(onb, z, bd, mult, tol)
            blocks.append((bd, mult))
            frames.append(_frame_from([f[a][0] for a in range(bd)], f[0][0], mult))
        return _canonical(n, blocks, frames, tol)

    @classmethod
    def commuting_product(cls, a: "StarAlgebra", b: "StarAlgebra") -> "StarAlgebra":
        """The algebra a ∨ b generated by two commuting subalgebras of one ambient.

        For commuting a and b, a ∨ b is the direct sum, over the block pairs
        (j, k) whose central projections satisfy z_j z_k != 0, of
        M_{d_j} (x) M_{d_k} with matrix units ``f_a[p][q] @ f_b[r][s]``;
        its frame is read off the units ``f_a[p][0] @ f_b[r][0]``.  Pairs
        with z_j z_k = 0 (the two algebras share central projections, e.g.
        a centre of a contained in b) add nothing and are skipped, so the
        structure needs no rediscovery.

        Commutation is gated cheaply: the block generators ``f[p][0]`` of a
        must commute with those of b and their adjoints, which generate b,
        or :class:`PreconditionError` is raised.  A pair rank that is not a
        multiple of d_j d_k raises :class:`StructureError`.
        """
        if a.ambient_dim != b.ambient_dim:
            raise PreconditionError("commuting product requires a common ambient")
        cols_a = [_column_units(w, d) for (d, _), w in zip(a.blocks, a.frames)]
        cols_b = [_column_units(w, d) for (d, _), w in zip(b.blocks, b.frames)]
        gens_b = [y for g in cols_b for y in g] + [la.dagger(y) for g in cols_b for y in g[1:]]
        clash = max(la.frobenius_distance(x @ y, y @ x) for f in cols_a for x in f for y in gens_b)
        if clash > a.tol.bound(1.0) * 10:
            raise PreconditionError(f"commuting product of non-commuting algebras ({clash:.2e})")
        blocks: list[tuple[int, int]] = []
        frames: list[np.ndarray] = []
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
                g = np.matmul(fa[:, None], fb[None, :]).reshape(d, *fa.shape[1:])
                blocks.append((d, mult))
                frames.append(_frame_from(g, g[0], mult))
        return cls(a.ambient_dim, blocks, frames, a.tol)

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
                    w = np.kron(wl, wr).reshape(n, dl, ml, dr, mr).transpose(0, 1, 3, 2, 4)
                    blocks.append((dl * dr, ml * mr))
                    frames.append(w.reshape(n, -1))
            left = cls(n, blocks, frames, left.tol)
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
        return StarAlgebra(ambient_dim, blocks, frames, self.tol)

    def anti_image(
        self, phi: Callable[[np.ndarray], np.ndarray], ambient_dim: int
    ) -> "StarAlgebra":
        """Image under a unital injective *-anti-homomorphism.

        Anti-multiplicativity swaps the matrix-unit indices, so
        ``g[a][b] = phi(f[b][a]) = phi(f[a][b]*)`` is again a system of
        matrix units: the image of the *-homomorphism ``x -> phi(x*)``.
        """
        return self.image(lambda x: phi(la.dagger(x)), ambient_dim)

    def conjugate_entrywise(self) -> "StarAlgebra":
        """The algebra {conj(x)} — conjugation by the canonical J in GNS coordinates."""
        return StarAlgebra(self.ambient_dim, self.blocks, [np.conj(w) for w in self.frames], self.tol)

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
            out.append(np.matmul(legs[:, None], _adjoint(legs)[None, :]))
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
            out[k : k + d] = np.matmul(legs, _adjoint(legs)) / root
            upper, lower = np.triu_indices(d, 1)
            f_ab = np.matmul(legs[upper], _adjoint(legs[lower]))
            f_ba = _adjoint(f_ab)
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
        """HS-orthogonal projection onto the algebra.

        The identity on all of M_n.  Otherwise dense (one gemv each way on
        the basis, 2 dim n^2 flops) for small algebras, and through the
        frames (O(n^3), no basis) once dim > 2n: W_j times the average of
        W_j* x W_j over the multiplicity legs.
        """
        n = self.ambient_dim
        if self.dim == n * n:
            return np.array(x, dtype=complex)
        if self.dim <= 2 * n:
            return la.span_project(self.basis, x)
        out = np.zeros((n, n), dtype=complex)
        for (d, m), w in zip(self.blocks, self.frames):
            y = (la.dagger(w) @ x @ w).reshape(d, m, d, m)
            c = np.trace(y, axis1=1, axis2=3) / m
            legs = _legs(w, d).transpose(1, 2, 0).reshape(n, -1)  # columns (r, a)
            out += (legs.reshape(n, m, d) @ c).reshape(n, -1) @ la.dagger(legs)
        return out

    def contains(self, x: np.ndarray, tol: Tolerance | None = None) -> bool:
        tol = tol or self.tol
        return self.membership_residual(x) <= tol.bound(float(np.linalg.norm(x)))

    def membership_residual(self, x: np.ndarray) -> float:
        return la.frobenius_distance(x, self.project(x))

    def same_span(self, other: "StarAlgebra", tol: Tolerance | None = None) -> bool:
        tol = tol or self.tol
        if self.dim != other.dim or self.ambient_dim != other.ambient_dim:
            return False
        return all(other.contains(b, tol) for b in self.basis)

    @cached_property
    def center(self) -> "StarAlgebra":
        return StarAlgebra(
            self.ambient_dim, [(1, d * m) for d, m in self.blocks], self.frames, self.tol
        )

    @cached_property
    def commutant(self) -> "StarAlgebra":
        """Relative commutant in the ambient M_n(C): the same frames with the
        two column legs swapped, ``W (+)_j (1_{n_j} (x) M_{m_j}) W*``."""
        blocks = [(m, d) for d, m in self.blocks]
        frames = [_swap_legs(w, d, m) for (d, m), w in zip(self.blocks, self.frames)]
        return _canonical(self.ambient_dim, blocks, frames, self.tol)


def _adjoint(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return np.conj(np.swapaxes(stack, -1, -2))


def _legs(w: np.ndarray, d: int) -> np.ndarray:
    """The frame as a (d, n, m) stack: legs[a] holds the columns (a, r)."""
    return w.reshape(w.shape[0], d, -1).transpose(1, 0, 2)


def _unit_to_hermitian(d: int) -> np.ndarray:
    """Change of basis V_d on one block, from matrix units to ``basis`` order.

    Column (a, b), a-major, holds the coordinates of f_ab against the
    Hermitian elements that :attr:`StarAlgebra.basis` builds for a block of
    size d, in its order: the d diagonal units, then for each a < b the
    symmetric and the antisymmetric combination.  Both systems are
    orthonormal once rescaled by the same factor, so V_d is unitary; on a
    GNS space it maps the unit coordinates f_ab / sqrt(t) to the Hermitian
    ones.
    """
    v = np.zeros((d * d, d * d), dtype=complex)
    v[np.arange(d), np.arange(d) * (d + 1)] = 1.0
    a, b = np.triu_indices(d, 1)
    rows = d + 2 * np.arange(len(a))
    ab, ba = a * d + b, b * d + a
    root = 1 / np.sqrt(2.0)
    v[rows, ab] = v[rows, ba] = root
    v[rows + 1, ab] = -1j * root
    v[rows + 1, ba] = 1j * root
    return v


def _column_units(w: np.ndarray, d: int) -> np.ndarray:
    """The matrix units f_{a0}, a < d, of a block frame as a (d, n, n) stack."""
    legs = _legs(w, d)
    return np.matmul(legs, la.dagger(legs[0]))


def _swap_legs(w: np.ndarray, d: int, m: int) -> np.ndarray:
    """Reorder frame columns from (a, r), a-major, to (r, a), r-major."""
    return w.reshape(w.shape[0], d, m).transpose(0, 2, 1).reshape(w.shape[0], -1)


def _frame_from(f_a0: Sequence[np.ndarray], corner: np.ndarray, mult: int) -> np.ndarray:
    """Frame columns f_{a0} eta_r, (a, r) a-major, with eta an orthonormal
    basis of the range of the corner projection f_00."""
    vals, vecs = np.linalg.eigh(corner)
    eta = vecs[:, vals > 0.5]
    if eta.shape[1] != mult:
        raise StructureError("corner projection rank disagrees with multiplicity")
    return np.matmul(f_a0, eta).transpose(1, 0, 2).reshape(len(corner), -1)


def _canonical(
    n: int,
    blocks: list[tuple[int, int]],
    frames: list[np.ndarray],
    tol: Tolerance,
) -> StarAlgebra:
    """The algebra with its blocks in canonical order: by block dimension,
    then by the rounded entries of the central projection."""
    keys = [
        (bd, tuple(np.round((w @ la.dagger(w)).real.reshape(-1), 6)))
        for (bd, _), w in zip(blocks, frames)
    ]
    order = sorted(range(len(blocks)), key=lambda j: keys[j])
    return StarAlgebra(n, [blocks[j] for j in order], [frames[j] for j in order], tol)


def _unit_matrix(n: int, a: int, b: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[a, b] = 1.0
    return m


def _center_span(onb: np.ndarray, tol: Tolerance) -> np.ndarray:
    """ONB of {x in span : [x, b] = 0 for all basis b}, solved in coordinates.

    The commutator columns of one basis element at a time are folded into a
    k x k triangular factor R by QR, so only O(k n^2) entries are ever held.
    The stacked system is Q R with Q an isometry: R has its singular values,
    and the rank cut on ``tol.abs`` means the same as on the full stack.
    """
    k = onb.shape[0]
    r = np.zeros((0, k), dtype=complex)
    for b in onb:
        comm = np.matmul(b, onb) - np.matmul(onb, b)  # [b, b_k] for every k
        r = np.linalg.qr(np.vstack([r, comm.reshape(k, -1).T]), mode="r")
    coeffs = la.nullspace(r, tol)
    if not coeffs:
        raise InternalError("unital algebra has empty centre")
    mats = [np.tensordot(c, onb, axes=(0, 0)) for c in coeffs]
    return la.span_onb(mats, tol)


def _minimal_central_projections(onb: np.ndarray, tol: Tolerance) -> list[np.ndarray]:
    """Split the centre via a generic self-adjoint central element."""
    centre = _center_span(onb, tol)
    want = centre.shape[0]
    rng = la.rng_from(_STRUCTURE_SEED)
    sa = la.span_onb(
        [c + la.dagger(c) for c in centre] + [1j * (c - la.dagger(c)) for c in centre], tol
    )
    for _ in range(_MAX_DRAWS):
        coeffs = rng.standard_normal(sa.shape[0])
        g = np.tensordot(coeffs, sa, axes=(0, 0))
        g = (g + la.dagger(g)) / 2
        vals, vecs = np.linalg.eigh(g)
        support = np.abs(vals) > 1e-8  # ambient kernel is not part of the algebra
        groups = la.eigenvalue_clusters(vals[support], gap=1e-6 * max(1.0, vals.max() - vals.min()))
        if len(groups) != want:
            continue
        sup_vecs = vecs[:, support]
        zs = []
        ok = True
        for grp in groups:
            cols = sup_vecs[:, grp]
            z = cols @ la.dagger(cols)
            if la.span_residual(onb, z) > tol.bound(np.linalg.norm(z)) * 10:
                ok = False
                break
            zs.append(z)
        if ok:
            return zs
    raise InternalError("could not split the centre with a generic element")


def _matrix_units_for_block(
    onb: np.ndarray, z: np.ndarray, bd: int, mult: int, tol: Tolerance
) -> list[list[np.ndarray]]:
    """Matrix units of the factor z * algebra via generic spectral splitting."""
    rng = la.rng_from(_STRUCTURE_SEED + 1)
    if bd == 1:
        return [[z]]
    shift = 3.0
    for _ in range(_MAX_DRAWS):
        coeffs = rng.standard_normal(onb.shape[0])
        g = np.tensordot(coeffs, onb, axes=(0, 0))
        g = z @ g @ z
        g = (g + la.dagger(g)) / 2
        norm = max(np.linalg.norm(g), 1e-12)
        g = g / norm + shift * z  # push the block spectrum away from the ambient kernel
        vals, vecs = np.linalg.eigh(g)
        support = vals > shift / 2
        if int(np.sum(support)) != bd * mult:
            continue
        groups = la.eigenvalue_clusters(vals[support], gap=1e-7)
        if len(groups) != bd or any(len(grp) != mult for grp in groups):
            continue
        sup_vecs = vecs[:, support]
        ps = []
        for grp in groups:
            cols = sup_vecs[:, grp]
            ps.append(cols @ la.dagger(cols))
        # partial isometries p_a -> p_0 through a generic algebra element
        vs: list[np.ndarray] = [ps[0]]
        good = True
        for a in range(1, bd):
            v = None
            for _ in range(_MAX_DRAWS):
                rc = rng.standard_normal(onb.shape[0]) + 1j * rng.standard_normal(onb.shape[0])
                r = np.tensordot(rc, onb, axes=(0, 0))
                w = ps[a] @ r @ ps[0]
                sv = np.linalg.svd(w, compute_uv=False)
                if int(np.sum(sv > 1e-7)) == mult and sv[mult - 1] > 1e-7:
                    v = la.polar_partial_isometry(w, Tolerance(abs=1e-7, rel=0.0))
                    break
            if v is None:
                good = False
                break
            vs.append(v)
        if not good:
            continue
        f = [[vs[a] @ la.dagger(vs[b]) for b in range(bd)] for a in range(bd)]
        if _units_residual(f, z) < 1e-8 * bd:
            return f
    raise InternalError("matrix unit construction failed")


def _units_residual(f: list[list[np.ndarray]], z: np.ndarray) -> float:
    bd = len(f)
    res = np.linalg.norm(sum(f[a][a] for a in range(bd)) - z)
    for a in range(bd):
        res = max(res, np.linalg.norm(la.dagger(f[a][0]) - f[0][a]))
        for b in range(bd):
            res = max(res, np.linalg.norm(f[a][0] @ f[0][b] - f[a][b]))
    return float(res)


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

    def __call__(self, x: np.ndarray) -> complex:
        return complex(np.sum(self.density.T * x))

    def is_state(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return abs(self(self.algebra.unit) - 1.0) <= tol.bound()

    def is_faithful(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return bool(np.all(self.weights > tol.abs))

    def sa_onb(self) -> np.ndarray:
        """Self-adjoint basis of the algebra orthonormal for <x,y> = tau(y* x)."""
        return _tau_onb(self.algebra.basis, self)

    def restrict(self, sub: StarAlgebra) -> "Trace":
        """Restriction to a subalgebra, re-expressed through its own blocks."""
        weights = [self(sub.minimal_projection(j)).real for j in range(len(sub.blocks))]
        return Trace(sub, weights)


def _tau_onb(basis: np.ndarray, trace: Trace) -> np.ndarray:
    """The tau-orthonormal rescaling of ``trace.algebra.basis``.

    On the unit-built basis the Gram matrix tau(b_k b_l) is diagonal, t_j / m_j
    on every element of block j (t_j the weight of a minimal projection), so
    block j is scaled by sqrt(m_j / t_j).  A non-faithful trace raises
    :class:`TraceError`.
    """
    blocks = trace.algebra.blocks
    if np.min(trace.weights) <= 0:
        raise TraceError("trace inner product is not positive definite (non-faithful trace)")
    scale = np.repeat(
        [np.sqrt(m / t) for (_, m), t in zip(blocks, trace.weights)], [d * d for d, _ in blocks]
    )
    return basis * scale[:, None, None]


def _combine(coeffs: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] stack[k], as one gemv on the flattened stack."""
    return (coeffs @ stack.reshape(stack.shape[0], -1)).reshape(stack.shape[1:])


def _expectation_rows(onb: np.ndarray, density: np.ndarray) -> np.ndarray:
    """Rows (rho c_k)^T flattened, so that rows @ x.ravel() lists tau(c_k x)."""
    return np.matmul(density, onb).transpose(0, 2, 1).reshape(onb.shape[0], -1)


class Superoperator:
    """Linear map between star algebras, checked through its Choi matrix.

    The map is stored as a callable on ambient matrices of the domain; the
    UCP test extends it to the full ambient by precomposing with the
    trace-preserving expectation onto the domain (which preserves complete
    positivity in both directions).
    """

    def __init__(
        self,
        domain: StarAlgebra,
        codomain: StarAlgebra,
        apply: Callable[[np.ndarray], np.ndarray],
        domain_trace: Trace | None = None,
        ad_unitary: np.ndarray | None = None,
    ) -> None:
        self.domain = domain
        self.codomain = codomain
        self._apply = apply
        self.domain_trace = domain_trace or Trace.normalized(domain)
        self.ad_unitary = ad_unitary

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self._apply(x)

    @cached_property
    def _domain_onb(self) -> np.ndarray:
        return _tau_onb(self.domain.basis, self.domain_trace)

    @cached_property
    def _domain_weighted(self) -> np.ndarray:
        return _expectation_rows(self._domain_onb, self.domain_trace.density)

    def extended(self, x: np.ndarray) -> np.ndarray:
        """Apply to an arbitrary ambient matrix via the expectation onto the domain."""
        coeffs = self._domain_weighted @ x.ravel()
        return self._apply(_combine(coeffs, self._domain_onb))

    @cached_property
    def choi(self) -> np.ndarray:
        """Choi matrix of the extended map on the full domain ambient."""
        nd = self.domain.ambient_dim
        nc = self.codomain.ambient_dim
        choi = np.zeros((nd * nc, nd * nc), dtype=complex)
        for i in range(nd):
            for j in range(nd):
                img = self.extended(_unit_matrix(nd, i, j))
                choi[i * nc : (i + 1) * nc, j * nc : (j + 1) * nc] = img
        return choi

    def is_unital(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return tol.close(self._apply(self.domain.unit), self.codomain.unit)

    def is_cp(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        if self.ad_unitary is not None:
            return la.is_unitary(self.ad_unitary, tol)
        return la.is_psd(self.choi, tol)

    def is_ucp(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return self.is_unital(tol) and self.is_cp(tol)


def conditional_expectation_onto(
    sub: StarAlgebra, ambient: StarAlgebra, trace: Trace
) -> Superoperator:
    """tau-preserving conditional expectation from ``ambient`` onto ``sub``.

    E(x) = P(x rho) P(rho)^{-1}, with P = ``sub.project`` and rho the central
    density of ``trace``.  Because rho commutes with ``sub``, tau(E(x) y) =
    tau(x y) for every y in ``sub`` and every matrix x, in or outside the
    ambient.  P(rho) is central in ``sub``: Tr(W_k* rho W_k) / (d_k m_k) on
    block k, so its inverse is a sum of central projections.
    """
    rho = trace.density
    inverse = sum(
        (d * m / np.trace(la.dagger(w) @ rho @ w).real) * z
        for (d, m), w, z in zip(sub.blocks, sub.frames, sub.central_projections)
    )

    def apply(x: np.ndarray) -> np.ndarray:
        return sub.project(x @ rho) @ inverse

    return Superoperator(ambient, sub, apply, domain_trace=trace)


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
    for j, z in enumerate(algebra.central_projections):
        block = la.span_onb([z @ b for b in onb], tol)
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
