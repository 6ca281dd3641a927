"""Dense complex linear algebra primitives consumed by every other module.

Conventions, fixed globally:

* matrices are numpy ``complex128`` arrays in the row-major computational
  basis; a Kronecker product ``kron(a, b)`` indexes ``(i, j) -> i * dim_b + j``;
* tensor legs are numbered from 0, left to right;
* "equal" always means equal within a :class:`Tolerance` on Frobenius norms;
* rank decisions (nullspace, span bases) compare singular values against
  the absolute tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConnectednessError, DimensionError, PreconditionError

DEFAULT_SEED = 42
_active_seed = DEFAULT_SEED
_INVERTIBLE_DRAWS = 8  # random combinations generic_invertible tries
_INVERTIBLE_GATE = 1e-6  # smallest singular value it accepts, of a unit-norm combination


def set_default_seed(seed: int) -> None:
    """Set the seed ``rng_from`` falls back to when given none, which the
    ``random_*`` helpers then use; no verdict of the package reads it."""
    global _active_seed
    _active_seed = int(seed)


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative Frobenius-norm thresholds used by every comparison.

    ``a`` and ``b`` count as equal when ``||a - b||_F <= abs + rel * scale``
    with ``scale`` the larger of the two norms.
    """

    abs: float = 1e-9
    rel: float = 1e-9

    def __post_init__(self) -> None:
        finite = math.isfinite(self.abs) and math.isfinite(self.rel)
        if not finite or self.abs < 0 or self.rel < 0 or (self.abs == 0 and self.rel == 0):
            raise ValueError("Tolerance needs finite, nonnegative abs and rel, not both zero")

    def bound(self, scale: float = 1.0) -> float:
        return self.abs + self.rel * scale

    def close(self, a: np.ndarray, b: np.ndarray) -> bool:
        scale = max(np.linalg.norm(a), np.linalg.norm(b))
        return float(np.linalg.norm(a - b)) <= self.bound(scale)


DEFAULT_TOL = Tolerance()


def rounding_bound(dim: int, scale: float | np.ndarray) -> float | np.ndarray:
    """16 dim eps scale, eps the machine epsilon: how far rounding alone moves a
    matrix of Frobenius norm ``scale`` formed by a few dense products at
    dimension ``dim`` (an inner product of length D is off by at most
    D eps / (1 - D eps) relative, Higham 2002, §3.1).  Not settable: it says
    what rounding explains, not what a caller accepts (:class:`Tolerance`)."""
    return 16 * dim * np.finfo(float).eps * scale


def rng_from(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce a seed or generator into a Generator (``None`` -> active seed)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_active_seed if seed is None else seed)


def as_matrix(x: object) -> np.ndarray:
    """Validate and return a finite complex matrix."""
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise PreconditionError("matrix has NaN or Inf entries")
    return m


def dagger(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack of shape (..., n, n)."""
    return np.conj(x.swapaxes(-1, -2))


def kron(*mats: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, left to right, or of
    stacks of them, matrix by matrix with the leading axes broadcast.

    Each step is one broadcast product a[i, j] * b[k, l] laid out at
    (i * rows_b + k, j * cols_b + l): for matrices, the entries of
    ``np.kron`` without its generic axis handling.
    """
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        m = np.asarray(m)
        prod = out[..., :, None, :, None] * m[..., None, :, None, :]
        out = prod.reshape(*prod.shape[:-4], out.shape[-2] * m.shape[-2], out.shape[-1] * m.shape[-1])
    return out


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b))


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack of shape (..., n, n), summed
    over the real and imaginary parts as views: no temporary of the stack's
    size.  A complex stack whose last axis is contiguous is read as one real
    view of its interleaved parts, in one pass."""
    stack = np.asarray(stack)
    if np.iscomplexobj(stack) and stack.ndim >= 2 and stack.strides[-1] == stack.itemsize:
        parts = stack.view(stack.real.dtype)
        return np.sqrt(np.einsum("...ij,...ij->...", parts, parts))
    squares = np.einsum("...ij,...ij->...", stack.real, stack.real)
    if np.iscomplexobj(stack):
        squares = squares + np.einsum("...ij,...ij->...", stack.imag, stack.imag)
    return np.sqrt(squares)


def max_entangled(n: int) -> np.ndarray:
    """Unit vector n^{-1/2} sum_i |ii> in C^n (x) C^n."""
    psi = np.zeros(n * n, dtype=complex)
    psi[:: n + 1] = 1.0 / np.sqrt(n)
    return psi


def partial_trace(
    x: np.ndarray,
    dims: Sequence[int],
    legs: Iterable[int],
    normalise: bool = False,
) -> np.ndarray:
    """Trace out the tensor legs named in ``legs`` (0-based).

    ``dims`` lists the leg dimensions whose product must equal the matrix
    dimension.  With ``normalise`` the result is divided by the traced
    dimension, turning Tr on those legs into the normalised trace.
    """
    x = as_matrix(x)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if x.shape != (total, total):
        raise DimensionError(f"matrix shape {x.shape} does not match dims {dims}")
    legs = sorted(set(int(l) for l in legs))
    if any(l < 0 or l >= len(dims) for l in legs):
        raise DimensionError(f"legs {legs} out of range for {len(dims)} legs")
    k = len(dims)
    tensor = x.reshape(dims + dims)
    for offset, leg in enumerate(legs):
        axis = leg - offset  # earlier traces shrink the index space
        rank = tensor.ndim // 2
        tensor = np.trace(tensor, axis1=axis, axis2=axis + rank)
    traced_dim = int(np.prod([dims[l] for l in legs])) if legs else 1
    keep = [dims[i] for i in range(k) if i not in legs]
    side = int(np.prod(keep)) if keep else 1
    out = tensor.reshape(side, side)
    if normalise:
        out = out / traced_dim
    return out


def nullspace(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of {v : a v = 0}, singular values <= tol.abs as zero."""
    a = as_matrix(a)
    if a.size == 0:
        return []
    return nullspaces(a[None], tol)[0]


def nullspaces(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> list[list[np.ndarray]]:
    """:func:`nullspace` of each matrix of a stack of shape (k, rows, cols),
    from one batched SVD; each matrix gets the vectors a single call gives."""
    # A tall input needs no full U (rows x rows); its reduced vh is already square.
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[-2] < a.shape[-1])
    ranks = np.sum(s > tol.abs, axis=-1)
    return [list(v[r:].conj()) for v, r in zip(vh, ranks)]


def pf_eigenvector(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> tuple[float, np.ndarray]:
    """Perron-Frobenius data of a nonnegative irreducible matrix.

    Returns the spectral radius together with the strictly positive
    eigenvector normalised to unit 1-norm.  Reducible input raises
    :class:`ConnectednessError`.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("pf_eigenvector expects a square matrix")
    if np.any(a < -tol.abs):
        raise ValueError("pf_eigenvector expects entrywise nonnegative input")
    n = a.shape[0]
    reach = np.linalg.matrix_power(np.eye(n) + (a > tol.abs), max(n - 1, 1))
    if np.any(reach <= 0):
        raise ConnectednessError("matrix is reducible")
    return _perron(a)


def _perron(a: np.ndarray) -> tuple[float, np.ndarray]:
    """:func:`pf_eigenvector` of a square nonnegative matrix already known
    to be irreducible."""
    vals, vecs = np.linalg.eig(a)
    idx = int(np.argmax(vals.real))
    top = float(vals[idx].real)
    v = vecs[:, idx].real
    if v.sum() < 0:
        v = -v
    if np.any(v <= 0):
        raise ConnectednessError("Perron vector not strictly positive")
    return top, v / v.sum()


def matrix_sqrt(p: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Principal square root of a PSD matrix (tiny negative eigenvalues clipped)."""
    p = as_matrix(p)
    vals, vecs = np.linalg.eigh((p + dagger(p)) / 2)
    scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 1.0)
    if np.min(vals) < -tol.bound(scale):
        raise ValueError("matrix_sqrt input is not PSD")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ dagger(vecs)


def polar_unitary(x: np.ndarray) -> np.ndarray:
    """Unitary factor of an invertible matrix via SVD."""
    u, _, vh = np.linalg.svd(x)
    return u @ vh


def is_hermitian(x: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    return tol.close(x, dagger(x))


def is_unitary(x: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool | np.ndarray:
    """Whether x is unitary by the rule of :meth:`Tolerance.close` for x* x
    and 1: ||x* x - 1|| <= tol.bound(max(||x* x||, ||1||)).  For a stack of
    shape (k, n, n), the array of the flags of its matrices, from one
    stacked product."""
    x = np.asarray(x)
    n = x.shape[-1]
    if x.shape[-2] != n:
        return False if x.ndim == 2 else np.zeros(len(x), dtype=bool)
    gram = dagger(x) @ x
    flags = frobenius_norms(gram - eye(n)) <= tol.bound(np.maximum(frobenius_norms(gram), np.sqrt(n)))
    return bool(flags) if x.ndim == 2 else flags


def is_psd(x: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    if not is_hermitian(x, tol):
        return False
    vals = np.linalg.eigvalsh((x + dagger(x)) / 2)
    scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 1.0)
    return bool(np.min(vals) >= -tol.bound(scale))


def random_hermitian(
    n: int, rng: np.random.Generator | int | None = None, count: int | None = None
) -> np.ndarray:
    """A GUE matrix of size n; with ``count``, a (count, n, n) stack of them,
    drawn in one call for the real parts and one for the imaginary parts."""
    rng = rng_from(rng)
    shape = (n, n) if count is None else (count, n, n)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return (g + dagger(g)) / 2


def random_density(n: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
    rng = rng_from(rng)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ dagger(g)
    return rho / np.trace(rho)


def random_unitary(n: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
    rng = rng_from(rng)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# Span utilities: operator subspaces as stacks of HS-orthonormal matrices.
# ---------------------------------------------------------------------------


def span_onb(mats: Sequence[np.ndarray], tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """HS-orthonormal basis of the span, returned as a (k, n, n) stack.

    Uses an SVD on the stacked vectorisations, so the result is canonical up
    to the usual SVD sign/phase conventions and rank cuts at tol.abs.
    """
    mats = [as_matrix(m) for m in mats]
    if not mats:
        return np.zeros((0, 0, 0), dtype=complex)
    n = mats[0].shape[0]
    flat = np.stack([m.reshape(-1) for m in mats])
    _, s, vh = np.linalg.svd(flat, full_matrices=False)
    rank = int(np.sum(s > tol.abs))
    return vh[:rank].reshape(rank, n, mats[0].shape[1])


def span_coords(onb: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Coordinates Tr(b_k^dagger x) of x against an HS-orthonormal stack.

    ``x`` is a matrix or a stack of shape (..., n, n), with coordinates of
    shape (..., k).  A matrix takes one gemv on the flattened stack,
    ``conj(flat @ conj(x))``, and a stack one gemm: the basis is never
    conjugated or copied.
    """
    flat = onb.reshape(onb.shape[0], -1)
    if np.ndim(x) == 2:
        return np.conj(flat @ np.conj(x).ravel())
    rows = np.conj(x).reshape(-1, flat.shape[1])
    return np.conj(rows @ flat.T).reshape(*np.shape(x)[:-2], onb.shape[0])


def span_project(onb: np.ndarray, x: np.ndarray) -> np.ndarray:
    """HS-orthogonal projection of a matrix, or of each matrix of a stack, onto the span."""
    flat = onb.reshape(onb.shape[0], -1)
    return (span_coords(onb, x) @ flat).reshape(np.shape(x))


def span_residual(onb: np.ndarray, x: np.ndarray) -> float:
    """Frobenius distance from x to the span."""
    return frobenius_distance(x, span_project(onb, x))


def product_span(a: np.ndarray, b: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """HS-orthonormal basis of span{x y : x in a, y in b} from ONB stacks.

    The library no longer calls it: joint algebras of commuting pairs come
    from matrix units through :meth:`StarAlgebra.commuting_product`.
    """
    prods = [x @ y for x in a for y in b]
    return span_onb(prods, tol)


def generic_invertible(
    basis: Sequence[np.ndarray], rng: np.random.Generator | int | None = None
) -> np.ndarray | None:
    """The HS projection onto the span of ``basis``, an HS-orthonormal
    stack, of a complex Gaussian matrix G drawn from ``rng``:
    sum_m <m, G> m, which depends on the span and not on the basis chosen
    for it.  Normalised, and accepted when its smallest singular value is
    above 1e-6; ``None`` for an empty basis or when none of eight draws
    passes."""
    if len(basis) == 0:
        return None
    onb = np.asarray(basis)
    rng = rng_from(rng)
    for _ in range(_INVERTIBLE_DRAWS):
        cand = span_project(onb, _gaussian(rng, onb.shape[1:]))
        cand = cand / max(np.linalg.norm(cand), 1e-30)
        if np.linalg.svd(cand, compute_uv=False)[-1] > _INVERTIBLE_GATE:
            return cand
    return None


def generic_invertibles(onbs: np.ndarray, seeds: Sequence[int]) -> list[np.ndarray | None]:
    """:func:`generic_invertible` of each HS-orthonormal stack of ``onbs``,
    of shape (k, dim, n, n), at its seed of ``seeds``, equal to k calls of it
    up to rounding.  The first draws of all k are projected in one stacked
    product and gated by one batched singular-value call; a stack whose
    first draw fails the gate goes through :func:`generic_invertible` at its
    own seed."""
    k, dim = onbs.shape[:2]
    flat = onbs.reshape(k, dim, -1)
    gs = np.stack([_gaussian(rng_from(seed), onbs.shape[2:]) for seed in seeds])
    coords = np.conj(flat @ np.conj(gs).reshape(k, -1, 1))
    cands = (np.swapaxes(coords, -1, -2) @ flat).reshape(gs.shape)
    cands /= np.maximum(frobenius_norms(cands), 1e-30)[:, None, None]
    passed = np.linalg.svd(cands, compute_uv=False)[:, -1] > _INVERTIBLE_GATE
    return [c if ok else generic_invertible(onb, seed) for c, ok, onb, seed in zip(cands, passed, onbs, seeds)]


def _gaussian(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """A complex Gaussian array, real parts drawn first."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
