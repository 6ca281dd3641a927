"""Unital inclusions of finite-dimensional *-algebras with a trace.

An :class:`Inclusion` bundles a pair N inside M together with a faithful
tracial state on M and caches the derived data: the trace-preserving
conditional expectation onto N, the integer inclusion matrix, the Markov
trace and the index.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import linalg as la
from .algebra import (
    StarAlgebra,
    Superoperator,
    Trace,
    _generators,
    _holds,
    _masses,
    conditional_expectation_onto,
)
from .errors import ConnectednessError, PreconditionError, StructureError
from .linalg import DEFAULT_TOL, Tolerance


_MULTIPLICITY_GATE = 1e-6  # rounding residual allowed on an entry of the inclusion matrix


def inclusion_matrix(small: StarAlgebra, big: StarAlgebra) -> np.ndarray:
    """Integer matrix of multiplicities of the simple summands of ``small``
    inside the simple summands of ``big``.

    Entry (k, j) counts how often small-block j appears in big-block k; it
    is read off exactly as tr(z_k q_j) / m_k with q_j a minimal projection
    of small-block j, so only the rounding residual is gated.
    """
    if small.ambient_dim != big.ambient_dim:
        raise PreconditionError("N and M must share an ambient")
    raw = _masses(big, small) / np.array([[m] for _, m in big.blocks])
    out = np.round(raw).astype(int)
    for k, j in np.argwhere((np.abs(raw - out) > _MULTIPLICITY_GATE) | (out < 0))[:1]:
        raise StructureError(f"non-integer multiplicity {raw[k, j]} at block ({k}, {j})")
    return out


def is_connected(small: StarAlgebra, big: StarAlgebra) -> bool:
    """True when the joint centre Z(N) ∩ Z(M) is the scalars.

    That holds exactly when the bipartite graph of the inclusion matrix
    (the Bratteli diagram, one vertex per block of N and of M) is connected.
    """
    return _connected(inclusion_matrix(small, big))


def _connected(lam: np.ndarray) -> bool:
    """:func:`is_connected` read off the inclusion matrix ``lam``."""
    lam = lam > 0
    rows = np.arange(lam.shape[0]) == 0
    for _ in range(lam.shape[0]):
        rows = lam[:, lam[rows].any(axis=0)].any(axis=1)
    return bool(rows.all() and lam.any(axis=0).all())


def markov_trace(small: StarAlgebra, big: StarAlgebra) -> Trace:
    """The unique Markov trace of a connected inclusion.

    The block weight vector is the Perron-Frobenius eigenvector of
    Lambda Lambda^T, normalised to a state.  The trace keeps Lambda and the
    Perron-Frobenius eigenvalue ||Lambda||^2, which an :class:`Inclusion` of
    ``small`` in ``big`` built on it reads as its matrix and its index.
    """
    lam = inclusion_matrix(small, big)
    if not _connected(lam):
        raise ConnectednessError("Markov trace requires a connected inclusion")
    # a connected Bratteli diagram makes Lambda Lambda^T irreducible
    top, vec = la._perron(lam @ lam.T)
    dims = np.array([bd for bd, _ in big.blocks], dtype=float)
    return _MarkovTrace(big, vec / float(dims @ vec), small, lam, top)


class _MarkovTrace(Trace):
    """A Markov trace with the inclusion matrix of ``small`` in its algebra
    and the index it was read from."""

    def __init__(
        self, big: StarAlgebra, weights: np.ndarray, small: StarAlgebra, lam: np.ndarray, index: float
    ) -> None:
        super().__init__(big, weights)
        self.small, self.matrix, self.index = small, lam, index


def index_from_matrix(lam: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> float:
    """||Lambda||^2 via the Perron-Frobenius eigenvalue of Lambda^T Lambda."""
    val, _ = la.pf_eigenvector(lam.T @ lam, tol)
    return float(val)


class Inclusion:
    """A unital pair N ⊆ M carrying a faithful tracial state on M."""

    def __init__(
        self,
        small: StarAlgebra,
        big: StarAlgebra,
        trace: Trace | None = None,
        tol: Tolerance = DEFAULT_TOL,
    ) -> None:
        if small.ambient_dim != big.ambient_dim:
            raise PreconditionError("N and M must share an ambient")
        if not _holds(big, _generators(small), tol):  # M is a *-algebra: N's units generate N in M
            raise PreconditionError("N is not contained in M")
        if trace is None:
            trace = markov_trace(small, big)
        if trace.algebra is not big:
            raise PreconditionError("trace must live on M")
        if not (trace.is_state(tol) and trace.is_faithful(tol)):
            raise PreconditionError("trace must be a faithful state")
        self.small = small
        self.big = big
        self.trace = trace
        self.tol = tol
        if isinstance(trace, _MarkovTrace) and trace.small is small:
            self.matrix, self.index = trace.matrix, trace.index

    @cached_property
    def expectation(self) -> Superoperator:
        """The trace-preserving conditional expectation from M onto N."""
        return conditional_expectation_onto(self.small, self.big, self.trace)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Lambda; a Markov trace built for this pair hands over the one it was read from."""
        return inclusion_matrix(self.small, self.big)

    @cached_property
    def connected(self) -> bool:
        return _connected(self.matrix)

    @cached_property
    def index(self) -> float:
        """||Lambda||^2; defined for connected inclusions only.  With a Markov
        trace built for this pair, the Perron-Frobenius eigenvalue of
        Lambda Lambda^T it was read from."""
        if not self.connected:
            raise ConnectednessError("index requires a connected inclusion")
        return index_from_matrix(self.matrix, self.tol)

    @cached_property
    def relative_commutant(self) -> StarAlgebra:
        """N' ∩ M inside the common ambient.  For M = M_n it is N' itself,
        ``small.commutant``; for any other M it is (N ∨ M')', as N and M'
        commute."""
        n = self.big.ambient_dim
        if self.big.dim == n * n:
            return self.small.commutant
        return StarAlgebra.commuting_product(self.small, self.big.commutant, self.tol).commutant


def markov_inclusion(
    small: StarAlgebra, big: StarAlgebra, tol: Tolerance = DEFAULT_TOL
) -> Inclusion:
    """Inclusion equipped with its Markov trace."""
    return Inclusion(small, big, markov_trace(small, big), tol)


def trivial_in_full(n: int) -> Inclusion:
    """C ⊆ M_n with the normalised trace."""
    return markov_inclusion(StarAlgebra.trivial(n), StarAlgebra.full(n))


def diagonal_in_full(n: int) -> Inclusion:
    """The diagonal maximal abelian subalgebra of M_n, with tau_n."""
    return markov_inclusion(StarAlgebra.diagonal(n), StarAlgebra.full(n))


def homogeneous_in_full(k: int, block: int) -> Inclusion:
    """The homogeneous subalgebra (+)^k M_block of M_{k * block}."""
    small = StarAlgebra.block_diagonal([(block, 1)] * k)
    return markov_inclusion(small, StarAlgebra.full(k * block))


def concrete_jones_projection(small: StarAlgebra) -> np.ndarray:
    """Jones projection of N ⊆ M_n in the C^n (x) C^n picture of L^2(M_n, tau_n).

    The GNS space of (M_n, tau_n) is identified with C^n (x) C^n through
    x -> (x (x) 1) psi_n, so the projection onto the closure of N is the
    orthogonal projection onto {(y (x) 1) psi_n : y in N}.  Since
    <(a (x) 1) psi_n, (b (x) 1) psi_n> = Tr(a* b) / n, the vectors
    sqrt(n) (b (x) 1) psi_n over the HS-orthonormal basis of N are already
    orthonormal, and e = C C* for C their columns.
    """
    # sqrt(n) (b (x) 1) psi_n is b raveled row-major
    cols = small.basis.reshape(small.dim, -1).T
    return cols @ la.dagger(cols)
