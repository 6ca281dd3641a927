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
from .algebra import StarAlgebra, Superoperator, Trace, conditional_expectation_onto
from .errors import ConnectednessError, PreconditionError, StructureError
from .linalg import DEFAULT_TOL, Tolerance


def inclusion_matrix(small: StarAlgebra, big: StarAlgebra, gate: float = 1e-6) -> np.ndarray:
    """Integer matrix of multiplicities of the simple summands of ``small``
    inside the simple summands of ``big``.

    Entry (k, j) counts how often small-block j appears in big-block k; it
    is read off exactly as tr(z_k q_j) / m_k with q_j a minimal projection
    of small-block j, so only the rounding residual is gated.
    """
    rows = len(big.blocks)
    cols = len(small.blocks)
    out = np.zeros((rows, cols), dtype=int)
    for k, (z, (_, mult_k)) in enumerate(zip(big.central_projections, big.blocks)):
        for j in range(cols):
            q = small.minimal_projection(j)
            raw = float(np.trace(z @ q).real) / mult_k
            rounded = int(round(raw))
            if abs(raw - rounded) > gate or rounded < 0:
                raise StructureError(f"non-integer multiplicity {raw} at block ({k}, {j})")
            out[k, j] = rounded
    return out


def is_connected(small: StarAlgebra, big: StarAlgebra, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when the joint centre Z(N) ∩ Z(M) is the scalars.

    That holds exactly when the bipartite graph of the inclusion matrix
    (the Bratteli diagram, one vertex per block of N and of M) is connected.
    """
    lam = inclusion_matrix(small, big) > 0
    rows = np.arange(lam.shape[0]) == 0
    for _ in range(lam.shape[0]):
        rows = lam[:, lam[rows].any(axis=0)].any(axis=1)
    return bool(rows.all() and lam.any(axis=0).all())


def markov_trace(small: StarAlgebra, big: StarAlgebra, tol: Tolerance = DEFAULT_TOL) -> Trace:
    """The unique Markov trace of a connected inclusion.

    The block weight vector is the Perron-Frobenius eigenvector of
    Lambda Lambda^T, normalised to a state.
    """
    if not is_connected(small, big, tol):
        raise ConnectednessError("Markov trace requires a connected inclusion")
    lam = inclusion_matrix(small, big)
    _, vec = la.pf_eigenvector(lam @ lam.T, tol)
    dims = np.array([bd for bd, _ in big.blocks], dtype=float)
    weights = vec / float(dims @ vec)
    return Trace(big, weights)


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
        for b in small.basis:
            if not big.contains(b, tol):
                raise PreconditionError("N is not contained in M")
        if trace is None:
            trace = markov_trace(small, big, tol)
        if trace.algebra is not big:
            raise PreconditionError("trace must live on M")
        if not (trace.is_state(tol) and trace.is_faithful(tol)):
            raise PreconditionError("trace must be a faithful state")
        self.small = small
        self.big = big
        self.trace = trace
        self.tol = tol

    @cached_property
    def expectation(self) -> Superoperator:
        """The trace-preserving conditional expectation from M onto N."""
        return conditional_expectation_onto(self.small, self.big, self.trace)

    @cached_property
    def matrix(self) -> np.ndarray:
        return inclusion_matrix(self.small, self.big)

    @cached_property
    def connected(self) -> bool:
        return is_connected(self.small, self.big, self.tol)

    @cached_property
    def index(self) -> float:
        """||Lambda||^2; defined for connected inclusions only."""
        if not self.connected:
            raise ConnectednessError("index requires a connected inclusion")
        return index_from_matrix(self.matrix, self.tol)

    @cached_property
    def relative_commutant(self) -> StarAlgebra:
        """N' ∩ M inside the common ambient, as (N ∨ M')': N and M' commute."""
        return StarAlgebra.commuting_product(self.small, self.big.commutant).commutant

    def is_markov(self) -> bool:
        """Whether the installed trace equals the Markov trace."""
        if not self.connected:
            return False
        want = markov_trace(self.small, self.big, self.tol)
        return bool(np.max(np.abs(want.weights - self.trace.weights)) <= self.tol.bound())


def markov_inclusion(
    small: StarAlgebra, big: StarAlgebra, tol: Tolerance = DEFAULT_TOL
) -> Inclusion:
    """Inclusion equipped with its Markov trace."""
    return Inclusion(small, big, markov_trace(small, big, tol), tol)


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
    orthogonal projection onto {(y (x) 1) psi_n : y in N}.
    """
    n = small.ambient_dim
    psi = la.max_entangled(n)
    vecs = [la.kron(y, la.eye(n)) @ psi for y in small.basis]
    stack = np.stack(vecs)
    q, r = np.linalg.qr(stack.T)
    cols = q[:, np.abs(np.diag(r)) > 1e-12]
    return cols @ la.dagger(cols)
