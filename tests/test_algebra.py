import numpy as np
import pytest

from opteleport import linalg as la
from opteleport.algebra import (
    StarAlgebra,
    Superoperator,
    Trace,
    conditional_expectation_onto,
    intersect,
    scalar_decompose_cp_family,
)
from opteleport.errors import NotScalarError, PreconditionError, StructureError


def brute_force_commutant(alg: StarAlgebra) -> np.ndarray:
    """Oracle: stacked-commutator nullspace in the full ambient."""
    n = alg.ambient_dim
    rows = []
    for b in alg.basis:
        rows.append(np.kron(np.eye(n), b) - np.kron(b.T, np.eye(n)))
    vecs = la.nullspace(np.vstack(rows))
    return la.span_onb([v.reshape(n, n) for v in vecs])


def shift_unitary(n: int) -> np.ndarray:
    return np.roll(np.eye(n, dtype=complex), 1, axis=0)


def clock_unitary(n: int) -> np.ndarray:
    return np.diag(np.exp(2j * np.pi * np.arange(n) / n))


def test_from_generators_trivial():
    alg = StarAlgebra.from_generators([], 2)
    assert alg.blocks == [(1, 2)]
    assert alg.dim == 1


def test_from_generators_diagonal():
    alg = StarAlgebra.from_generators([np.diag([1.0, 0.0]).astype(complex)], 2)
    assert alg.blocks == [(1, 1), (1, 1)]
    assert alg.dim == 2


def test_from_generators_weyl_spans_full():
    # the clock-and-shift pair generates the whole matrix algebra
    for n in (2, 3):
        alg = StarAlgebra.from_generators([shift_unitary(n), clock_unitary(n)], n)
        assert alg.blocks == [(n, 1)]
        assert alg.dim == n * n


def test_basis_is_selfadjoint_orthonormal():
    alg = StarAlgebra.block_diagonal([(1, 1), (2, 1)])
    for b in alg.basis:
        assert la.is_hermitian(b)
    gram = np.einsum("kab,lba->kl", alg.basis.conj().transpose(0, 2, 1), alg.basis)
    assert la.frobenius_distance(gram, np.eye(alg.dim)) < 1e-10


def test_structure_discovery_idempotent():
    alg = StarAlgebra.block_diagonal([(2, 1), (2, 1)])
    redo = StarAlgebra.from_span(alg.basis)
    assert redo.blocks == alg.blocks
    assert redo.same_span(alg)


def test_matrix_unit_relations():
    alg = StarAlgebra.from_generators(
        [np.kron(np.eye(2, dtype=complex), np.array([[0, 1], [0, 0]], dtype=complex))], 4
    )
    assert alg.blocks == [(2, 2)]
    f = alg.matrix_units[0]
    for a in range(2):
        for b in range(2):
            assert alg.contains(f[a][b])
            for c in range(2):
                for d in range(2):
                    want = f[a][d] if b == c else np.zeros_like(f[a][d])
                    assert la.frobenius_distance(f[a][b] @ f[c][d], want) < 1e-9


def test_commutant_full_and_abelian():
    assert StarAlgebra.full(3).commutant.blocks == [(1, 3)]
    diag = StarAlgebra.diagonal(3)
    assert diag.commutant.same_span(diag)  # maximal abelian


def test_commutant_tensor_factor_against_oracle():
    # 1 (x) M_2 inside M_4 has commutant M_2 (x) 1
    nil = np.array([[0, 1], [0, 0]], dtype=complex)
    alg = StarAlgebra.from_generators([np.kron(np.eye(2, dtype=complex), nil)], 4)
    comm = alg.commutant
    want = la.span_onb([np.kron(m, np.eye(2)) for m in StarAlgebra.full(2).basis])
    assert comm.dim == 4
    for b in comm.basis:
        assert la.span_contains(want, b)
    oracle = brute_force_commutant(alg)
    assert oracle.shape[0] == comm.dim
    for b in comm.basis:
        assert la.span_contains(oracle, b)


def test_double_commutant_returns_same_span():
    for alg in (
        StarAlgebra.diagonal(3),
        StarAlgebra.block_diagonal([(1, 1), (2, 1)]),
        StarAlgebra.block_diagonal([(2, 2)]),
    ):
        assert alg.commutant.commutant.same_span(alg)


def test_block_dimension_identity():
    for alg in (
        StarAlgebra.block_diagonal([(1, 1), (2, 1)]),
        StarAlgebra.block_diagonal([(2, 1), (2, 1)]),
        StarAlgebra.diagonal(4),
    ):
        assert alg.dim == sum(n * n for n, _ in alg.blocks)
        ranks = [int(round(np.trace(z).real)) for z in alg.central_projections]
        assert ranks == [n * m for n, m in alg.blocks]


def test_tensor_algebra():
    t = StarAlgebra.tensor(StarAlgebra.full(2), StarAlgebra.diagonal(2))
    assert t.ambient_dim == 4
    assert sorted(t.blocks) == [(2, 1), (2, 1)]
    assert t.dim == 8


def test_intersect_self_and_relative_commutant():
    m2 = StarAlgebra.full(2)
    diag = StarAlgebra.diagonal(2)
    both = intersect(m2, m2)
    assert both.same_span(m2)
    # N' ∩ M for the diagonals inside M_2 is the diagonals again
    rel = intersect(diag.commutant, m2)
    assert rel.same_span(diag)


def test_intersect_centers_connectedness():
    n = StarAlgebra.diagonal(2)
    m = StarAlgebra.full(2)
    assert intersect(n.center, m.center).dim == 1


def test_nonunital_span_rejected():
    with pytest.raises(StructureError):
        StarAlgebra(2, [(1, 1)], [np.array([[1.0], [0.0]])])


def test_trace_normalized_and_restriction():
    m = StarAlgebra.block_diagonal([(1, 1), (2, 1)])
    t = Trace.normalized(m)
    assert abs(t(m.unit) - 1) < 1e-12
    assert t.is_state() and t.is_faithful()
    # traciality on random pairs in the algebra
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = np.tensordot(rng.standard_normal(m.dim), m.basis, axes=(0, 0))
        y = np.tensordot(rng.standard_normal(m.dim), m.basis, axes=(0, 0))
        assert abs(t(x @ y) - t(y @ x)) < 1e-10


def test_trace_sa_onb_orthonormal():
    m = StarAlgebra.block_diagonal([(1, 1), (2, 1)])
    t = Trace(m, [1 / 5, 2 / 5])  # the flat-over-dimension weights on C + M_2
    onb = t.sa_onb()
    gram = np.array([[t(a @ b).real for b in onb] for a in onb])
    assert la.frobenius_distance(gram, np.eye(m.dim)) < 1e-10
    for b in onb:
        assert la.is_hermitian(b)


def test_conditional_expectation_depolarising():
    # expectation onto C: tau(.) 1
    m = StarAlgebra.full(2)
    triv = StarAlgebra.trivial(2)
    t = Trace.normalized(m)
    e = conditional_expectation_onto(triv, m, t)
    x = la.random_hermitian(2, 3)
    assert la.frobenius_distance(e(x), t(x) * np.eye(2)) < 1e-12
    assert e.is_ucp()


def test_conditional_expectation_pinching():
    m = StarAlgebra.full(3)
    diag = StarAlgebra.diagonal(3)
    e = conditional_expectation_onto(diag, m, Trace.normalized(m))
    x = la.random_hermitian(3, 4)
    assert la.frobenius_distance(e(x), np.diag(np.diag(x))) < 1e-12


def test_conditional_expectation_identity_case():
    m = StarAlgebra.full(2)
    e = conditional_expectation_onto(m, m, Trace.normalized(m))
    x = la.random_hermitian(2, 5)
    assert la.frobenius_distance(e(x), x) < 1e-12


def test_conditional_expectation_properties():
    # idempotent, trace-preserving, bimodule over the subalgebra
    m = StarAlgebra.full(4)
    sub = StarAlgebra.from_generators(
        [np.kron(la.random_hermitian(2, 1), np.eye(2, dtype=complex))], 4
    )
    t = Trace.normalized(m)
    e = conditional_expectation_onto(sub, m, t)
    rng = np.random.default_rng(17)
    for _ in range(5):
        x = la.random_hermitian(4, rng)
        ex = e(x)
        assert la.frobenius_distance(e(ex), ex) < 1e-10
        assert abs(t(ex) - t(x)) < 1e-10
        a = sub.project(la.random_hermitian(4, rng))
        b = sub.project(la.random_hermitian(4, rng))
        assert la.frobenius_distance(e(a @ x @ b), a @ ex @ b) < 1e-9
    assert e.is_ucp()


def test_superoperator_choi_flags():
    m = StarAlgebra.full(2)
    ident = Superoperator(m, m, lambda x: x)
    assert ident.is_ucp()
    transpose = Superoperator(m, m, lambda x: x.T)
    assert transpose.is_unital() and not transpose.is_cp()


def test_scalar_decomposition_paper_remark_values():
    # split of the identity on the two-point diagonal algebra with known scalars
    alg = StarAlgebra.diagonal(2)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    t1 = Superoperator(alg, alg, lambda x: 0.5 * p0 * x[0, 0])
    t2 = Superoperator(alg, alg, lambda x: 0.5 * p0 * x[0, 0] + p1 * x[1, 1])
    mu = scalar_decompose_cp_family([t1, t2], alg)
    assert np.abs(mu - np.array([[0.5, 0.0], [0.5, 1.0]])).max() < 1e-12


def test_scalar_decomposition_identity_and_convex_split():
    alg = StarAlgebra.full(2)
    ident = Superoperator(alg, alg, lambda x: x)
    mu = scalar_decompose_cp_family([ident], alg)
    assert np.abs(mu - 1.0).max() < 1e-12
    lam = 0.3
    s1 = Superoperator(alg, alg, lambda x: lam * x)
    s2 = Superoperator(alg, alg, lambda x: (1 - lam) * x)
    mu2 = scalar_decompose_cp_family([s1, s2], alg)
    assert np.abs(mu2 - np.array([[lam], [1 - lam]])).max() < 1e-12


def test_scalar_decomposition_rejects_bad_family():
    alg = StarAlgebra.full(2)
    half = Superoperator(alg, alg, lambda x: 0.5 * x)
    with pytest.raises(PreconditionError):
        scalar_decompose_cp_family([half], alg)
    # a CP family summing to id but not scalar per block cannot exist on a
    # factor; on the diagonals a non-scalar (permuting) summand trips the gate
    diag = StarAlgebra.diagonal(2)
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    t1 = Superoperator(diag, diag, lambda x: 0.5 * swap @ x @ swap)
    t2 = Superoperator(diag, diag, lambda x: x - 0.5 * swap @ x @ swap)
    with pytest.raises(NotScalarError):
        scalar_decompose_cp_family([t1, t2], diag)


def test_image_propagates_structure():
    src = StarAlgebra.block_diagonal([(1, 1), (2, 1)])
    phi = lambda x: np.kron(x, np.eye(2, dtype=complex))
    img = src.image(phi, 6)
    assert img.blocks == [(1, 2), (2, 2)]
    assert img.contains(phi(src.basis[2]))


def test_conjugate_entrywise():
    alg = StarAlgebra.full(2)
    conj = alg.conjugate_entrywise()
    assert conj.same_span(alg)  # full algebra is conjugation invariant



def test_conditional_expectation_matches_tau_onb_formula_nonuniform():
    # E(x) = sum_k tau(c_k x) c_k under a non-uniform trace, x non-Hermitian
    # and outside the ambient algebra, on rotated frames
    u = la.random_unitary(8, 41)
    rotate = lambda a: a.image(lambda x: u @ x @ la.dagger(u), 8)  # noqa: E731
    ambient = rotate(StarAlgebra.block_diagonal([(1, 1), (2, 2), (3, 1)]))
    sub = rotate(StarAlgebra.block_diagonal([(1, 1), (1, 2), (1, 2), (1, 1), (2, 1)]))
    tau = Trace(ambient, [0.1, 0.15, 0.2])
    gram = np.array([[tau(a @ b).real for b in sub.basis] for a in sub.basis])
    vals, vecs = np.linalg.eigh(gram)
    onb = np.tensordot((vecs / np.sqrt(vals)) @ vecs.T, sub.basis, axes=(1, 0))
    rng = np.random.default_rng(42)
    x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    assert ambient.membership_residual(x) > 1e-3
    want = sum(tau(c @ x) * c for c in onb)
    assert la.frobenius_distance(conditional_expectation_onto(sub, ambient, tau)(x), want) < 1e-12
