import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opteleport import linalg as la
from opteleport.algebra import StarAlgebra
from opteleport.errors import ConnectednessError, DimensionError, PreconditionError
from opteleport.linalg import DEFAULT_TOL, Tolerance

from conftest import random_density

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_tolerance_requires_positive_threshold():
    with pytest.raises(ValueError):
        Tolerance(abs=0.0, rel=0.0)
    for bad in ({"abs": float("nan")}, {"rel": float("nan")}, {"abs": float("inf")}, {"rel": float("inf")}):
        with pytest.raises(ValueError, match="finite"):
            Tolerance(**bad)
    assert Tolerance(abs=1e-9, rel=0.0).close(np.eye(2), np.eye(2))


def test_kron_identity_cases():
    assert np.array_equal(la.kron(np.eye(2), np.eye(3)), np.eye(6))
    got = la.kron(np.diag([1.0, 0.0]), np.eye(2))
    assert np.array_equal(got, np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))


def test_kron_pauli_flip_on_00():
    # (X (x) X)|00> = |11>, hand expansion
    v00 = np.zeros(4, dtype=complex)
    v00[0] = 1.0
    got = la.kron(X, X) @ v00
    want = np.zeros(4, dtype=complex)
    want[3] = 1.0
    assert np.abs(got - want).max() < 1e-15


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 4), st.integers(2, 4), st.integers(2, 3))
def test_kron_mixed_product_law(seed, n, m, k):
    rng = np.random.default_rng(seed)
    a, c = (la.random_hermitian(n, rng) for _ in range(2))
    b, d = (la.random_hermitian(m, rng) for _ in range(2))
    lhs = la.kron(a, b) @ la.kron(c, d)
    rhs = la.kron(a @ c, b @ d)
    assert la.frobenius_distance(lhs, rhs) < DEFAULT_TOL.bound(np.linalg.norm(lhs))


def test_kron_associativity():
    rng = np.random.default_rng(7)
    a, b, c = (la.random_hermitian(2, rng) for _ in range(3))
    assert DEFAULT_TOL.close(la.kron(la.kron(a, b), c), la.kron(a, b, c))


def test_partial_trace_bell_projector():
    # expanding the maximally entangled projector by hand gives id/2 on one leg
    psi = la.max_entangled(2)
    proj = np.outer(psi, psi.conj())
    got = la.partial_trace(proj, [2, 2], {1})
    assert la.frobenius_distance(got, np.eye(2) / 2) < 1e-14


def test_partial_trace_identity_normalised():
    got = la.partial_trace(np.eye(4, dtype=complex), [2, 2], {0}, normalise=True)
    assert la.frobenius_distance(got, np.eye(2)) < 1e-14


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 4), st.integers(2, 4))
def test_partial_trace_factorises_on_products(seed, n, m):
    rng = np.random.default_rng(seed)
    a = la.random_hermitian(n, rng)
    b = la.random_hermitian(m, rng)
    got = la.partial_trace(la.kron(a, b), [n, m], {1}, normalise=True)
    want = (np.trace(b) / m) * a
    assert la.frobenius_distance(got, want) < 1e-11
    got0 = la.partial_trace(la.kron(a, b), [n, m], {0})
    assert la.frobenius_distance(got0, np.trace(a) * b) < 1e-11


def test_partial_trace_three_legs_middle():
    rng = np.random.default_rng(3)
    a, b, c = la.random_hermitian(2, rng), la.random_hermitian(3, rng), la.random_hermitian(2, rng)
    got = la.partial_trace(la.kron(a, b, c), [2, 3, 2], {1})
    assert la.frobenius_distance(got, np.trace(b) * la.kron(a, c)) < 1e-11


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionError):
        la.partial_trace(np.eye(4, dtype=complex), [2, 3], {0})


def test_nullspace_basics():
    assert la.nullspace(np.eye(2, dtype=complex)) == []
    basis = la.nullspace(np.zeros((2, 2), dtype=complex))
    assert len(basis) == 2
    gram = np.array([[np.vdot(u, v) for v in basis] for u in basis])
    assert la.frobenius_distance(gram, np.eye(2)) < 1e-12
    span = la.nullspace(np.diag([1.0, 0.0]))
    assert len(span) == 1 and abs(abs(span[0][1]) - 1) < 1e-12


def test_pf_eigenvector_known_cases():
    val, vec = la.pf_eigenvector(np.array([[5.0]]))
    assert val == pytest.approx(5.0) and vec == pytest.approx([1.0])
    lam = np.array([[1.0], [1.0]])  # 2x1, gram is [[2]] — use lam lam^T instead
    val, vec = la.pf_eigenvector(lam @ lam.T)
    assert val == pytest.approx(2.0)
    assert np.all(vec > 0)


def test_pf_eigenvector_reducible_raises():
    with pytest.raises(ConnectednessError):
        la.pf_eigenvector(np.diag([1.0, 2.0]))


def test_pf_eigenvector_refuses_a_negative_entry_with_a_typed_error():
    with pytest.raises(PreconditionError, match="nonnegative"):
        la.pf_eigenvector(np.array([[1.0, -1.0], [1.0, 1.0]]))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 5))
def test_pf_eigen_residual_random(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) + 0.05  # strictly positive => irreducible
    val, vec = la.pf_eigenvector(a)
    assert np.abs(a @ vec - val * vec).max() < 1e-9


def test_matrix_sqrt_squares_back():
    rng = np.random.default_rng(5)
    for n in (2, 3, 5):
        p = random_density(n, rng) * n
        r = la.matrix_sqrt(p)
        assert la.frobenius_distance(r @ r, p) < 1e-10
    with pytest.raises(PreconditionError):
        la.matrix_sqrt(-np.eye(2, dtype=complex))


def test_polar_unitary():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u = la.polar_unitary(x)
    assert la.is_unitary(u)
    # polar factor of an already-unitary matrix is itself
    w = la.random_unitary(3, rng)
    assert la.frobenius_distance(la.polar_unitary(w), w) < 1e-12


def test_predicates():
    assert la.is_unitary(X)
    assert not la.is_unitary(2 * X)
    assert la.is_psd(np.diag([0.0, 1.0]).astype(complex))
    assert not la.is_psd(Z)


def test_random_generators_are_seeded_deterministic():
    u = la.random_unitary(4, 123)
    assert la.is_unitary(u) and np.array_equal(u, la.random_unitary(4, 123))
    h = la.random_hermitian(4, 123)
    assert la.is_hermitian(h) and np.array_equal(h, la.random_hermitian(4, 123))
    # one complex Gaussian, real parts drawn first
    rng = np.random.default_rng(123)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.array_equal(h, (g + la.dagger(g)) / 2)


def test_span_utilities_roundtrip():
    rng = np.random.default_rng(2)
    mats = [la.random_hermitian(3, rng) for _ in range(3)]
    onb = la.span_onb(mats)
    assert onb.shape[0] == 3
    x = 0.3 * mats[0] - 1.7 * mats[2]
    assert la.span_residual(onb, x) < 1e-12
    assert la.span_residual(onb, la.random_hermitian(3, np.random.default_rng(99))) > 1e-3


def _span_reference(onb, x):
    coords = np.einsum("kij,ij->k", np.conj(onb), x)
    return coords, np.einsum("k,kij->ij", coords, onb)


def test_span_coords_and_project_match_einsum():
    rng = np.random.default_rng(5)
    ginibre = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(6)]
    non_hermitian = la.span_onb(ginibre)
    assert not all(la.is_hermitian(b) for b in non_hermitian)
    algebra_basis = StarAlgebra.block_diagonal([(2, 1), (1, 2)]).basis
    for onb in (non_hermitian, algebra_basis):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        coords, proj = _span_reference(onb, x)
        assert np.max(np.abs(la.span_coords(onb, x) - coords)) < 1e-12
        assert np.max(np.abs(la.span_project(onb, x) - proj)) < 1e-12


def test_nullspace_of_tall_and_wide_inputs():
    rng = np.random.default_rng(8)
    left = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    right = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    for a in (left @ right, (left @ right)[:2]):  # rank 3 of 40 x 5; rank 2 of 2 x 5
        basis = la.nullspace(a)
        assert len(basis) == 5 - min(3, a.shape[0])
        assert max(np.linalg.norm(a @ v) for v in basis) < 1e-9
        gram = np.array([[np.vdot(u, v) for v in basis] for u in basis])
        assert la.frobenius_distance(gram, np.eye(len(basis))) < 1e-12


def test_max_entangled_vector():
    psi = la.max_entangled(3)
    assert abs(np.linalg.norm(psi) - 1) < 1e-14
    # (x (x) 1) psi = (1 (x) x^t) psi for all x
    rng = np.random.default_rng(1)
    x = la.random_hermitian(3, rng)
    lhs = la.kron(x, np.eye(3)) @ psi
    rhs = la.kron(np.eye(3), x.T) @ psi
    assert np.abs(lhs - rhs).max() < 1e-12


def test_generic_invertible_finds_candidate():
    basis = [np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)]
    cand = la.generic_invertible(basis, 3)
    assert cand is not None
    assert np.linalg.svd(cand, compute_uv=False)[-1] > 1e-6
    # a span of singular matrices yields None
    nil = np.array([[0, 1], [0, 0]], dtype=complex)
    assert la.generic_invertible([nil], 3) is None
    # and so does the empty span
    assert la.generic_invertible([], 3) is None


def test_generic_invertible_depends_on_the_span_only():
    # two orthonormal bases of one span, related by a unitary mixing, give
    # the same projection of the same Gaussian draw
    rng = np.random.default_rng(4)
    onb = la.span_onb([la.random_hermitian(3, rng) for _ in range(4)])
    mix = la.random_unitary(4, rng)
    other = np.tensordot(mix, onb, axes=1)
    want = la.generic_invertible(list(onb), 9)
    assert la.frobenius_distance(la.generic_invertible(list(other), 9), want) < 1e-12
    assert la.frobenius_distance(la.span_project(onb, want), want) < 1e-12


def test_frobenius_norms_read_every_layout():
    # a contiguous complex stack is read as one real view; strided views,
    # real stacks and single matrices take the two-part sum
    rng = np.random.default_rng(17)
    xs = rng.standard_normal((4, 3, 5, 5)) + 1j * rng.standard_normal((4, 3, 5, 5))
    want = np.linalg.norm(xs, axis=(-2, -1))
    for stack in (xs, np.swapaxes(xs, -1, -2), xs[..., ::2, :], xs.real):
        ref = np.linalg.norm(stack, axis=(-2, -1))
        assert np.max(np.abs(la.frobenius_norms(stack) - ref) / ref) <= 1e-15
    assert abs(la.frobenius_norms(xs[0, 0]) - want[0, 0]) <= 1e-15 * want[0, 0]
    assert la.frobenius_norms(np.zeros((2, 0, 0), dtype=complex)).tolist() == [0.0, 0.0]


def test_is_unitary_flags_each_matrix_of_a_stack():
    # the stacked flags follow Tolerance.close of x* x and 1, matrix by matrix
    u = la.random_unitary(4, 3)
    tol = Tolerance(abs=1e-6, rel=1e-6)
    stack = np.stack([u, 2 * u, u + 1e-8, u + 1e-4])
    want = [tol.close(la.dagger(x) @ x, la.eye(4)) for x in stack]
    assert la.is_unitary(stack, tol).tolist() == want == [True, False, True, False]
    assert la.is_unitary(u, tol) is True and la.is_unitary(2 * u, tol) is False
    assert la.is_unitary(np.zeros((3, 2, 4), dtype=complex)).tolist() == [False] * 3


def test_generic_invertibles_match_one_draw_per_stack(monkeypatch):
    rng = np.random.default_rng(11)
    onb = np.linalg.qr(rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2)))[0].T.reshape(2, 3, 3)
    singular = np.zeros((2, 3, 3), dtype=complex)
    singular[0, 0, 0] = singular[1, 0, 1] = 1.0  # E_00 and E_01: every combination is singular
    onbs = np.stack([onb, onb[::-1], singular])
    seeds = [4, 5, 6]
    fallbacks = []
    one = la.generic_invertible
    monkeypatch.setattr(la, "generic_invertible", lambda onb, seed: fallbacks.append(seed) or one(onb, seed))
    got = la.generic_invertibles(onbs, seeds)
    assert fallbacks == [6] and got[2] is None
    for g, onb, seed in zip(got[:2], onbs, seeds):
        assert np.max(np.abs(g - one(list(onb), seed))) <= 1e-14


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_matrices_are_refused_with_a_typed_error(bad):
    from opteleport.errors import PreconditionError

    x = np.eye(2, dtype=complex)
    x[0, 1] = bad
    with pytest.raises(PreconditionError, match="NaN or Inf"):
        la.as_matrix(x)
    with pytest.raises(PreconditionError, match="NaN or Inf"):
        StarAlgebra.from_generators([x], 2)
