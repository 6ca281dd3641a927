import numpy as np
import pytest

from opteleport import linalg as la
from opteleport.algebra import StarAlgebra, Trace
from opteleport.errors import ConnectednessError, PreconditionError
from opteleport.inclusion import (
    Inclusion,
    concrete_jones_projection,
    diagonal_in_full,
    homogeneous_in_full,
    inclusion_matrix,
    index_from_matrix,
    is_connected,
    markov_inclusion,
    markov_trace,
    trivial_in_full,
)


def test_inclusion_matrix_trivial_in_full():
    inc = trivial_in_full(3)
    assert inc.matrix.tolist() == [[3]]


def test_inclusion_matrix_diagonal_in_full():
    inc = diagonal_in_full(2)
    assert inc.matrix.tolist() == [[1, 1]]


def test_inclusion_matrix_homogeneous():
    inc = homogeneous_in_full(2, 2)
    assert inc.matrix.tolist() == [[1, 1]]


def test_inclusion_matrix_multiblock_big():
    # C + M_2 above C: column counts block multiplicities of the unit
    small = StarAlgebra.trivial(3)
    big = StarAlgebra.block_diagonal([(1, 1), (2, 1)])
    lam = inclusion_matrix(small, big)
    assert sorted(lam.reshape(-1).tolist()) == [1, 2]


def test_connectedness():
    assert trivial_in_full(2).connected
    assert diagonal_in_full(2).connected
    diag = StarAlgebra.diagonal(2)
    assert not is_connected(diag, diag)


def test_markov_trace_direct_sum_weights():
    # weights n_j / dim M for the scalars below a direct sum
    small = StarAlgebra.trivial(3)
    big = StarAlgebra.block_diagonal([(1, 1), (2, 1)])
    t = markov_trace(small, big)
    assert np.abs(t.weights - np.array([1 / 5, 2 / 5])).max() < 1e-12


def test_markov_trace_factor_cases():
    t = markov_trace(StarAlgebra.trivial(2), StarAlgebra.full(2))
    assert np.abs(t.weights - np.array([1 / 2])).max() < 1e-12
    t2 = markov_trace(StarAlgebra.diagonal(2), StarAlgebra.full(2))
    assert np.abs(t2.weights - np.array([1 / 2])).max() < 1e-12


def test_markov_trace_weights_strictly_positive():
    small = StarAlgebra.trivial(4)
    big = StarAlgebra.block_diagonal([(1, 1), (1, 1), (2, 1)])
    t = markov_trace(small, big)
    assert np.all(t.weights > 0)
    assert abs(t(big.unit) - 1) < 1e-12


def test_markov_trace_disconnected_raises():
    diag = StarAlgebra.diagonal(2)
    with pytest.raises(ConnectednessError):
        markov_trace(diag, diag)


def test_index_values():
    assert trivial_in_full(2).index == pytest.approx(4.0)
    assert trivial_in_full(3).index == pytest.approx(9.0)
    assert diagonal_in_full(2).index == pytest.approx(2.0)
    assert homogeneous_in_full(2, 2).index == pytest.approx(2.0)
    # dim M for the scalars below any connected M
    small = StarAlgebra.trivial(3)
    big = StarAlgebra.block_diagonal([(1, 1), (2, 1)])
    assert index_from_matrix(inclusion_matrix(small, big)) == pytest.approx(5.0)


def test_index_at_least_one():
    for inc in (trivial_in_full(2), diagonal_in_full(3), homogeneous_in_full(3, 1)):
        assert inc.index >= 1.0


def test_expectation_depolarising_and_pinching():
    inc = trivial_in_full(2)
    x = la.random_hermitian(2, 0)
    assert la.frobenius_distance(inc.expectation(x), inc.trace(x) * np.eye(2)) < 1e-12
    inc2 = diagonal_in_full(3)
    y = la.random_hermitian(3, 1)
    assert la.frobenius_distance(inc2.expectation(y), np.diag(np.diag(y))) < 1e-12


def test_expectation_invariants():
    inc = homogeneous_in_full(2, 2)
    e, t = inc.expectation, inc.trace
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = la.random_hermitian(4, rng)
        assert la.frobenius_distance(e(e(x)), e(x)) < 1e-10
        assert abs(t(e(x)) - t(x)) < 1e-10
        a = inc.small.project(la.random_hermitian(4, rng))
        b = inc.small.project(la.random_hermitian(4, rng))
        assert la.frobenius_distance(e(a @ x @ b), a @ e(x) @ b) < 1e-9


def test_inclusion_rejects_bad_data():
    with pytest.raises(PreconditionError):
        Inclusion(StarAlgebra.full(2), StarAlgebra.full(3))
    with pytest.raises(PreconditionError):
        Inclusion(StarAlgebra.full(2), StarAlgebra.trivial(2))  # N not inside M


def test_inclusion_tests_containment_on_the_column_units():
    # D_3 rotated inside the M_2 block of C + M_2 stays in it; rotated across
    # the blocks it leaves it, though its unit does not
    big = StarAlgebra.block_diagonal([(1, 1), (2, 1)])
    inside = np.eye(3, dtype=complex)
    inside[1:, 1:] = la.random_unitary(2, 11)
    across = la.random_unitary(3, 12)
    for u, ok in ((inside, True), (across, False)):
        small = StarAlgebra.diagonal(3).image(lambda x: u @ x @ la.dagger(u), 3)
        if ok:
            assert Inclusion(small, big, Trace.normalized(big)).small is small
        else:
            with pytest.raises(PreconditionError, match="N is not contained in M"):
                Inclusion(small, big, Trace.normalized(big))


def test_relative_commutant():
    inc = diagonal_in_full(2)
    assert inc.relative_commutant.same_span(StarAlgebra.diagonal(2))
    inc2 = trivial_in_full(2)
    assert inc2.relative_commutant.same_span(StarAlgebra.full(2))


def test_markov_trace_against_the_installed_trace():
    inc = trivial_in_full(2)
    assert np.max(np.abs(markov_trace(inc.small, inc.big).weights - inc.trace.weights)) < 1e-12
    small = StarAlgebra.trivial(3)
    big = StarAlgebra.block_diagonal([(1, 1), (2, 1)])
    flat = Trace(big, [1 / 3, 1 / 3])  # the ambient-restricted trace, not Markov
    assert np.max(np.abs(markov_trace(small, big).weights - flat.weights)) > 1e-3


def test_concrete_jones_projection_scalar_case():
    # for C ⊆ M_n the projection is the maximally entangled rank-1 projector
    for n in (2, 3):
        p = concrete_jones_projection(StarAlgebra.trivial(n))
        psi = la.max_entangled(n)
        assert la.frobenius_distance(p, np.outer(psi, psi.conj())) < 1e-12


def test_concrete_jones_projection_diagonal_case():
    p = concrete_jones_projection(StarAlgebra.diagonal(2))
    want = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
    assert la.frobenius_distance(p, want) < 1e-12


def test_concrete_jones_projection_rank_is_dim():
    for alg in (StarAlgebra.diagonal(3), StarAlgebra.block_diagonal([(2, 1), (2, 1)])):
        p = concrete_jones_projection(alg)
        assert la.is_hermitian(p) and la.frobenius_distance(p @ p, p) < 1e-12
        assert int(round(np.trace(p).real)) == alg.dim


def test_expectation_is_best_approximation_oracle():
    # independent oracle: E(x) is the tau-norm minimiser over N, recovered
    # here by solving the normal equations in a plain HS basis of N
    inc = homogeneous_in_full(2, 2)
    tau = inc.trace
    nb = inc.small.basis
    gram = np.array([[tau(la.dagger(a) @ b) for b in nb] for a in nb])
    rng = np.random.default_rng(23)
    for _ in range(5):
        x = la.random_hermitian(4, rng)
        rhs = np.array([tau(la.dagger(a) @ x) for a in nb])
        coeffs = np.linalg.solve(gram, rhs)
        best = np.tensordot(coeffs, nb, axes=(0, 0))
        assert la.frobenius_distance(inc.expectation(x), best) < 1e-9


def test_inclusion_matrix_dimension_bookkeeping():
    # column sums against block dimensions and multiplicities
    cases = [
        (StarAlgebra.trivial(3), StarAlgebra.block_diagonal([(1, 1), (2, 1)])),
        (StarAlgebra.diagonal(4), StarAlgebra.full(4)),
        (StarAlgebra.block_diagonal([(2, 1), (2, 1)]), StarAlgebra.full(4)),
        (StarAlgebra.block_diagonal([(1, 2), (2, 1)]), StarAlgebra.full(4)),
    ]
    for small, big in cases:
        lam = inclusion_matrix(small, big)
        n_small = np.array([bd for bd, _ in small.blocks])
        m_small = np.array([m for _, m in small.blocks])
        n_big = np.array([bd for bd, _ in big.blocks])
        m_big = np.array([m for _, m in big.blocks])
        assert np.array_equal(lam @ n_small, n_big)       # row dimension count
        assert np.array_equal(lam.T @ m_big, m_small)     # multiplicity count


def _d2_m2_in_m2_m2():
    small = StarAlgebra.tensor(StarAlgebra.diagonal(2), StarAlgebra.full(2), StarAlgebra.trivial(2))
    big = StarAlgebra.tensor(StarAlgebra.full(2), StarAlgebra.full(2), StarAlgebra.trivial(2))
    return markov_inclusion(small, big)


def _rotated_subsystem_code():
    # N = 1 (x) M_2 inside M_4, given by rotated explicit generators
    u = la.random_unitary(4, 5)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    gens = [u @ np.kron(np.eye(2), g) @ la.dagger(u) for g in (x, z)]
    return markov_inclusion(StarAlgebra.from_generators(gens, 4), StarAlgebra.full(4))


def _scalars_in_direct_sum():
    return markov_inclusion(StarAlgebra.trivial(3), StarAlgebra.block_diagonal([(1, 1), (2, 1)]))


REL_COMM_CASES = {
    "D4_in_M4": lambda: diagonal_in_full(4),
    "homogeneous_2_2": lambda: homogeneous_in_full(2, 2),
    "C_in_M3": lambda: trivial_in_full(3),
    "D2xM2x1_in_M2xM2x1": _d2_m2_in_m2_m2,
    "rotated_1xM2_in_M4": _rotated_subsystem_code,
    "C_in_CxM2": _scalars_in_direct_sum,
}


@pytest.mark.parametrize("case", sorted(REL_COMM_CASES))
def test_relative_commutant_matches_intersect(case):
    # (N v M')' has the layout and span of N' ∩ M; frames differ by unitary blocks
    from opteleport.algebra import intersect

    inc = REL_COMM_CASES[case]()
    got = inc.relative_commutant
    want = intersect(inc.small.commutant, inc.big)
    assert got.blocks == want.blocks
    assert got.same_span(want) and want.same_span(got)
    for wg, ww in zip(got.frames, want.frames):
        overlap = la.dagger(wg) @ ww
        assert la.frobenius_distance(overlap @ la.dagger(overlap), np.eye(len(overlap))) < 1e-10


@pytest.mark.parametrize("case", sorted(REL_COMM_CASES))
def test_is_connected_matches_centre_intersection(case):
    from opteleport.algebra import intersect

    inc = REL_COMM_CASES[case]()
    assert is_connected(inc.small, inc.big)
    assert intersect(inc.small.center, inc.big.center).dim == 1
    diag = StarAlgebra.diagonal(2)
    assert not is_connected(diag, diag)
    assert intersect(diag.center, diag.center).dim != 1


def test_algebras_on_different_ambients_are_refused_before_any_product():
    for make in (markov_inclusion, inclusion_matrix):
        with pytest.raises(PreconditionError, match="^N and M must share an ambient$"):
            make(StarAlgebra.full(2), StarAlgebra.full(3))


def test_inclusion_rejects_a_trace_on_another_algebra():
    foreign = Trace.normalized(StarAlgebra.full(2))  # an equal algebra, but not M itself
    with pytest.raises(PreconditionError, match="trace must live on M"):
        Inclusion(StarAlgebra.diagonal(2), StarAlgebra.full(2), foreign)


def test_inclusion_rejects_a_trace_that_is_not_faithful():
    big = StarAlgebra.diagonal(2)
    with pytest.raises(PreconditionError, match="trace must be a faithful state"):
        Inclusion(StarAlgebra.trivial(2), big, Trace(big, [1.0, 0.0]))


def test_algebras_carry_no_tolerance_of_their_own():
    from opteleport.tower import basic_construction

    tol = la.Tolerance(abs=1e-4, rel=1e-4)
    inc = markov_inclusion(StarAlgebra.diagonal(3), StarAlgebra.full(3), tol)
    t = basic_construction(inc)
    algebras = [inc.small, inc.big, inc.relative_commutant, t.level1, t.n_rep, t.m_rep]
    assert inc.tol == t.tol == tol
    assert not any(hasattr(a, "tol") for a in algebras + [t.gns])


def test_relative_commutant_in_a_full_matrix_algebra_is_the_commutant():
    # M = M_n has M' = C 1, so N' ∩ M is N' itself; any other M takes (N v M')'
    for make in (_rotated_subsystem_code, lambda: diagonal_in_full(3)):
        inc = make()
        assert inc.relative_commutant is inc.small.commutant
    inc = _scalars_in_direct_sum()
    assert inc.relative_commutant is not inc.small.commutant
    assert inc.relative_commutant.blocks == [(1, 1), (2, 1)]  # C' ∩ M is M


def test_markov_inclusion_reads_its_inclusion_matrix_once(monkeypatch):
    # the Markov trace hands Lambda and ||Lambda||^2 to the inclusion built on it
    from opteleport import inclusion

    seen, real = [], inclusion.inclusion_matrix
    monkeypatch.setattr(inclusion, "inclusion_matrix", lambda *args: seen.append(args) or real(*args))
    inc = homogeneous_in_full(2, 3)
    assert inc.connected and inc.matrix.tolist() == [[1, 1]]
    assert abs(inc.index - index_from_matrix(real(inc.small, inc.big))) < 1e-12
    assert len(seen) == 1


def test_a_markov_trace_of_another_pair_hands_nothing_over():
    # the Markov trace of D_2 ⊆ M_2 is tau_2, also faithful for C ⊆ M_2, whose Lambda it is not
    big = StarAlgebra.full(2)
    inc = Inclusion(StarAlgebra.trivial(2), big, markov_trace(StarAlgebra.diagonal(2), big))
    assert inc.matrix.tolist() == [[2]]
    assert abs(inc.index - 4.0) < 1e-12
