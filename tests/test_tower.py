import numpy as np
import pytest

from opteleport import linalg as la
from opteleport.algebra import StarAlgebra, Trace, _tau_onb
from opteleport.errors import MarkovError, NormaliserError, PreconditionError, TraceError
from opteleport.inclusion import Inclusion, markov_inclusion, trivial_in_full
from opteleport.tower import (
    GnsSpace,
    basic_construction,
    iterate,
    normalizer_check,
    verify_epr,
    verify_tower,
    verify_tracial_entangled_state,
)

from conftest import TOWER_KEYS, get_tower, make_inclusion


def test_gns_inner_product_matches_trace():
    m = StarAlgebra.full(2)
    g = GnsSpace(m, Trace.normalized(m))
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = la.random_hermitian(2, rng), la.random_hermitian(2, rng)
        lhs = np.vdot(g.vector(y), g.vector(x))
        assert abs(lhs - np.trace(la.dagger(y) @ x) / 2) < 1e-12


def test_gns_left_action_at_unit():
    m = StarAlgebra.block_diagonal([(1, 1), (2, 1)])
    t = Trace(m, [1 / 5, 2 / 5])
    g = GnsSpace(m, t)
    x = m.project(la.random_hermitian(3, 1))
    assert np.abs(g.left(x) @ g.vector(m.unit) - g.vector(x)).max() < 1e-12


def test_gns_right_is_commutant_of_left():
    m = StarAlgebra.full(2)
    g = GnsSpace(m, Trace.normalized(m))
    lefts = la.span_onb([g.left(b) for b in m.basis])
    rights = [g.right(b) for b in m.basis]
    x, y = (la.random_hermitian(2, s) for s in (3, 4))
    assert la.frobenius_distance(
        g.left(x) @ g.right(y), g.right(y) @ g.left(x)
    ) < 1e-12
    # pi_r(x) = J pi(x)* J with J entrywise conjugation in these coordinates
    assert la.frobenius_distance(g.right(x), np.conj(g.left(la.dagger(x)))) < 1e-12
    comm = StarAlgebra(
        g.dim,
        *(lambda a: (a.blocks, a.frames))(
            StarAlgebra.from_span(la.span_onb([g.left(b) for b in m.basis]))
        ),
    ).commutant
    for r in rights:
        assert comm.contains(r)


LEVEL2_GNS_KEYS = ["trivial_in_full_3", "diagonal_in_full_4"]


def level2_gns(key):
    """The GNS space of (M1, trace1), on which M2 acts."""
    return get_tower(key).gns1


def algebra_element(g, rng):
    """A non-Hermitian element of the represented algebra."""
    coeffs = rng.standard_normal(g.algebra.dim) + 1j * rng.standard_normal(g.algebra.dim)
    return np.tensordot(coeffs, g.algebra.basis, axes=(0, 0))


@pytest.mark.parametrize("key", LEVEL2_GNS_KEYS)
def test_gns_left_matches_trace_definition(key):
    g = level2_gns(key)
    x = algebra_element(g, np.random.default_rng(11))
    assert la.frobenius_distance(x, la.dagger(x)) > 1e-3
    rho = g.trace.density
    want = np.array([[np.trace(rho @ bl @ x @ bk) for bk in g.onb] for bl in g.onb])
    assert np.abs(g.left(x) - want).max() < 1e-12


@pytest.mark.parametrize("key", LEVEL2_GNS_KEYS)
def test_gns_left_is_unital_star_homomorphism(key):
    g = level2_gns(key)
    rng = np.random.default_rng(12)
    x, y = algebra_element(g, rng), algebra_element(g, rng)
    assert la.frobenius_distance(g.left(g.algebra.unit), np.eye(g.dim)) < 1e-12
    assert la.frobenius_distance(g.left(x @ y), g.left(x) @ g.left(y)) < 1e-10
    assert la.frobenius_distance(g.left(la.dagger(x)), la.dagger(g.left(x))) < 1e-12
    assert np.array_equal(g.right(x), g.left(x).T)


@pytest.mark.parametrize("key", LEVEL2_GNS_KEYS)
def test_gns_vector_and_element_are_inverse(key):
    g = level2_gns(key)
    rng = np.random.default_rng(13)
    x, y = algebra_element(g, rng), algebra_element(g, rng)
    assert la.frobenius_distance(g.element(g.vector(x)), x) < 1e-12
    assert np.abs(g.left(x) @ g.vector(y) - g.vector(x @ y)).max() < 1e-12


@pytest.mark.parametrize("key", LEVEL2_GNS_KEYS)
def test_gns_holds_no_dim_squared_stack(key):
    # nothing cached may grow like dim^2 n^2, as a 4-index action tensor would
    g = level2_gns(key)
    n = g.algebra.ambient_dim
    arrays = [v for v in vars(g).values() if isinstance(v, np.ndarray)]
    assert arrays
    assert max(a.nbytes for a in arrays) <= g.dim * n * n * 16


@pytest.mark.parametrize("key", ["trivial_in_full_3", "diagonal_in_full_4", "homogeneous_2_2"])
@pytest.mark.parametrize("k", [1, 2])
def test_markov_gate_pullback_matches_per_element_trace(key, k):
    # the gate reads trace_k(left(x)) for every basis x of M_{k-1} as Tr(K x)
    t = get_tower(key)
    lvl = t.level(k)
    pullback = lvl.gns.pullback(lvl.trace.density)
    for x in t.level(k - 1).algebra.basis:
        assert abs(np.trace(pullback @ x) - lvl.trace(lvl.gns.left(x))) < 1e-12


def test_tau_onb_orthonormal_under_nonuniform_trace():
    m = StarAlgebra.block_diagonal([(1, 1), (2, 2), (3, 1)])
    tr = Trace(m, [0.1, 0.15, 0.2])
    onb = _tau_onb(m.basis, tr)
    gram = np.array([[tr(la.dagger(a) @ b) for b in onb] for a in onb])
    assert np.abs(gram - np.eye(m.dim)).max() < 1e-12
    assert max(la.frobenius_distance(c, la.dagger(c)) for c in onb) < 1e-12


def test_gns_requires_faithful_trace():
    m = StarAlgebra.diagonal(2)
    with pytest.raises(TraceError):
        GnsSpace(m, Trace(m, [1.0, 0.0]))


def test_jones_projection_scalar_inclusion_rank_one():
    t = get_tower("trivial_in_full_2", two_levels=False)
    assert la.is_projection(t.jones1)
    assert int(round(np.trace(t.jones1).real)) == 1


def test_jones_projection_diagonal_rank_two():
    t = get_tower("diagonal_in_full_2", two_levels=False)
    assert int(round(np.trace(t.jones1).real)) == 2
    # e_N Lambda(x) = Lambda(diagonal part of x)
    x = la.random_hermitian(2, 7)
    lhs = t.jones1 @ t.gns.vector(x)
    rhs = t.gns.vector(np.diag(np.diag(x)))
    assert np.abs(lhs - rhs).max() < 1e-12


def test_jones_projection_intertwines_expectation():
    for key in TOWER_KEYS:
        t = get_tower(key, two_levels=False)
        inc = t.inclusion
        x = inc.big.project(la.random_hermitian(inc.big.ambient_dim, 11))
        lhs = t.jones1 @ t.gns.vector(x)
        rhs = t.gns.vector(inc.expectation(x))
        assert np.abs(lhs - rhs).max() < 1e-10, key


def test_level1_dimensions():
    # C ⊆ M_n gives all of B(L^2), dimension n^4 over C is (n^2)^2
    t = get_tower("trivial_in_full_2", two_levels=False)
    assert t.level1.dim == 16
    t2 = get_tower("diagonal_in_full_2", two_levels=False)
    assert t2.level1.dim == 8
    t3 = get_tower("homogeneous_2_2", two_levels=False)
    assert t3.level1.dim == 32


def test_tower_identities_all_cases():
    for key in TOWER_KEYS:
        rep = verify_tower(get_tower(key))
        assert rep.passed, (key, [c.name for c in rep.failures()])
        assert rep.max_residual < 1e-9, key


def test_nonmarkov_trace_rejected():
    big = StarAlgebra.block_diagonal([(1, 1), (2, 1)])
    flat = Trace(big, [1 / 3, 1 / 3])
    inc = Inclusion(StarAlgebra.trivial(3), big, flat)
    with pytest.raises(MarkovError):
        basic_construction(inc)


def test_second_jones_for_scalar_tower_is_tensor_form():
    # for C ⊆ M_n the second Jones projection has rank dim M and the
    # Temperley-Lieb relations pin down the index
    t = get_tower("trivial_in_full_2")
    assert int(round(np.trace(t.jones2).real)) == t.inclusion.big.dim
    e1 = t.gns1.left(t.jones1)
    prod = e1 @ t.jones2 @ e1
    assert la.frobenius_distance(prod, e1 / 4) < 1e-10


@pytest.mark.parametrize(
    "key, dims",
    [("diagonal_in_full_2", [4, 8, 16, 32]), ("trivial_in_full_2", [4, 16, 64, 256])],
)
def test_extend_past_m2_temperley_lieb(key, dims):
    # the generic step reaches M3, where e2 and e3 satisfy the Temperley-Lieb
    # relations and e1 commutes with e3
    inc = make_inclusion(key)
    t = iterate(basic_construction(inc))
    with pytest.raises(PreconditionError):
        t.level(3)
    t.extend()
    assert [lvl.algebra.dim for lvl in t.levels] == dims
    lift3 = t.levels[3].gns.left
    e3 = t.levels[3].jones
    e2 = lift3(t.levels[2].jones)
    e1 = lift3(t.levels[2].gns.left(t.levels[1].jones))
    idx = inc.index
    assert la.frobenius_distance(e3 @ e2 @ e3, e3 / idx) < 1e-9
    assert la.frobenius_distance(e2 @ e3 @ e2, e2 / idx) < 1e-9
    assert la.frobenius_distance(e1 @ e3, e3 @ e1) < 1e-9


def test_shift_identity_on_unit():
    t = get_tower("diagonal_in_full_2")
    assert la.frobenius_distance(t.shift(t.rel_comm.unit), np.eye(t.gns1.dim)) < 1e-10


def test_epr_reports():
    for key in ("trivial_in_full_2", "diagonal_in_full_2", "scalars_in_direct_sum"):
        rep = verify_epr(get_tower(key))
        assert rep.passed, (key, [c.name for c in rep.failures()])


def test_epr_explicit_pauli_case():
    # x = X in the scalar tower: x e = gamma0(x) e with tiny residual
    t = get_tower("trivial_in_full_2")
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    lhs = t.gns.left(x) @ t.jones1
    rhs = t.gamma0(x) @ t.jones1
    assert la.frobenius_distance(lhs, rhs) < 1e-12


def test_epr_diagonal_sign_case():
    t = get_tower("diagonal_in_full_2")
    x = np.diag([1.0, -1.0]).astype(complex)
    assert la.frobenius_distance(
        t.gns.left(x) @ t.jones1, t.gamma0(x) @ t.jones1
    ) < 1e-12


def test_normalizer_check_cases():
    t = get_tower("trivial_in_full_2", two_levels=False)
    u = la.random_unitary(2, 5)
    assert normalizer_check(t, u)  # everything normalises the scalars
    t2 = get_tower("diagonal_in_full_2", two_levels=False)
    shift = np.roll(np.eye(2, dtype=complex), 1, axis=0)
    assert normalizer_check(t2, shift)
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    assert not normalizer_check(t2, hadamard)


def test_normalizer_check_rejects_nonunitary():
    t = get_tower("diagonal_in_full_2", two_levels=False)
    with pytest.raises(NormaliserError):
        normalizer_check(t, np.diag([1.0, 0.5]).astype(complex))


def test_tracial_entangled_state_identity_unitary():
    t = get_tower("diagonal_in_full_2", two_levels=False)
    rep = verify_tracial_entangled_state(t, np.eye(2, dtype=complex))
    assert rep.passed


def test_tracial_entangled_state_pauli_and_shift():
    t = get_tower("trivial_in_full_2", two_levels=False)
    x_pauli = np.array([[0, 1], [1, 0]], dtype=complex)
    assert verify_tracial_entangled_state(t, x_pauli).passed
    t2 = get_tower("diagonal_in_full_2", two_levels=False)
    shift = np.roll(np.eye(2, dtype=complex), 1, axis=0)
    assert verify_tracial_entangled_state(t2, shift).passed


def test_tracial_entangled_state_rejects_non_normaliser():
    t = get_tower("diagonal_in_full_2", two_levels=False)
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    with pytest.raises(NormaliserError):
        verify_tracial_entangled_state(t, hadamard)


def test_level1_trace_against_markov_weights():
    # cross-check: trace1 equals the Markov trace of M ⊆ M1 computed from
    # the Perron-Frobenius weights of the transposed inclusion matrix
    from opteleport.inclusion import markov_trace

    for key in ("diagonal_in_full_2", "scalars_in_direct_sum", "homogeneous_2_2"):
        t = get_tower(key, two_levels=False)
        want = markov_trace(t.m_rep, t.level1)
        assert np.abs(want.weights - t.trace1.weights).max() < 1e-9, key


def test_jones_projection_identity_when_n_equals_m():
    alg = StarAlgebra.full(2)
    inc = markov_inclusion(alg, alg)
    t = basic_construction(inc)
    assert la.frobenius_distance(t.jones1, np.eye(t.gns.dim)) < 1e-12


def test_left_commutant_equals_right_representation():
    # pi(M)' = pi_r(M) as spans, including the non-factor case
    for key in ("trivial_in_full_2", "scalars_in_direct_sum"):
        t = get_tower(key, two_levels=False)
        comm = t.m_rep.commutant
        rights = [t.gns.right(b) for b in t.inclusion.big.basis]
        assert comm.dim == t.inclusion.big.dim
        for r in rights:
            assert comm.contains(r)


def test_level2_spanned_by_second_compressions():
    # M2 computed as the conjugated commutant agrees with the span closure
    # of {x e_M y} over the first tower algebra
    t = get_tower("diagonal_in_full_2")
    pi1, e2 = t.gns1.left, t.jones2
    prods = [
        pi1(x) @ e2 @ pi1(y) for x in t.level1.basis for y in t.level1.basis
    ]
    span = la.span_onb(prods)
    assert span.shape[0] == t.level2.dim
    assert max(la.span_residual(span, b) for b in t.level2.basis) < 1e-9


def test_gns_inner_product_hundred_seeded_pairs():
    t = get_tower("scalars_in_direct_sum", two_levels=False)
    rng = np.random.default_rng(100)
    inc = t.inclusion
    for _ in range(100):
        x = inc.big.project(la.random_hermitian(3, rng))
        y = inc.big.project(la.random_hermitian(3, rng))
        lhs = np.vdot(t.gns.vector(y), t.gns.vector(x))
        assert abs(lhs - inc.trace(la.dagger(y) @ x)) < 1e-11


def test_rotated_diagonal_tower():
    # structure discovery and the tower on a non-axis-aligned subalgebra
    w = la.random_unitary(2, 77)
    rot = StarAlgebra.from_generators(
        [w @ np.diag([1.0, 0.0]).astype(complex) @ la.dagger(w)], 2
    )
    inc = markov_inclusion(rot, StarAlgebra.full(2))
    tower = iterate(basic_construction(inc))
    rep = verify_tower(tower)
    assert rep.passed and rep.max_residual < 1e-9


def test_multiplicity_carrying_tower():
    # N = 1 (x) M_2 inside M_4: multiplicity two in the subalgebra
    nil = np.array([[0, 1], [0, 0]], dtype=complex)
    small = StarAlgebra.from_generators([np.kron(np.eye(2, dtype=complex), nil)], 4)
    inc = markov_inclusion(small, StarAlgebra.full(4))
    tower = iterate(basic_construction(inc))
    rep = verify_tower(tower)
    assert rep.passed and rep.max_residual < 1e-9
    assert int(round(inc.index)) == 4


def test_tracial_entangled_state_explicit_vector():
    t = get_tower("diagonal_in_full_2", two_levels=False)
    shift = np.roll(np.eye(2, dtype=complex), 1, axis=0)
    rng = np.random.default_rng(51)
    y = t.inclusion.small.project(la.random_hermitian(2, rng))
    psi = t.gns.vector(y)
    psi = psi / np.linalg.norm(psi)
    rep = verify_tracial_entangled_state(t, shift, psi=psi)
    assert rep.passed


def test_tracial_entangled_state_rejects_bad_vector():
    from opteleport.errors import PreconditionError

    t = get_tower("diagonal_in_full_2", two_levels=False)
    bad = np.zeros(t.gns.dim, dtype=complex)
    bad[:] = 1.0 / np.sqrt(t.gns.dim)  # unit, but not in the image of N
    with pytest.raises(PreconditionError):
        verify_tracial_entangled_state(t, np.eye(2, dtype=complex), psi=bad)


def test_shift_operator_is_ucp():
    # the canonical shift is a *-isomorphism onto its image, hence UCP;
    # the one-sided anti-isomorphism is transpose-like and is not CP
    for key in ("diagonal_in_full_2", "trivial_in_full_2"):
        t = get_tower(key)
        assert t.shift_operator.is_ucp()
    t2 = get_tower("trivial_in_full_2")
    assert not t2.gamma0_operator.is_cp()


def test_tau_onb_matches_gram_formula():
    # the per-block rescale equals the inverse square root of the tau-Gram matrix
    m = StarAlgebra.block_diagonal([(1, 1), (2, 2), (3, 1)])
    tr = Trace(m, [0.1, 0.15, 0.2])
    k = m.dim
    gram = np.array([[np.trace(tr.density @ a @ b).real for b in m.basis] for a in m.basis])
    vals, vecs = np.linalg.eigh(gram)
    want = np.tensordot((vecs / np.sqrt(vals)) @ vecs.T, m.basis, axes=(1, 0))
    assert np.abs(_tau_onb(m.basis, tr) - want).max() < 1e-12
    assert want.shape[0] == k


@pytest.mark.parametrize("key", TOWER_KEYS)
def test_canonical_traces_are_markov_traces(key):
    # the closed-form trace of each level is the Markov trace of the level below in it
    from opteleport.inclusion import markov_trace

    t = get_tower(key)
    assert np.abs(t.trace1.weights - markov_trace(t.m_rep, t.level1).weights).max() < 1e-12
    assert np.abs(t.trace2.weights - markov_trace(t.m1_rep, t.level2).weights).max() < 1e-12


@pytest.mark.parametrize("key", ["trivial_in_full_3", "diagonal_in_full_4"])
def test_step_writes_levels_without_gns_action(key, monkeypatch):
    # each level is written down from frames: no GNS left action, no image of units
    calls = {"left": 0, "image": 0}
    left, image = GnsSpace.left, StarAlgebra.image

    def counted_left(self, x):
        calls["left"] += 1
        return left(self, x)

    def counted_image(self, phi, ambient_dim):
        calls["image"] += 1
        return image(self, phi, ambient_dim)

    monkeypatch.setattr(GnsSpace, "left", counted_left)
    monkeypatch.setattr(StarAlgebra, "image", counted_image)
    t = iterate(basic_construction(make_inclusion(key)))
    t.extend()
    assert calls == {"left": 0, "image": 0}
    assert len(t.levels) == 4


def _golden_tower():
    # C + C inside C + M_2 with Bratteli matrix [[1, 0], [1, 1]]: index 2.618...,
    # so the Markov trace has a non-uniform density at every level
    big = StarAlgebra.block_diagonal([(1, 1), (2, 1)])
    return iterate(basic_construction(markov_inclusion(StarAlgebra.block_diagonal([(1, 2), (1, 1)]), big)))


@pytest.mark.parametrize(
    "key, k",
    [("diagonal_in_full_2", 1), ("diagonal_in_full_2", 2), ("homogeneous_2_2", 1),
     ("golden", 1), ("golden", 2)],
)
def test_tower_expectation_matches_tau_onb_formula(key, k):
    # E(x) = sum_k tau(c_k x) c_k for non-Hermitian x outside the ambient algebra
    lvl = (_golden_tower() if key == "golden" else get_tower(key)).level(k)
    sub, tau = lvl.upper, lvl.trace
    gram = np.array([[tau(a @ b).real for b in sub.basis] for a in sub.basis])
    vals, vecs = np.linalg.eigh(gram)
    onb = np.tensordot((vecs / np.sqrt(vals)) @ vecs.T, sub.basis, axes=(1, 0))
    rng = np.random.default_rng(31 + k)
    n = sub.ambient_dim
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert lvl.algebra.membership_residual(x) > 1e-3
    if key == "golden":
        assert np.ptp(np.diag(tau.density).real) > 1e-3
    want = sum(tau(c @ x) * c for c in onb)
    assert la.frobenius_distance(lvl.expect(x), want) < 1e-12


def test_nonmarkov_rejection_names_markov():
    big = StarAlgebra.block_diagonal([(1, 1), (2, 1)])
    inc = Inclusion(StarAlgebra.trivial(3), big, Trace(big, [1 / 3, 1 / 3]))
    with pytest.raises(MarkovError, match="not Markov"):
        basic_construction(inc)
