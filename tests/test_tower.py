import numpy as np
import pytest

from opteleport import linalg as la
from opteleport import tower as tower_module
from opteleport.algebra import StarAlgebra, Superoperator, Trace
from opteleport.errors import MarkovError, NormaliserError, PreconditionError, StructureError, TraceError
from opteleport.inclusion import Inclusion, markov_inclusion, trivial_in_full
from opteleport.linalg import DEFAULT_TOL, Tolerance
from opteleport.tower import (
    GnsSpace,
    basic_construction,
    iterate,
    normalizer_check,
    verify_epr,
    verify_tower,
    verify_tracial_entangled_state,
)

from conftest import TOWER_KEYS, get_tower, make_inclusion, record_thresholds


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
    # pi_r(x) = J pi(x)* J with J conjugation followed by the swap (a, b) -> (b, a)
    swap = np.arange(4).reshape(2, 2).T.ravel()
    assert la.frobenius_distance(g.right(x), np.conj(g.left(la.dagger(x)))[swap][:, swap]) < 1e-12
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


def reference_onb(alg, trace):
    """The matrix units f^j_ab / sqrt(t_j) of ``alg.matrix_units`` with the
    trace weights t_j, block by block and (a, b) a-major: a dense basis
    orthonormal for tau(y* x)."""
    units = [f.reshape(-1, *f.shape[2:]) / np.sqrt(t) for f, t in zip(alg.matrix_units, trace.weights)]
    return np.concatenate(units)


@pytest.mark.parametrize("key", LEVEL2_GNS_KEYS)
def test_gns_left_matches_trace_definition(key):
    g = level2_gns(key)
    x = algebra_element(g, np.random.default_rng(11))
    assert la.frobenius_distance(x, la.dagger(x)) > 1e-3
    rho = g.trace.density
    onb = reference_onb(g.algebra, g.trace)
    want = np.array([[np.trace(rho @ la.dagger(bl) @ x @ bk) for bk in onb] for bl in onb])
    assert np.abs(g.left(x) - want).max() < 1e-12


@pytest.mark.parametrize("key", LEVEL2_GNS_KEYS)
def test_gns_left_is_unital_star_homomorphism(key):
    g = level2_gns(key)
    rng = np.random.default_rng(12)
    x, y = algebra_element(g, rng), algebra_element(g, rng)
    assert la.frobenius_distance(g.left(g.algebra.unit), np.eye(g.dim)) < 1e-12
    assert la.frobenius_distance(g.left(x @ y), g.left(x) @ g.left(y)) < 1e-10
    assert la.frobenius_distance(g.left(la.dagger(x)), la.dagger(g.left(x))) < 1e-12
    rho, onb = g.trace.density, reference_onb(g.algebra, g.trace)
    want = np.array([[np.trace(rho @ la.dagger(bl) @ bk @ x) for bk in onb] for bl in onb])
    assert np.abs(g.right(x) - want).max() < 1e-12


@pytest.mark.parametrize("key", LEVEL2_GNS_KEYS)
def test_gns_vector_and_element_are_inverse(key):
    g = level2_gns(key)
    rng = np.random.default_rng(13)
    x, y = algebra_element(g, rng), algebra_element(g, rng)
    assert la.frobenius_distance(g.element(g.vector(x)), x) < 1e-12
    assert np.abs(g.left(x) @ g.vector(y) - g.vector(x @ y)).max() < 1e-12


@pytest.mark.parametrize("key", LEVEL2_GNS_KEYS)
def test_gns_holds_no_dim_squared_stack(key):
    # nothing cached may grow like dim^2 n^2, as a 4-index action tensor would,
    # and no dense (dim, n, n) or (dim, n^2) stack of the algebra is kept
    g = level2_gns(key)
    n = g.algebra.ambient_dim
    values = [v for value in vars(g).values() for v in (value if isinstance(value, tuple) else [value])]
    arrays = [v for v in values if isinstance(v, np.ndarray)]
    assert arrays
    assert max(a.nbytes for a in arrays) <= g.dim * n * n * 16
    assert not [a.shape for a in arrays if a.shape in {(g.dim, n, n), (g.dim, n * n)}]


@pytest.mark.parametrize("key", ["trivial_in_full_3", "diagonal_in_full_4", "homogeneous_2_2"])
@pytest.mark.parametrize("k", [1, 2])
def test_markov_gate_pullback_matches_per_element_trace(key, k):
    # the gate reads trace_k(left(x)) for every basis x of M_{k-1} as Tr(K x)
    t = get_tower(key)
    lvl = t.level(k)
    pullback = lvl.gns.pullback(lvl.trace.density)
    for x in t.level(k - 1).algebra.basis:
        assert abs(np.trace(pullback @ x) - lvl.trace(lvl.gns.left(x))) < 1e-12


def test_gns_orthonormal_under_nonuniform_trace():
    # the coordinate vectors are the images of the tau-orthonormal units f^j_ab / sqrt(t_j)
    m = StarAlgebra.block_diagonal([(1, 1), (2, 2), (3, 1)])
    tr = Trace(m, [0.1, 0.15, 0.2])
    g = GnsSpace(m, tr)
    onb = np.array([g.element(e) for e in np.eye(g.dim)])
    gram = np.array([[tr(la.dagger(a) @ b) for b in onb] for a in onb])
    assert np.abs(gram - np.eye(m.dim)).max() < 1e-12
    assert np.abs(onb - reference_onb(m, tr)).max() < 1e-12
    vectors = np.array([g.vector(b) for b in m.basis])
    want = np.array([[tr(la.dagger(a) @ b) for b in m.basis] for a in m.basis])
    assert np.abs(np.conj(vectors) @ vectors.T - want).max() < 1e-12


def test_gns_requires_faithful_trace():
    m = StarAlgebra.diagonal(2)
    with pytest.raises(TraceError):
        GnsSpace(m, Trace(m, [1.0, 0.0]))


def test_jones_projection_scalar_inclusion_rank_one():
    t = get_tower("trivial_in_full_2", two_levels=False)
    p = t.jones1
    assert la.is_hermitian(p) and la.frobenius_distance(p @ p, p) < 1e-12
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



def test_normalizer_check_rejects_a_matrix_of_another_size():
    t = get_tower("trivial_in_full_2", two_levels=False)
    with pytest.raises(NormaliserError, match="unitaries in M"):
        normalizer_check(t, np.eye(3, dtype=complex))


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


def test_index_matches_level1_reads_the_tolerance_of_the_tower(monkeypatch):
    tol = Tolerance(abs=1e-6, rel=1e-6)
    t = basic_construction(markov_inclusion(StarAlgebra.diagonal(2), StarAlgebra.full(2), tol))
    seen = []
    index_from_matrix = tower_module.index_from_matrix

    def recording(lam, tol=DEFAULT_TOL):
        seen.append(tol)
        return index_from_matrix(lam, tol)

    monkeypatch.setattr(tower_module, "index_from_matrix", recording)
    assert verify_tower(t).passed
    assert seen == [tol]


def test_shift_is_ucp_and_gamma0_is_not_cp():
    # the canonical shift is a *-isomorphism onto its image, hence UCP;
    # the one-sided anti-isomorphism is transpose-like and is not CP
    for key in ("diagonal_in_full_2", "trivial_in_full_2"):
        t = get_tower(key)
        shift = Superoperator(t.rel_comm, t.mirror2, t.shift, stacks=True)
        assert shift.is_unital() and shift.is_cp()
    t2 = get_tower("trivial_in_full_2")
    assert not Superoperator(t2.rel_comm, t2.mirror1, t2.gamma0, stacks=True).is_cp()


def test_gns_matches_gram_formula():
    # the coordinates are those against the units c_k = f^j_ab / sqrt(t_j):
    # vector(x)_k = tau(c_k* x), left(x)_lk = tau(c_l* x c_k)
    m = StarAlgebra.block_diagonal([(1, 1), (2, 2), (3, 1)])
    tr = Trace(m, [0.1, 0.15, 0.2])
    g = GnsSpace(m, tr)
    onb = reference_onb(m, tr)
    assert onb.shape[0] == g.dim
    x = algebra_element(g, np.random.default_rng(14))
    assert np.abs(g.vector(x) - np.array([tr(la.dagger(c) @ x) for c in onb])).max() < 1e-12
    want = np.array([[tr(la.dagger(cl) @ x @ ck) for ck in onb] for cl in onb])
    assert np.abs(g.left(x) - want).max() < 1e-12


@pytest.mark.parametrize("key", TOWER_KEYS)
def test_canonical_traces_are_markov_traces(key):
    # the closed-form trace of each level is the Markov trace of the level below in it
    from opteleport.inclusion import markov_trace

    t = get_tower(key)
    assert np.abs(t.trace1.weights - markov_trace(t.m_rep, t.level1).weights).max() < 1e-12
    assert np.abs(t.trace2.weights - markov_trace(t.m1_rep, t.level2).weights).max() < 1e-12


@pytest.mark.parametrize("key", ["trivial_in_full_3", "diagonal_in_full_4"])
def test_step_writes_levels_without_gns_action(key, monkeypatch):
    # each level is written down from frames: no GNS left action, no image of
    # units, and no dense basis of any algebra through level 3
    from functools import cached_property

    calls = {"left": 0, "image": 0, "basis": 0}
    left, image, basis = GnsSpace.left, StarAlgebra.image, StarAlgebra.basis.func

    def counted_left(self, x):
        calls["left"] += 1
        return left(self, x)

    def counted_image(self, phi, ambient_dim):
        calls["image"] += 1
        return image(self, phi, ambient_dim)

    def counted_basis(self):
        calls["basis"] += 1
        return basis(self)

    counted = cached_property(counted_basis)
    counted.__set_name__(StarAlgebra, "basis")
    monkeypatch.setattr(GnsSpace, "left", counted_left)
    monkeypatch.setattr(StarAlgebra, "image", counted_image)
    inc = make_inclusion(key)
    monkeypatch.setattr(StarAlgebra, "basis", counted)
    t = iterate(basic_construction(inc))
    t.extend()
    assert calls == {"left": 0, "image": 0, "basis": 0}
    assert len(t.levels) == 4


def _golden_tower():
    return iterate(basic_construction(make_inclusion("golden")))


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


# -- checks on the range of the Jones projections ---------------------------

RANGE_TOWERS = {
    "trivial_in_full_3": lambda: get_tower("trivial_in_full_3"),
    "diagonal_in_full_4": lambda: get_tower("diagonal_in_full_4"),
    "golden": _golden_tower,
}


@pytest.mark.parametrize("key", sorted(RANGE_TOWERS))
@pytest.mark.parametrize("k", [1, 2])
def test_gns_act_matches_dense_action(key, k):
    # left(x) @ V without forming left(x), for a stack longer than dim / r
    lvl = RANGE_TOWERS[key]().level(k)
    g, r = lvl.gns, lvl.jones_range.shape[1]
    rng = np.random.default_rng(41 + k)
    xs = np.array([algebra_element(g, rng) for _ in range(g.dim // r + 3)])
    assert la.frobenius_distance(xs[0], la.dagger(xs[0])) > 1e-3
    if key == "golden":
        assert np.ptp(np.diag(g.trace.density).real) > 1e-3
    for v in (lvl.jones_range, rng.standard_normal((g.dim, r)) + 1j * rng.standard_normal((g.dim, r))):
        lefts = g.act(xs, v)
        assert lefts.shape == (len(xs), g.dim, r)
        for x, lv in zip(xs, lefts):
            assert np.abs(lv - g.left(x) @ v).max() < 1e-12


@pytest.mark.parametrize("key", [*TOWER_KEYS, "golden"])
@pytest.mark.parametrize("k", [1, 2])
def test_gns_maps_match_dense_formulas(key, k):
    # the frame formulas against the dense tau-orthonormal units c_k and the
    # density rho: vector(x)_k = Tr(rho c_k* x), left(x)_lk = Tr(rho c_l* x c_k),
    # right(x)_lk = Tr(rho c_l* c_k x), element(v) = sum_k v_k c_k,
    # pullback(D) = sum_kl D_kl c_k rho c_l*, and jones the projection onto the
    # vectors of the c'_k of the algebra below
    t = _golden_tower() if key == "golden" else get_tower(key)
    lvl, sub = t.level(k), t.level(k - 1).upper
    g = lvl.gns
    rho, onb = g.trace.density, reference_onb(g.algebra, g.trace)
    n = onb.shape[1]
    rho_onb = np.matmul(rho, la.dagger(onb))
    rows = rho_onb.transpose(0, 2, 1).reshape(g.dim, -1)  # Tr(rho c_k* x) = rows @ x.ravel()
    rng = np.random.default_rng(43 + k)
    x = algebra_element(g, rng)
    v = rng.standard_normal(g.dim) + 1j * rng.standard_normal(g.dim)
    density = rng.standard_normal((g.dim, g.dim)) + 1j * rng.standard_normal((g.dim, g.dim))
    left = rows @ np.matmul(x, onb).reshape(g.dim, -1).T
    right = rows @ np.matmul(onb, x).reshape(g.dim, -1).T
    mixed = (density @ rho_onb.reshape(g.dim, -1)).reshape(onb.shape)
    pullback = onb.transpose(1, 0, 2).reshape(n, -1) @ mixed.reshape(-1, n)
    sub_onb = reference_onb(sub, g.trace.restrict(sub))
    p = rows @ sub_onb.reshape(sub.dim, -1).T
    assert np.abs(g.vector(x) - rows @ x.ravel()).max() < 1e-12
    assert np.abs(g.left(x) - left).max() < 1e-12
    assert np.abs(g.right(x) - right).max() < 1e-12
    assert np.abs(g.element(v) - np.tensordot(v, onb, axes=(0, 0))).max() < 1e-12
    assert np.abs(g.pullback(density) - pullback).max() < 1e-12
    assert np.abs(lvl.jones - p @ la.dagger(p)).max() < 1e-12


@pytest.mark.parametrize("key", sorted(RANGE_TOWERS))
@pytest.mark.parametrize("k", [1, 2])
def test_jones_is_range_isometry_squared(key, k):
    lvl = RANGE_TOWERS[key]().level(k)
    p = lvl.jones_range
    assert p.shape == (lvl.gns.dim, lvl.lower.dim)
    assert np.abs(la.dagger(p) @ p - np.eye(p.shape[1])).max() < 1e-12
    assert np.abs(lvl.jones - p @ la.dagger(p)).max() < 1e-12


def _dense_range_residuals(t):
    """The Jones-terminated residuals of verify_tower and verify_epr, from D x D operators."""
    from opteleport.tower import _PAIR_SEED

    inc, rc = t.inclusion, t.rel_comm
    pi, pi1, e1, e2 = t.gns.left, t.gns1.left, t.jones1, t.jones2
    e1_up = pi1(e1)
    shift_ent = max(
        la.frobenius_distance(e1_up @ pi1(pi(x)) @ e2, e1_up @ t.shift(x) @ e2) for x in rc.basis
    )
    rng = la.rng_from(_PAIR_SEED + 4)
    vectors = [t.gns.vector(inc.small.unit)]
    y = np.tensordot(rng.standard_normal(inc.small.dim), inc.small.basis, axes=(0, 0))
    v = t.gns.vector(y)
    vectors.append(v / np.linalg.norm(v))
    return {
        "compression_is_expectation": max(
            la.frobenius_distance(e1 @ pi(x) @ e1, pi(inc.expectation(x)) @ e1)
            for x in inc.big.basis
        ),
        "compression_is_expectation_level2": max(
            la.frobenius_distance(e2 @ pi1(x) @ e2, pi1(t.expect_onto_m(x)) @ e2)
            for x in t.level1.basis
        ),
        "relative_commutant_entanglement": max(
            la.frobenius_distance(pi(x) @ e1, t.gamma0(x) @ e1) for x in rc.basis
        ),
        "shift_entanglement": shift_ent,
        "left_right_on_jones": max(
            la.frobenius_distance(pi(x) @ e1, t.gamma0(x) @ e1) for x in rc.basis
        ),
        "shift_on_second_jones": shift_ent,
        "perfect_correlation": max(
            float(np.linalg.norm((pi(x) - t.gamma0(x)) @ psi)) for psi in vectors for x in rc.basis
        ),
    }


def _dense_frame_residuals(t):
    """The residuals that verify_tower reads in frame coordinates, from D x D
    products and dense bases, with the rank of the dense span of {x e_N y}.
    The gamma1 identities run on the samples verify_tower draws, through
    dense t.gamma(1, .) products at the level-two GNS dimension."""
    from opteleport.tower import _PAIR_SEED

    inc = t.inclusion
    pi, pi1, e1, e2 = t.gns.left, t.gns1.left, t.jones1, t.jones2
    images = [pi(x) for x in inc.big.basis]
    pairs = [(x, y) for x in inc.big.basis for y in inc.big.basis]
    prods = [px @ e1 @ py for px in images for py in images]
    span = la.span_onb(prods)
    shifted = [t.shift(x) for x in t.rel_comm.basis]
    gens = [pi1(px) for px in images] + [pi1(e1)]
    rng = la.rng_from(_PAIR_SEED + 3)
    xs, ys = t.rel_comm.random_hermitian(rng, 6), t.rel_comm.random_hermitian(rng, 6)
    gamma1 = lambda x: t.gamma(1, x)  # noqa: E731
    samples = [(t.gamma0(x), t.gamma0(y), t.gamma0(x @ y), t.gamma0(la.dagger(x))) for x, y in zip(xs, ys)]
    return span.shape[0], {
        "shift_multiplicative": max(
            la.frobenius_distance(gamma1(gxy), gamma1(gx) @ gamma1(gy)) for gx, gy, gxy, _ in samples
        ),
        "shift_star_preserving": max(
            la.frobenius_distance(gamma1(gxd), la.dagger(gamma1(gx))) for gx, _, _, gxd in samples
        ),
        "gamma1_anti_multiplicative": max(
            la.frobenius_distance(gamma1(gx @ gy), gamma1(gy) @ gamma1(gx)) for gx, gy, _, _ in samples
        ),
        "level1_span_membership": max(la.span_residual(span, b) for b in t.level1.basis),
        "tr1_defining_relation": max(
            abs(np.trace(t.levels[1].density @ prod) - inc.trace(x @ y))
            for (x, y), prod in zip(pairs, prods)
        ),
        "jones2_commutes_with_m": max(
            la.frobenius_distance(e2 @ b, b @ e2) for b in t.levels[2].lower.basis
        ),
        "markov_expectation_level2": la.frobenius_distance(
            t.levels[2].expect(e2), np.eye(t.gns1.dim) / inc.index
        ),
        "shift_lands_in_level2_commutant": max(
            la.frobenius_distance(s @ g, g @ s) for s in shifted for g in gens
        ),
        "shift_image_in_level2": max(t.level2.membership_residual(s) for s in shifted),
    }


def _span_rank(t, p):
    """The rank of span{pi(x) P P* pi(y)} over the basis of M, as verify_tower reads it."""
    from opteleport.tower import _pair_coordinates, _row_rank

    ranged = t.gns.act(t.inclusion.big.basis, p)
    return _row_rank(_pair_coordinates(t.level1, ranged), t.tol)


def _full_central_support(t, p):
    """Whether z P != 0 for every minimal central projection z of M1."""
    return all(np.linalg.norm(z @ p) > 1e-6 for z in t.level1.central_projections)


FRAME_TOWERS = [*TOWER_KEYS, "diagonal_in_full_4", "golden", "rotated"]


def _rotated_tower():
    # a rotated copy of C + C inside M_2: its frames, and those of every level, are complex
    w = la.random_unitary(2, 77)
    rot = StarAlgebra.from_generators([w @ np.diag([1.0, 0.0]).astype(complex) @ la.dagger(w)], 2)
    return iterate(basic_construction(markov_inclusion(rot, StarAlgebra.full(2))))


def _frame_tower(key, fresh=False):
    """The named tower; ``fresh`` builds a new one instead of reusing the shared cache."""
    built = {"golden": _golden_tower, "rotated": _rotated_tower}.get(key)
    if built:
        return built()
    return iterate(basic_construction(make_inclusion(key))) if fresh else get_tower(key)


@pytest.mark.parametrize("key", FRAME_TOWERS)
def test_frame_checks_match_dense_formulas(key):
    t = _frame_tower(key)
    got = {c.name: c for c in verify_tower(t).checks}
    rank, dense = _dense_frame_residuals(t)
    for name, want in dense.items():
        assert abs(got[name].residual - want) < 1e-12, name
    assert _span_rank(t, t.levels[1].jones_range) == rank
    assert got["level1_spanned_by_compressions"].passed == (rank == t.level1.dim)


@pytest.mark.parametrize("key", FRAME_TOWERS)
def test_span_rank_follows_central_support(key):
    # span(M e M) is a two-sided ideal of M1, so it is all of M1 exactly when
    # e has central support 1: z P != 0 for every central projection z of M1
    t = _frame_tower(key)
    p = t.levels[1].jones_range
    assert _full_central_support(t, p)
    assert _span_rank(t, p) == t.level1.dim


def test_span_rank_drops_with_central_support():
    # the first column of P spans Lambda of one minimal projection of N = D_3,
    # whose central support in M1 is one block of three
    t = get_tower("diagonal_in_full_3")
    cut = t.levels[1].jones_range[:, :1]
    assert not _full_central_support(t, cut)
    assert _span_rank(t, cut) < t.level1.dim


def test_span_checks_fail_on_partial_central_support():
    # with e cut to one minimal projection of N = D_3, span(M e M) is one
    # block M_3 of M1 = M_3 + M_3 + M_3: both span checks fail, and the units
    # of M1 lie sqrt(27 - 9) from the span
    t = basic_construction(make_inclusion("diagonal_in_full_3"))
    t.levels[1].jones_range = t.levels[1].jones_range[:, :1]
    t.levels[1].__dict__.pop("jones", None)
    got = {c.name: c for c in verify_tower(t).checks}
    assert not got["level1_spanned_by_compressions"].passed
    assert not got["level1_span_membership"].passed
    assert abs(got["level1_span_membership"].residual - np.sqrt(27 - 9)) < 1e-12


@pytest.mark.parametrize("key", FRAME_TOWERS)
def test_range_checks_match_dense_formulas(key):
    # the rotated tower has complex frames at every level, where a slip of a
    # conjugation or a transpose in the range formulas would show
    t = _frame_tower(key)
    got = {c.name: c.residual for c in verify_tower(t).checks + verify_epr(t).checks}
    for name, want in _dense_range_residuals(t).items():
        assert abs(got[name] - want) < 1e-12, name


def _wrong_expectation(t, level, kind):
    """Replace the expectation that verify_tower reads at ``level`` (onto N,
    or onto M at level two) by E moved off its range by 1e-3 (x - E(x)) for
    ``kind`` "outside", or by ``kind`` times E; return the new map."""
    right = t.inclusion.expectation if level == 1 else t.levels[1].expect
    if kind == "outside":
        wrong = lambda x: right(x) + 1e-3 * (x - right(x))  # noqa: E731
    else:
        wrong = lambda x: kind * right(x)  # noqa: E731
    if level == 1:
        t.inclusion.expectation = wrong
    else:
        t.levels[1].expect = wrong
    return wrong


@pytest.mark.parametrize("key", ["diagonal_in_full_3", "golden"])
@pytest.mark.parametrize("kind", [1 + 1e-3, "outside"])
@pytest.mark.parametrize(
    "level, name", [(1, "compression_is_expectation"), (2, "compression_is_expectation_level2")]
)
def test_compression_checks_fail_on_a_wrong_expectation(key, kind, level, name, monkeypatch):
    # e x e = E(x) e pins E: a wrong expectation, set where verify_tower reads
    # it, fails the check in the dense reference and in verify_tower alike
    t = _frame_tower(key, fresh=True)
    _wrong_expectation(t, level, kind)
    thresholds = record_thresholds(monkeypatch)
    check = next(c for c in verify_tower(t).checks if c.name == name)
    assert not check.passed
    assert _dense_range_residuals(t)[name] > thresholds[name]


@pytest.mark.parametrize("key", ["diagonal_in_full_3", "golden", "rotated"])
@pytest.mark.parametrize(
    "level, name", [(1, "compression_is_expectation"), (2, "compression_is_expectation_level2")]
)
def test_compression_checks_match_dense_formulas_off_the_range(key, level, name):
    # a range of e rotated off the GNS image of B is still an isometry, so the
    # split along e and 1 - e is exact: the residual is the dense one, and fails
    t = _frame_tower(key, fresh=True)
    lvl = t.levels[level]
    vals, vecs = np.linalg.eigh(la.random_hermitian(lvl.gns.dim, 5))
    lvl.jones_range = (vecs * np.exp(1e-3j * vals)) @ la.dagger(vecs) @ lvl.jones_range
    lvl.__dict__.pop("jones", None)
    got = next(c for c in verify_tower(t).checks if c.name == name)
    assert not got.passed
    assert abs(got.residual - _dense_range_residuals(t)[name]) < 1e-12


@pytest.mark.parametrize("scale", [1.0, 1 - 1e-3])
@pytest.mark.parametrize("level", [1, 2])
def test_compression_checks_bound_the_residual_of_a_range_off_isometry(level, scale):
    # on a rescaled range P the check reads an upper bound on
    # max_x ||P P* pi(x) P - pi(E x) P||_F, which fails; an expectation scaled
    # down makes the exact square exceed the split one along e and 1 - e
    t = _frame_tower("diagonal_in_full_3", fresh=True)
    lvl = t.levels[level]
    lvl.jones_range = lvl.jones_range * 1.01
    lvl.__dict__.pop("jones", None)
    gns, p, expect = lvl.gns, lvl.jones_range, _wrong_expectation(t, level, scale)
    exact = max(
        la.frobenius_distance(p @ (la.dagger(p) @ gns.left(x) @ p), gns.left(expect(x)) @ p)
        for x in gns.algebra.basis
    )
    name = "compression_is_expectation" + ("_level2" if level == 2 else "")
    got = next(c for c in verify_tower(t).checks if c.name == name)
    assert not got.passed and got.residual >= exact


@pytest.mark.parametrize(
    "method, names",
    [
        (
            "gamma0",
            ["relative_commutant_entanglement", "left_right_on_jones", "perfect_correlation"],
        ),
        ("shift", ["shift_entanglement", "shift_on_second_jones"]),
    ],
)
def test_range_checks_read_the_public_maps(method, names, monkeypatch):
    # a wrong Tower.gamma0 or Tower.shift must fail the checks that state its identity
    from opteleport.tower import Tower

    t = iterate(basic_construction(trivial_in_full(3)))
    right = getattr(Tower, method)
    monkeypatch.setattr(Tower, method, lambda self, x: np.conj(right(self, x)) * 0.5)
    failed = {c.name for c in verify_tower(t).checks + verify_epr(t).checks if not c.passed}
    assert set(names) <= failed


def test_frame_checks_read_the_public_maps(monkeypatch):
    # a wrong Tower.shift must leave the commutant of M1; a rescaled range of
    # e_M is no longer a Jones projection of the Markov expectation
    from opteleport.tower import Tower

    t = iterate(basic_construction(trivial_in_full(3)))
    right = Tower.shift
    # J shift(x) J lies in M1, not in its commutant
    flipped = lambda self, x: 0.5 * self.gns1._conjugate(right(self, x), operator=True)  # noqa: E731
    monkeypatch.setattr(Tower, "shift", flipped)
    failed = {c.name for c in verify_tower(t).checks if not c.passed}
    assert "shift_lands_in_level2_commutant" in failed
    monkeypatch.undo()
    t = iterate(basic_construction(trivial_in_full(3)))
    t.levels[2].jones_range = t.levels[2].jones_range * 1.01
    failed = {c.name for c in verify_tower(t).checks if not c.passed}
    assert {"markov_expectation_level2", "jones2_commutes_with_m", "compression_is_expectation_level2"} <= failed


@pytest.mark.parametrize(
    "k, names",
    [
        (1, ["shift_multiplicative", "gamma1_anti_multiplicative", "shift_image_in_level2"]),
        (2, ["shift_entanglement", "shift_lands_in_level2_commutant", "shift_image_in_level2"]),
    ],
)
def test_shift_checks_fail_on_a_rotated_right_action(k, names, monkeypatch):
    # gamma0 (k = 1) or gamma1 (k = 2) conjugated by a random unitary on the
    # public map instance must fail the level-two shift checks of its identities
    t = iterate(basic_construction(make_inclusion("diagonal_in_full_3")))
    gns = t.levels[k].gns
    u, right = la.random_unitary(gns.dim, 31), gns.right
    monkeypatch.setattr(gns, "right", lambda x: u @ right(x) @ la.dagger(u))
    failed = {c.name for c in verify_tower(t).checks if not c.passed}
    assert set(names) <= failed


def test_span_membership_sees_products_outside_level1():
    # the corner coordinates see only the part of x e y inside M1; a range of
    # e_N rotated out of M1 must still fail the membership check
    t = basic_construction(make_inclusion("diagonal_in_full_3"))
    h = la.random_hermitian(t.gns.dim, 5)
    vals, vecs = np.linalg.eigh(h)
    t.levels[1].jones_range = (vecs * np.exp(1e-3j * vals)) @ la.dagger(vecs) @ t.levels[1].jones_range
    failed = {c.name for c in verify_tower(t).checks if not c.passed}
    assert "level1_span_membership" in failed


@pytest.mark.parametrize("key", ["trivial_in_full_3", "diagonal_in_full_4", "golden"])
def test_verify_tower_forms_few_gns_operators(key, monkeypatch):
    # the Jones-terminated checks act on the range isometries, not on D x D
    # operators, and every family goes through the GNS maps as one stack: the
    # counts do not grow with dim M
    t = get_tower(key)
    calls = {"left": 0, "vector": 0}
    left, vector = GnsSpace.left, GnsSpace.vector

    def counted_left(self, x):
        calls["left"] += 1
        return left(self, x)

    def counted_vector(self, x):
        calls["vector"] += 1
        return vector(self, x)

    monkeypatch.setattr(GnsSpace, "left", counted_left)
    monkeypatch.setattr(GnsSpace, "vector", counted_vector)
    assert verify_tower(t).passed
    assert calls["left"] <= 16 and calls["vector"] <= 3


def test_golden_tower_passes_with_non_integer_index():
    rep = verify_tower(_golden_tower())
    check = next(c for c in rep.checks if c.name == "index_matches_level1")
    assert check.passed and "[M:N]=2.618" in check.detail
    assert rep.passed


@pytest.mark.parametrize("key", FRAME_TOWERS)
def test_verify_tower_builds_no_basis_above_level1(key, monkeypatch):
    # M1 and M2 are read in frame coordinates: no algebra acting on a GNS
    # space above that of M builds its dense basis
    from functools import cached_property

    t = _frame_tower(key, fresh=True)
    built = []
    basis = StarAlgebra.basis.func

    def counted_basis(self):
        built.append((self.ambient_dim, self.dim))
        return basis(self)

    counted = cached_property(counted_basis)
    counted.__set_name__(StarAlgebra, "basis")
    monkeypatch.setattr(StarAlgebra, "basis", counted)
    assert verify_tower(t).passed
    assert [b for b in built if b[0] > t.gns.dim] == []


def _right_commutant_distance(gns, sub):
    """The map taking an operator on ``gns`` to its Frobenius distance from
    the commutant of the right action of ``sub`` ⊆ ``gns.algebra``, for any
    operator: the reference for the corner bound of verify_tower.

    On block j the right action of y is 1 (x) ybar_j^T, and
    ybar_j = F_j ((+)_i y_i (x) 1_{r_ij}) F_j* for F_j the unit frames of
    ``sub`` in block j, columns (i, p, s).  With conj(F_j) on the second leg
    it becomes (+)_i y_i^T (x) 1, whose commutant is (+)_i 1_{e_i} (x) M_{n_i}
    on the coordinates (i, p, (j, a, s)), n_i = sum_j d_j r_ij.
    """
    from opteleport.algebra import _layout_distance

    frames = gns.unit_frames(sub)  # [i][j]: (d_j, e_i, r_ij)
    changes, position = [], []  # per block j: conj(F_j), and the coordinates (a, (i, p, s))
    for j, ((d, _), sl) in enumerate(zip(gns.algebra.blocks, gns._slices)):
        changes.append(np.conj(np.concatenate([row[j].reshape(d, -1) for row in frames], axis=1)))
        position.append(sl.start + np.arange(d * d).reshape(d, d))
    order, layout, offsets = [], [], [0] * len(position)
    for row in frames:
        e = row[0].shape[1]
        legs = []  # per block j: the coordinates (a, s) of each p, as an (e, d_j r_ij) array
        for j, f in enumerate(row):
            d, _, r = f.shape
            cols = position[j][:, offsets[j] : offsets[j] + e * r].reshape(d, e, r)
            legs.append(cols.transpose(1, 0, 2).reshape(e, -1))
            offsets[j] += e * r
        block = np.concatenate(legs, axis=1)
        order.append(block.ravel())
        layout.append((e, block.shape[1]))
    order = np.concatenate(order)

    def distance(xt):
        z = np.array(xt, dtype=complex)
        for (d, _), sl, u in zip(gns.algebra.blocks, gns._slices, changes):
            z[:, sl] = (z[:, sl].reshape(-1, d, d) @ u).reshape(-1, d * d)
            z[sl] = (la.dagger(u) @ z[sl].reshape(d, d, -1)).reshape(d * d, -1)
        return _layout_distance(z[order][:, order], layout, commutant=True)

    return distance


@pytest.mark.parametrize("key", FRAME_TOWERS)
def test_unit_coordinate_distances_match_projections(key):
    # off the algebras too: random operators and perturbed members of M2 and
    # of the commutant of M1, against the distances StarAlgebra.project gives
    from opteleport.algebra import _corners, _layout_distance
    from opteleport.tower import _level2_distances

    t = _frame_tower(key)
    g, upper = t.gns1, t.levels[2].upper
    rng = np.random.default_rng(61)
    xs = rng.standard_normal((3, g.dim, g.dim)) + 1j * rng.standard_normal((3, g.dim, g.dim))
    xs[1] = t.level2.random_hermitian(rng) + 1e-3 * xs[1]
    xs[2] = upper.commutant.random_hermitian(rng) + 1e-3 * xs[2]
    layout = [(d, d) for d, _ in g.algebra.blocks]
    to_level2 = _right_commutant_distance(g, t.levels[1].upper)
    corner_bound = _level2_distances(g, t.levels[1].upper)
    for x in xs:
        lands = _layout_distance(x, layout, commutant=True)
        image = to_level2(x)
        assert abs(lands - upper.commutant.membership_residual(x)) < 1e-10
        assert abs(image - t.level2.membership_residual(x)) < 1e-10
        # the corner pass: lands, and the distance to M1' ∩ M2, which bounds
        # that to M2 and is sqrt(lands^2 + dist(its projection onto M1', M2)^2)
        got_lands, got_image = corner_bound(x)
        assert abs(got_lands - lands) < 1e-10
        assert abs(got_image - np.hypot(lands, to_level2(upper.commutant.project(x)))) < 1e-10
        assert got_image >= image - 1e-10
        # the frame of represented(algebra) selects block j: corners from the diagonal blocks
        for (d, _), sl, c in zip(g.algebra.blocks, g._slices, _corners(upper, x)):
            assert np.abs(np.trace(x[sl, sl].reshape(d, d, d, d), axis1=1, axis2=3) / d - c).max() < 1e-12
    # on M1' the bound is the distance to M2
    inside = upper.commutant.random_hermitian(rng)
    assert abs(corner_bound(inside)[1] - to_level2(inside)) < 1e-10


def test_level2_image_reads_complex_unit_frames():
    # the unit frames F_j of a rotated C + C ⊗ 1_2 inside M_3 are complex, so the
    # right action needs the change of basis by conj(F_j), not by F_j; the
    # reference is the dense commutant of that right action
    from opteleport.tower import _level2_distances

    big = StarAlgebra.full(3)
    gns = GnsSpace(big, Trace.normalized(big))
    w = la.random_unitary(3, 5)
    sub = StarAlgebra.from_generators([w @ np.diag([1.0, 0.0, 0.0]).astype(complex) @ la.dagger(w)], 3)
    assert max(np.abs(f.imag).max() for row in gns.unit_frames(sub) for f in row) > 0.1
    level2 = StarAlgebra.from_generators(list(gns.right(np.stack(sub.central_projections))), gns.dim).commutant
    rng = np.random.default_rng(7)
    for y in rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3)):
        lands, image = _level2_distances(gns, sub)(gns.right(y))  # right(y) lies in M3'
        assert lands < 1e-12 and image > 0.1
        assert abs(image - level2.membership_residual(gns.right(y))) < 1e-10


def test_gns_requires_the_trace_of_the_represented_algebra():
    foreign = Trace.normalized(StarAlgebra.full(2))  # an equal algebra, but another object
    with pytest.raises(TraceError, match="trace must live on the represented algebra"):
        GnsSpace(StarAlgebra.full(2), foreign)


@pytest.mark.parametrize("key", TOWER_KEYS)
@pytest.mark.parametrize("k", [1, 2])
def test_modular_conjugation_is_the_star_on_vectors(key, k):
    # J is an involution with J Lambda(x) = Lambda(x*), and J left(x) J = right(x*)
    g = get_tower(key).level(k).gns
    x = algebra_element(g, np.random.default_rng(71 + k))
    v = g.vector(x)
    assert np.abs(g._conjugate(g._conjugate(v)) - v).max() == 0.0
    assert np.abs(g._conjugate(v) - g.vector(la.dagger(x))).max() < 1e-12
    assert la.frobenius_distance(g._conjugate(g.left(x), operator=True), g.right(la.dagger(x))) < 1e-12


@pytest.mark.parametrize("key", TOWER_KEYS)
@pytest.mark.parametrize("k", [1, 2])
def test_represented_algebra_selects_coordinates(key, k):
    # the algebra on its own GNS space acts on the units of each block: its
    # frames are columns of the identity, 0/1 with one entry per row
    g = get_tower(key).level(k).gns
    w = np.hstack(g.represented(g.algebra).frames)
    assert np.all((w == 0) | (w == 1))
    assert np.array_equal(np.count_nonzero(w, axis=1), np.ones(g.dim, dtype=int))


@pytest.mark.parametrize("key", FRAME_TOWERS)
@pytest.mark.parametrize("k", [1, 2])
def test_upper_algebra_is_the_represented_algebra(key, k):
    # each level writes the algebra below, on its own GNS space, from its
    # layout: the blocks and frames that GnsSpace.represented finds.  On the
    # complex frames of the rotated M1, represented carries their rounding
    t = _frame_tower(key)
    g = t.levels[k].gns
    want, got = g.represented(g.algebra), t.levels[k].upper
    assert got.blocks == want.blocks
    gaps = [np.abs(a - b).max() for a, b in zip(got.frames, want.frames, strict=True)]
    assert max(gaps) <= (1e-14 if key == "rotated" and k == 2 else 0.0)


@pytest.mark.parametrize("key", ["trivial_in_full_3", "diagonal_in_full_3", "golden"])
def test_compression_checks_read_the_same_in_chunks(key, monkeypatch):
    # _compression_residual reads the basis in chunks of whole blocks; chunks
    # of at most one, five or twenty rows at the level with the widest rows
    # (a block alone, or two blocks of D_3's M1 together) give the residuals
    # of one chunk
    from opteleport import tower

    t = _frame_tower(key)
    names = ["compression_is_expectation", "compression_is_expectation_level2"]
    want = {c.name: c for c in verify_tower(t).checks if c.name in names}
    width = max(
        2 * (lvl.jones_range.shape[1] ** 2 + lvl.gns.algebra.ambient_dim**2) for lvl in t.levels[1:3]
    )
    for rows in (1, 5, 20):
        monkeypatch.setattr(tower, "_SHIFT_CHUNK", rows * width)
        got = {c.name: c for c in verify_tower(t).checks if c.name in names}
        for name in names:
            assert got[name].passed == want[name].passed
            assert abs(got[name].residual - want[name].residual) <= 1e-14, name


@pytest.mark.parametrize("key", ["trivial_in_full_3", "diagonal_in_full_3"])
def test_shift_checks_read_the_same_in_chunks(key, monkeypatch):
    # verify_tower and verify_epr form the shifted basis a chunk at a time;
    # chunks of four operators, the last one short, give the reports of the whole stack
    from opteleport import tower

    t = get_tower(key)
    want = [verify_tower(t), verify_epr(t)]
    monkeypatch.setattr(tower, "_SHIFT_CHUNK", 4 * t.gns1.dim**2)
    got = [verify_tower(t), verify_epr(t)]
    for g, w in zip(got, want):
        assert [(c.name, c.passed) for c in g.checks] == [(c.name, c.passed) for c in w.checks]
        assert max(abs(a.residual - b.residual) for a, b in zip(g.checks, w.checks)) <= 1e-14
    # the chunks cover the basis once, in order, through Tower.shift
    shifted = t.shift(t.rel_comm.basis)
    xs, ys = (np.concatenate(parts) for parts in zip(*tower._shift_chunks(t)))
    assert np.array_equal(xs, t.rel_comm.basis) and np.array_equal(ys, shifted)
    # the level-two pass takes the stack, and reads each operator as it reads it alone
    to_level2 = tower._level2_distances(t.gns1, t.levels[1].upper)
    lands, image = to_level2(shifted)
    assert lands.shape == image.shape == (len(shifted),)
    for s, a, b in zip(shifted, lands, image):
        assert np.allclose(to_level2(s), (a, b), rtol=0, atol=1e-15)


def test_jones_follows_a_replaced_range():
    # e_N read before the level-1 range of D_3 ⊆ M_3 is scaled by 1.01 is not
    # kept: both checks read the projection of the range the tower holds
    t = _frame_tower("diagonal_in_full_3", fresh=True)
    before = t.jones1
    lvl = t.levels[1]
    lvl.jones_range = lvl.jones_range * 1.01
    got = {c.name: c for c in verify_tower(t).checks}
    assert not got["jones1_projection"].passed
    assert not got["markov_expectation_of_jones"].passed
    assert np.array_equal(t.jones1, lvl.jones_range @ la.dagger(lvl.jones_range))
    assert la.frobenius_distance(t.jones1, before) > 1e-3


def _gate_residual(alg):
    """||W*W - 1||_F for W = hstack(frames), the quantity StarAlgebra's constructor gates."""
    w = np.hstack(alg.frames)
    return np.linalg.norm(la.dagger(w) @ w - np.eye(alg.ambient_dim))


def _ungated_algebras(t):
    """The algebras of the tower that are built as exact derivations of gated frames."""
    found = [t.rel_comm]
    for lvl in t.levels:
        found += [lvl.upper, lvl.algebra, lvl.upper.commutant, lvl.algebra.commutant, lvl.algebra.center]
        if lvl.lower is not None:
            found.append(lvl.lower.commutant)
    return found


@pytest.mark.parametrize("key", FRAME_TOWERS)
def test_algebras_built_without_the_gate_pass_it(key):
    # identity splits, commutants, centres and the conjugated commutant of each
    # step skip the unitarity gate; their frames still satisfy its criterion
    for alg in _ungated_algebras(_frame_tower(key)):
        assert _gate_residual(alg) <= 1e-6 * alg.ambient_dim


def test_level_three_algebras_built_without_the_gate_pass_it():
    t = iterate(basic_construction(trivial_in_full(3)))
    assert t.extend().gns.dim == 729
    for alg in _ungated_algebras(t):
        assert _gate_residual(alg) <= 1e-6 * alg.ambient_dim


@pytest.mark.parametrize("key", FRAME_TOWERS)
def test_represented_gate_reads_the_dense_criterion_on_the_unit_frames(key, monkeypatch):
    # W*W of a represented algebra is (+)_j (F_j* F_j (x) 1_{d_j}) up to a
    # permutation, so sum_j d_j ||F_j* F_j - 1||_F^2 is the dense ||W*W - 1||_F^2
    t = _frame_tower(key)
    gns, sub = t.levels[2].gns, t.levels[1].upper
    units = gns.unit_frames(sub)
    first = next((i, j) for i, row in enumerate(units) for j, f in enumerate(row) if f.size)
    for scale, passes in [(1 + 1e-9, True), (1 + 1e-3, False)]:
        stretched = [[f * scale if (i, j) == first else f for j, f in enumerate(row)] for i, row in enumerate(units)]
        monkeypatch.setattr(GnsSpace, "unit_frames", lambda self, s: stretched)
        small = 0.0
        for j, (d, _) in enumerate(gns.algebra.blocks):
            f = np.concatenate([row[j].reshape(d, -1) for row in stretched], axis=1)
            small += d * np.linalg.norm(la.dagger(f) @ f - np.eye(d)) ** 2
        if passes:
            assert abs(_gate_residual(gns.represented(sub)) - np.sqrt(small)) <= 1e-6 * np.sqrt(small)
        else:
            assert np.sqrt(small) > 1e-6 * gns.dim
            with pytest.raises(StructureError, match="algebra unit is not the ambient identity"):
                gns.represented(sub)
