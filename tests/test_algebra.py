import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opteleport import linalg as la
from opteleport.algebra import (
    StarAlgebra,
    Superoperator,
    Trace,
    conditional_expectation_onto,
    _commutation_gap,
    _discover,
    _split,
    intersect,
    scalar_decompose_cp_family,
)
from opteleport.errors import NotScalarError, PreconditionError, StructureError, TraceError
from opteleport.linalg import DEFAULT_TOL

from conftest import dense_commutation_gap


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
        assert la.span_residual(want, b) < 1e-12
    oracle = brute_force_commutant(alg)
    assert oracle.shape[0] == comm.dim
    for b in comm.basis:
        assert la.span_residual(oracle, b) < 1e-12


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


def test_square_nonunitary_frame_rejected():
    # the right shape, but W*W is not the identity
    with pytest.raises(StructureError):
        StarAlgebra(2, [(2, 1)], [np.array([[1.0, 1.0], [0.0, 1.0]])])


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


def test_conditional_expectation_depolarising():
    # expectation onto C: tau(.) 1
    m = StarAlgebra.full(2)
    triv = StarAlgebra.trivial(2)
    t = Trace.normalized(m)
    e = conditional_expectation_onto(triv, m, t)
    x = la.random_hermitian(2, 3)
    assert la.frobenius_distance(e(x), t(x) * np.eye(2)) < 1e-12
    assert DEFAULT_TOL.close(e(e.domain.unit), e.codomain.unit) and e.is_cp()


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
    assert DEFAULT_TOL.close(e(e.domain.unit), e.codomain.unit) and e.is_cp()


def test_superoperator_choi_flags():
    m = StarAlgebra.full(2)
    ident = Superoperator(m, m, lambda x: x)
    assert DEFAULT_TOL.close(ident(ident.domain.unit), ident.codomain.unit) and ident.is_cp()
    transpose = Superoperator(m, m, lambda x: x.T)
    assert DEFAULT_TOL.close(transpose(transpose.domain.unit), transpose.codomain.unit) and not transpose.is_cp()


def raw_choi_residual(apply, n: int) -> float:
    """Reference: Hermitian defect plus negative part of the Choi matrix of
    ``apply`` on all of M_n, filled entry by entry."""
    choi = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            choi[i * n : (i + 1) * n, j * n : (j + 1) * n] = apply(e)
    vals = np.linalg.eigvalsh((choi + la.dagger(choi)) / 2)
    return float(max(0.0, -vals.min())) + la.frobenius_distance(choi, la.dagger(choi))


_KRAUS = la.random_unitary(3, 8) + 0.3 * la.random_hermitian(3, 9)


@pytest.mark.parametrize(
    "apply",
    [
        lambda x: x,
        lambda x: x.T,
        lambda x: 0.5 * x + 0.5 * np.trace(x) / 3 * np.eye(3, dtype=complex),
        lambda x: _KRAUS @ x @ la.dagger(_KRAUS),
        lambda x: 1j * x,
    ],
    ids=["identity", "transpose", "depolarising", "kraus", "not-hermiticity-preserving"],
)
def test_cp_residual_matches_raw_choi(apply):
    m = StarAlgebra.full(3)
    op = Superoperator(m, m, apply)
    assert op.ad_unitary is None
    assert abs(op.cp_residual() - raw_choi_residual(apply, 3)) < 1e-12


def test_conjugation_builds_no_trace(monkeypatch):
    built = []
    init = Trace.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Trace, "__init__", counting_init)
    m = StarAlgebra.full(4)
    v = la.random_unitary(4, 3)
    conj = Superoperator.conjugation(v, m)
    x = la.random_hermitian(4, 5)
    assert la.frobenius_distance(conj(x), v @ x @ la.dagger(v)) < 1e-12
    assert DEFAULT_TOL.close(conj(conj.domain.unit), conj.codomain.unit) and conj.is_cp() and conj.cp_residual() < 1e-12
    assert conj.domain is m and conj.codomain is m
    assert built == [] and "_onto_domain" not in vars(conj)
    conj._onto_domain  # the expectation onto the domain builds its trace on first use only
    assert built == [1]


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


def test_conditional_expectation_matches_tau_onb_formula_nonuniform():
    # E(x) = sum_k tau(c_k x) c_k under a non-uniform trace, x non-Hermitian
    # and outside the ambient algebra, on rotated frames
    u = la.random_unitary(8, 41)
    rotate = lambda a: a.image(lambda x: u @ x @ la.dagger(u), 8)  # noqa: E731
    ambient = rotate(StarAlgebra.block_diagonal([(1, 1), (2, 2), (3, 1)]))
    sub = rotate(StarAlgebra.block_diagonal([(1, 1), (1, 2), (1, 2), (1, 1), (2, 1)]))
    tau = Trace(ambient, [0.1, 0.15, 0.2])
    rng = np.random.default_rng(42)
    x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    assert ambient.membership_residual(x) > 1e-3
    # every block of ``sub`` sits inside one block of ``ambient``, so rho is
    # central in ``sub``; the scalars straddle all three blocks, where
    # E(x) = tau(x) 1 differs from the HS projection Tr(x)/8 1
    scalars = StarAlgebra.trivial(8)
    # the same formula for the expectation of ``sub`` onto itself, under a
    # non-uniform trace on the domain itself
    tau_sub = Trace(sub, [0.05, 0.1, 0.15, 0.2, 0.1])
    cases = [
        (sub, tau, conditional_expectation_onto(sub, ambient, tau)),
        (scalars, tau, conditional_expectation_onto(scalars, ambient, tau)),
        (sub, tau_sub, conditional_expectation_onto(sub, sub, tau_sub)),
    ]
    for target, trace, expect in cases:
        gram = np.array([[trace(a @ b).real for b in target.basis] for a in target.basis])
        vals, vecs = np.linalg.eigh(gram)
        onb = np.tensordot((vecs / np.sqrt(vals)) @ vecs.T, target.basis, axes=(1, 0))
        want = sum(trace(c @ x) * c for c in onb)
        assert la.frobenius_distance(expect(x), want) < 1e-12


def rotated(alg: StarAlgebra, eps: float, rng: np.random.Generator) -> StarAlgebra:
    """The algebra conjugated by exp(i eps H) for a random Hermitian H."""
    vals, vecs = np.linalg.eigh(la.random_hermitian(alg.ambient_dim, rng))
    u = (vecs * np.exp(1j * eps * vals)) @ la.dagger(vecs)
    return StarAlgebra(alg.ambient_dim, alg.blocks, [u @ w for w in alg.frames])


def assert_matches_dense(a: StarAlgebra, b: StarAlgebra) -> None:
    for x, y in ((a, b), (b, a)):
        want, got = dense_commutation_gap(x, y), _commutation_gap(x, y)
        assert abs(got - want) <= 1e-14 + 1e-12 * want, (got, want)


@pytest.mark.parametrize("layout", [[(2, 1), (1, 2)], [(3, 2), (1, 1)], [(4, 3)], [(2, 2), (3, 1)]])
@pytest.mark.parametrize("eps", [0.0, 1e-14, 1e-12, 1e-9, 1e-3, 1.0])
def test_commutator_residual_matches_dense_under_rotation(layout, eps):
    rng = np.random.default_rng(17)
    a = StarAlgebra.block_diagonal(layout)
    for other in (a.commutant, StarAlgebra.diagonal(a.ambient_dim)):
        assert_matches_dense(a, rotated(other, eps, rng))


def test_commutator_residual_zero_on_commutant_and_positive_otherwise():
    a = StarAlgebra.block_diagonal([(2, 1), (1, 2)])
    assert _commutation_gap(a, a.commutant) < 1e-15
    assert _commutation_gap(a, a) > 0.5
    assert_matches_dense(a, a)
    assert_matches_dense(a, StarAlgebra.full(4))


def test_commutator_residual_requires_common_ambient():
    with pytest.raises(PreconditionError):
        _commutation_gap(StarAlgebra.full(2), StarAlgebra.full(3))


@pytest.mark.parametrize("layout", [[(2, 1), (1, 2)], [(3, 2), (1, 1)], [(4, 3)], [(1, 1), (2, 2), (3, 1)]])
def test_random_hermitian_lies_in_algebra(layout):
    rng = np.random.default_rng(41)
    alg = rotated(StarAlgebra.block_diagonal(layout), 1.0, rng)
    for _ in range(5):
        x = alg.random_hermitian(rng)
        assert la.frobenius_distance(x, la.dagger(x)) < 1e-13
        assert alg.membership_residual(x) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 5])
def test_random_hermitian_on_full_is_the_ambient_draw(n):
    got = StarAlgebra.full(n).random_hermitian(np.random.default_rng(n))
    assert np.array_equal(got, la.random_hermitian(n, np.random.default_rng(n)))


def test_random_hermitian_has_the_projected_gue_law():
    # a standard Gaussian in HS-orthonormal coordinates: E ||z_j x||^2 = d_j^2
    alg = StarAlgebra.block_diagonal([(1, 1), (2, 2), (3, 1)])
    rng = np.random.default_rng(43)
    draws = np.stack([alg.random_hermitian(rng) for _ in range(2000)])
    assert abs(np.mean(np.sum(np.abs(draws) ** 2, axis=(1, 2))) / alg.dim - 1) < 0.05
    for (d, _), z in zip(alg.blocks, alg.central_projections):
        assert abs(np.mean(np.sum(np.abs(z @ draws) ** 2, axis=(1, 2))) / d**2 - 1) < 0.15


def jordan(d):
    return np.diag(np.ones(d - 1), 1).astype(complex)


def chain_generators(layout, u):
    """One generator per block, conjugated by u: the chain J_d (x) 1_m of the
    block, or its central projection when d = 1.  Words in a chain reach the
    far units of its block only at length about d."""
    n = sum(d * m for d, m in layout)
    gens, offset = [], 0
    for d, m in layout:
        g = np.zeros((n, n), dtype=complex)
        g[offset : offset + d * m, offset : offset + d * m] = (
            np.kron(jordan(d), np.eye(m)) if d > 1 else np.eye(m)
        )
        gens.append(u @ g @ la.dagger(u))
        offset += d * m
    return gens


@pytest.mark.parametrize("span", [[np.eye(3), jordan(3) + jordan(3).T], [jordan(3) + jordan(3).T]])
def test_from_span_rejects_a_span_that_is_no_star_algebra(span):
    with pytest.raises(StructureError):
        StarAlgebra.from_span(la.span_onb(span))


def test_discovery_takes_no_span_basis_or_nullspace(monkeypatch):
    u = la.random_unitary(6, 5)
    rotated = StarAlgebra.block_diagonal([(2, 2), (1, 2)]).image(lambda x: u @ x @ la.dagger(u), 6)
    onb = rotated.basis
    gens = chain_generators([(2, 2), (1, 2)], u)

    def refuse(*args, **kwargs):
        raise AssertionError("dense span layer called")

    monkeypatch.setattr(la, "span_onb", refuse)
    monkeypatch.setattr(la, "nullspace", refuse)
    assert StarAlgebra.from_generators(gens, 6).same_span(rotated)
    assert StarAlgebra.from_span(onb).same_span(rotated)


def test_discovery_refuses_a_candidate_missing_a_member():
    # draws confined to the diagonal split out C + C, which misses sigma_x
    sx = np.array([[0, 1], [1, 0]], dtype=complex)

    def diagonal(rng, attempt):
        return np.diag(rng.standard_normal(2)).astype(complex)

    with pytest.raises(StructureError):
        _discover(2, diagonal, [sx], None, la.DEFAULT_TOL)


def test_split_refuses_a_link_that_is_no_scalar_unitary():
    # in M_2 + M_2, an h equal on both blocks merges a cluster of each; the
    # link between the two merged clusters has two unequal singular values
    alg = StarAlgebra.block_diagonal([(2, 1), (2, 1)])
    h = np.diag([0.0, 1.0, 0.0, 1.0]).astype(complex)
    y = alg.random_hermitian(np.random.default_rng(3))
    assert _split(4, h, y, 1e-4) is None
    generic = alg.random_hermitian(np.random.default_rng(4))
    assert _split(4, generic, y, 1e-4).blocks == [(2, 1), (2, 1)]


def test_split_joins_a_chain_of_links_into_one_block():
    # y links each eigenvector of h only to its neighbours: the far clusters
    # join the block of the first one through the path, not directly
    h = np.diag(np.arange(6.0)).astype(complex)
    y = jordan(6) + jordan(6).T
    alg = _split(6, h, y, 1e-4)
    assert alg.blocks == [(6, 1)]
    assert alg.contains(y)


layouts = st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)), min_size=1, max_size=3).filter(
    lambda layout: sum(d * m for d, m in layout) <= 12
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(layouts, st.integers(0, 2**31 - 1), st.floats(-8, 8), st.booleans())
@example([(10, 1)], 0, 0.0, False)  # J_10, a single chain of ten
def test_from_generators_finds_rotated_layouts(layout, seed, log_scale, noisy):
    n = sum(d * m for d, m in layout)
    rng = np.random.default_rng(seed)
    u = la.random_unitary(n, rng)
    noise = 1e-13 if noisy else 0.0
    gens = [
        10.0**log_scale * (g + noise * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))))
        for g in chain_generators(layout, u)
    ]
    alg = StarAlgebra.from_generators(gens, n)
    assert sorted(alg.blocks) == sorted(layout)
    w = np.hstack(alg.frames)
    assert la.frobenius_distance(la.dagger(w) @ w, np.eye(n)) < 1e-12
    assert alg.same_span(StarAlgebra.block_diagonal(layout).image(lambda x: u @ x @ la.dagger(u), n))


@pytest.mark.parametrize("weights", [[1.0], [0.5, 0.25, 0.25]])
def test_trace_needs_one_weight_per_block(weights):
    with pytest.raises(TraceError, match="one weight per block required"):
        Trace(StarAlgebra.diagonal(2), weights)


@pytest.mark.parametrize("seed", range(6))
def test_is_state_reads_the_trace_of_the_density_off_the_weights(seed):
    # tau(1) = Tr(rho) = sum_j w_j d_j, on a random layout in a random rotation
    rng = np.random.default_rng(seed)
    layout = [(int(d), int(m)) for d, m in rng.integers(1, 4, size=(int(rng.integers(1, 4)), 2))]
    alg = StarAlgebra.block_diagonal(layout)
    u = la.random_unitary(alg.ambient_dim, rng)
    alg = alg.image(lambda x: u @ x @ la.dagger(u), alg.ambient_dim)
    weights = rng.uniform(0.1, 1.0, len(alg.blocks))
    for scale in (1.0, 1.0 + 1e-6):
        t = Trace(alg, scale * weights / (weights @ [d for d, _ in alg.blocks]))
        assert abs(float(t.weights @ [d for d, _ in alg.blocks]) - np.trace(t.density).real) <= 1e-12
        assert t.is_state() == (abs(np.trace(t.density).real - 1.0) <= DEFAULT_TOL.bound())
    assert Trace.normalized(alg).is_state() and not Trace(alg, 2 * Trace.normalized(alg).weights).is_state()


def _tuple_order(n, blocks, frames):
    """Canonical order as sorted Python tuples (block dim, rounded central projection entries)."""
    keys = [(bd, tuple(np.round((w @ la.dagger(w)).real.reshape(-1), 6))) for (bd, _), w in zip(blocks, frames)]
    return sorted(range(len(blocks)), key=lambda j: keys[j])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_canonical_order_ties_on_block_dim_by_the_central_projection(seed):
    from opteleport.algebra import _canonical

    rng = np.random.default_rng(seed)
    alg = StarAlgebra.block_diagonal([(1, 1), (1, 2), (2, 1), (1, 1), (2, 1), (3, 1)])
    u = la.random_unitary(alg.ambient_dim, seed) if seed else la.eye(alg.ambient_dim)
    frames = [u @ w for w in alg.frames]
    perm = rng.permutation(len(frames))
    blocks, frames = [alg.blocks[j] for j in perm], [frames[j] for j in perm]
    got = _canonical(alg.ambient_dim, blocks, frames)
    want = _tuple_order(alg.ambient_dim, blocks, frames)
    assert got.blocks == [blocks[j] for j in want]
    assert all(g is frames[j] for g, j in zip(got.frames, want))


def _layout_split_by_block(x, layout, commutant):
    """Reference for _layout_split: one pass per block, the off-block mass of
    its rows and its gap to the mean kept on the diagonal block."""
    total, o, means = 0.0, 0, []
    for d, m in layout:
        sl, end = slice(o, o + d * m), o + d * m
        total = total + la.frobenius_norms(x[..., sl, :o]) ** 2 + la.frobenius_norms(x[..., sl, end:]) ** 2
        legs = x[..., sl, sl].reshape(*x.shape[:-2], d, m, d, m)
        if commutant:
            mean = np.trace(legs, axis1=-4, axis2=-2) / d
            gap = legs - np.eye(d)[:, None, :, None] * mean[..., None, :, None, :]
        else:
            mean = np.trace(legs, axis1=-3, axis2=-1) / m
            gap = legs - mean[..., :, None, :, None] * np.eye(m)[None, :, None, :]
        total = total + la.frobenius_norms(gap.reshape(*x.shape[:-2], d * m, d * m)) ** 2
        means.append(mean)
        o = end
    return total, means


@pytest.mark.parametrize(
    "layout, lead",
    [
        ([(1, 1)] * 27, ()),
        ([(3, 3)] * 3, (5,)),
        ([(8, 1)] * 8, ()),
        ([(2, 1), (1, 2)], (2, 3)),
        ([(2, 1), (2, 1), (1, 3), (3, 1), (3, 1), (3, 1), (1, 1)], (4,)),
    ],
)
@pytest.mark.parametrize("commutant", [False, True])
def test_layout_split_reads_runs_of_equal_blocks_as_the_per_block_loop(layout, lead, commutant):
    # runs of equal blocks are read as one stack; the distance and the means
    # are those of one pass per block
    from opteleport.algebra import _layout_split

    n = sum(d * m for d, m in layout)
    rng = np.random.default_rng(len(layout))
    x = rng.standard_normal((*lead, n, n)) + 1j * rng.standard_normal((*lead, n, n))
    total, means = _layout_split(x, layout, commutant)
    want, want_means = _layout_split_by_block(x, layout, commutant)
    assert np.shape(total) == lead
    assert np.max(np.abs(total - want) / want) < 1e-15
    assert len(means) == len(layout)
    for got, ref in zip(means, want_means):
        assert got.shape == ref.shape and np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


# -- the layout gate ----------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: StarAlgebra.block_diagonal([(2, 0), (1, 1)]),
        lambda: StarAlgebra.block_diagonal([(1, -1), (2, 1)]),
        lambda: StarAlgebra.block_diagonal([(1.5, 2)]),
        lambda: StarAlgebra(3, [(2, 0), (1, 3)], [np.zeros((3, 0)), np.eye(3)]),
        lambda: StarAlgebra(4, [(1, 3)], [np.eye(4)[:, :3]]),
        lambda: StarAlgebra(4, [(2, 2.5)], [np.eye(4)]),
        lambda: StarAlgebra._derived(4, [(1, 3)], [np.eye(4)[:, :3]]),
        lambda: StarAlgebra._derived(3, [(2, 0), (1, 3)], [np.zeros((3, 0)), np.eye(3)]),
    ],
    ids=["zero-mult", "negative-mult", "half-dim", "zero-mult-frames", "short-sum", "half-mult", "derived-short-sum", "derived-zero"],
)
def test_layout_gate_refuses_a_layout_that_is_not_positive_integers_filling_the_ambient(build):
    with pytest.raises(StructureError):
        build()


def test_layout_gate_accepts_integral_numbers_of_any_integer_type():
    alg = StarAlgebra.block_diagonal([(np.int64(2), 1), (1.0, 2)])
    assert alg.blocks == [(2, 1), (1, 2)] and all(type(v) is int for b in alg.blocks for v in b)
