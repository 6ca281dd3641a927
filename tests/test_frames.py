"""The frame layer of StarAlgebra: frames are the stored structure, and the
dense units and basis are derived only when a query asks for them."""

import numpy as np
import pytest

from opteleport import linalg as la
from opteleport.algebra import StarAlgebra, Trace, _corners, _frame_distance, _from_corners
from opteleport.errors import PreconditionError, StructureError
from opteleport.inclusion import trivial_in_full
from opteleport.tower import GnsSpace, basic_construction, iterate, verify_tower

from conftest import get_tower
from test_joint_algebra import scheme
from test_tower import FRAME_TOWERS


def haar_unitary(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def fresh(alg):
    """A copy sharing the frames, so derived fields cached here stay here."""
    return StarAlgebra(alg.ambient_dim, alg.blocks, alg.frames)


def subsystem_alice_bob():
    ctx = scheme("subsystem_tight").context
    return StarAlgebra.commuting_product(ctx.alice, ctx.bob)


# dense path while dim <= 2n, frame path above it
ALGEBRAS = {
    "D4": lambda: StarAlgebra.diagonal(4),
    "C+M2": lambda: StarAlgebra.block_diagonal([(1, 1), (2, 1)]),
    "M3x1x1": lambda: StarAlgebra.tensor(
        StarAlgebra.full(3), StarAlgebra.trivial(2), StarAlgebra.trivial(2)
    ),
    "M4xM4x1": lambda: StarAlgebra.tensor(
        StarAlgebra.full(4), StarAlgebra.full(4), StarAlgebra.trivial(2)
    ),
    "level2_C_in_M3": lambda: fresh(get_tower("trivial_in_full_3").level2),
    "subsystem_alice_bob": subsystem_alice_bob,
}
FRAME_PATH = {"M4xM4x1", "level2_C_in_M3", "subsystem_alice_bob"}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_project_matches_dense_span_projection(name):
    alg = ALGEBRAS[name]()
    n = alg.ambient_dim
    assert (alg.dim > 2 * n) == (name in FRAME_PATH)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    got = alg.project(x)
    want = la.span_project(alg.basis, x)
    assert np.abs(got - want).max() < 1e-12
    assert abs(alg.membership_residual(x) - la.span_residual(alg.basis, x)) < 1e-12
    assert alg.contains(want) and not alg.contains(x)


def test_full_algebra_projects_as_the_identity():
    alg = StarAlgebra.full(4)
    x = la.random_hermitian(4, 6) + 1j * la.random_hermitian(4, 7)
    assert np.abs(alg.project(x) - la.span_project(alg.basis, x)).max() < 1e-12
    assert alg.membership_residual(x) == 0.0


def frame_cases():
    rotated = StarAlgebra.block_diagonal([(2, 1), (1, 2)])
    u = haar_unitary(4, 1)
    gens = [u @ g @ la.dagger(u) for g in rotated.basis]
    discovered = StarAlgebra.from_generators(gens, 4)
    return {
        "block_diagonal": StarAlgebra.block_diagonal([(2, 2), (1, 3), (3, 1)]),
        "from_generators": discovered,
        "commutant": discovered.commutant,
        "center": discovered.center,
        "tensor": StarAlgebra.tensor(discovered, StarAlgebra.diagonal(2)),
        "conjugate": StarAlgebra(4, discovered.blocks, [np.conj(w) for w in discovered.frames]),
        "level1": get_tower("homogeneous_2_2").level1,
        "subsystem_alice_bob": subsystem_alice_bob(),
    }


def test_frames_form_a_unitary():
    for name, alg in frame_cases().items():
        w = np.hstack(alg.frames)
        assert w.shape == (alg.ambient_dim, alg.ambient_dim), name
        assert la.frobenius_distance(la.dagger(w) @ w, np.eye(alg.ambient_dim)) < 1e-12, name
        widths = [f.shape[1] for f in alg.frames]
        assert widths == [d * m for d, m in alg.blocks], name


@pytest.mark.parametrize(
    "make",
    [
        lambda: StarAlgebra.block_diagonal([(2, 2), (1, 3), (3, 1)]),
        lambda: frame_cases()["from_generators"],
        lambda: get_tower("diagonal_in_full_3").level1,
    ],
)
def test_commutant_swaps_layout_and_is_a_double_commutant(make):
    alg = make()
    comm = alg.commutant
    assert sorted(comm.blocks) == sorted((m, d) for d, m in alg.blocks)
    clash = max(la.frobenius_distance(a @ c, c @ a) for a in alg.basis for c in comm.basis)
    assert clash < 1e-12
    assert comm.commutant.same_span(alg)


def test_matrix_units_satisfy_the_relations():
    alg = frame_cases()["from_generators"]
    for (d, m), f, z in zip(alg.blocks, alg.matrix_units, alg.central_projections):
        assert f.shape == (d, d, alg.ambient_dim, alg.ambient_dim)
        assert la.frobenius_distance(sum(f[a][a] for a in range(d)), z) < 1e-12
        assert abs(np.trace(f[0][0]).real - m) < 1e-12
        for a in range(d):
            for b in range(d):
                assert la.frobenius_distance(la.dagger(f[a][b]), f[b][a]) < 1e-12
                for c in range(d):
                    assert la.frobenius_distance(f[a][b] @ f[b][c], f[a][c]) < 1e-12


def test_level2_keeps_no_dense_stacks():
    t = iterate(basic_construction(trivial_in_full(3)))
    assert verify_tower(t).passed
    cached = vars(t.level2)
    assert "basis" not in cached and "matrix_units" not in cached


def test_level1_of_scalars_in_m8_builds_no_basis():
    t = basic_construction(trivial_in_full(8))
    assert t.level1.blocks == [(64, 1)]
    assert "basis" not in vars(t.level1)


@pytest.mark.parametrize("scale", [1e-10, 1.0, 1e10])
def test_from_generators_is_scale_invariant(scale):
    layout = StarAlgebra.block_diagonal([(2, 1), (1, 2)])
    u = haar_unitary(4, 1)
    gens = [layout.central_projections[0], layout.matrix_units[0][0][1]]
    rotated = [scale * (u @ g @ la.dagger(u)) for g in gens]
    alg = StarAlgebra.from_generators(rotated, 4)
    assert alg.blocks == [(1, 2), (2, 1)]
    assert alg.same_span(StarAlgebra.from_generators([u @ g @ la.dagger(u) for g in gens], 4))



# -- index-map frames: every read equals the dense product it replaces ----------


def dense_twin(alg):
    """The same algebra stored as dense frames, so that every read takes the products."""
    return StarAlgebra._derived(alg.ambient_dim, alg.blocks, alg.frames)


def tower_algebras(key):
    """N, M and, at levels 1 and 2, M_k, M_{k-1} and M_{k-2} represented on L^2(M_{k-1})."""
    from test_tower import _frame_tower

    t = _frame_tower(key)
    found = []
    for lvl in t.levels[:3]:
        found += [lvl.algebra, lvl.upper] + ([lvl.lower] if lvl.lower is not None else [])
    return found


def phased_algebra():
    """An index frame with phases off 1: C (+) C (+) M_2 (x) 1_3 on permuted rows."""
    base = StarAlgebra.block_diagonal([(1, 1), (1, 1), (2, 3)])
    rows = np.array([5, 0, 3, 7, 1, 6, 2, 4])
    phases = np.exp(1j * np.linspace(0.3, 2.9, 8))
    w = np.zeros((8, 8), dtype=complex)
    w[rows, np.arange(8)] = phases
    return StarAlgebra(8, base.blocks, np.split(w, [1, 2], axis=1))


def assert_reads_match(alg):
    dense, n = dense_twin(alg), alg.ambient_dim
    rng = np.random.default_rng(11)
    xs = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    for x in (xs[0], xs):
        for got, want in zip(_corners(alg, x), _corners(dense, x), strict=True):
            assert np.abs(got - want).max() < 1e-12
        corners = _corners(dense, x)
        assert np.abs(_from_corners(alg, corners) - _from_corners(dense, corners)).max() < 1e-12
        for commutant in (False, True):
            gap = np.abs(_frame_distance(alg, x, commutant) - _frame_distance(dense, x, commutant))
            assert np.max(gap) < 1e-12
    for got, want in zip(alg.central_projections, dense.central_projections, strict=True):
        assert np.abs(got - want).max() < 1e-12
    if alg.dim * n * n <= 1 << 20:
        assert np.abs(alg.basis - dense.basis).max() < 1e-12
        for got, want in zip(alg.matrix_units, dense.matrix_units, strict=True):
            assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("key", FRAME_TOWERS)
def test_index_map_reads_equal_the_dense_products_on_tower_algebras(key):
    algebras = tower_algebras(key)
    # every tower algebra over a standard-position inclusion is an index map
    assert (key == "rotated") == any(alg._index is None for alg in algebras)
    for alg in algebras:
        assert_reads_match(alg)


def test_index_map_reads_equal_the_dense_products_with_phases():
    alg = phased_algebra()
    assert alg._index is not None and (alg._index.phases != 1).any()
    assert_reads_match(alg)
    assert_reads_match(alg.commutant)
    product = StarAlgebra.tensor(alg, StarAlgebra.diagonal(2))
    assert product._index is not None  # written down from the two index maps
    assert_reads_match(product)


def kronecker_tensor(*factors):
    """StarAlgebra.tensor on the dense Kronecker frames, which the constructor reads."""
    left = factors[0]
    for right in factors[1:]:
        n, blocks, frames = left.ambient_dim * right.ambient_dim, [], []
        for (dl, ml), wl in zip(left.blocks, left.frames):
            for (dr, mr), wr in zip(right.blocks, right.frames):
                blocks.append((dl * dr, ml * mr))
                frames.append(la.kron(wl, wr).reshape(n, dl, ml, dr, mr).transpose(0, 1, 3, 2, 4).reshape(n, -1))
        left = StarAlgebra(n, blocks, frames)
    return left


TENSORS = {
    "phased_D2": lambda: (phased_algebra(), StarAlgebra.diagonal(2)),
    "D2_phased": lambda: (StarAlgebra.diagonal(2), phased_algebra()),
    "M3_D2_C2": lambda: (StarAlgebra.full(3), StarAlgebra.diagonal(2), StarAlgebra.trivial(2)),
    "blocks_commutant": lambda: (StarAlgebra.block_diagonal([(2, 1), (1, 2)]), phased_algebra().commutant),
    "rotated_M2": lambda: (frame_cases()["from_generators"], StarAlgebra.full(2)),
}


@pytest.mark.parametrize("key", sorted(TENSORS))
def test_a_tensor_product_equals_the_kronecker_product_bit_for_bit(key):
    factors = TENSORS[key]()
    got, want = StarAlgebra.tensor(*factors), kronecker_tensor(*factors)
    assert got.blocks == want.blocks and (got._index is None) == (key == "rotated_M2")
    if got._index is not None:
        assert all(np.array_equal(g, w) for g, w in zip(got._index, want._index, strict=True))
    assert all(np.array_equal(g, w) for g, w in zip(got.frames, want.frames, strict=True))


def test_a_rotated_algebra_keeps_dense_frames():
    alg = frame_cases()["from_generators"]
    assert alg._index is None
    assert_reads_match(alg)


def test_frames_of_an_index_map_are_built_when_read():
    alg = StarAlgebra.block_diagonal([(2, 1), (1, 2)])
    assert alg._dense is None and len(alg._index.rows) == 4
    assert np.array_equal(np.hstack(alg.frames), np.eye(4))
    assert alg.frames[0] is not alg.frames[0]


@pytest.mark.parametrize(
    "rows, phases",
    [([0, 0, 2], [1, 1, 1]), ([0, 1, 2], [1, 2, 1]), ([0, 1, 2], [1, 1, 0.5j])],
    ids=["repeated-row", "phase-two", "phase-half"],
)
def test_the_gate_refuses_an_index_frame_off_the_unitaries(rows, phases):
    w = np.zeros((3, 3), dtype=complex)
    w[rows, np.arange(3)] = phases
    with pytest.raises(StructureError, match="algebra unit is not the ambient identity"):
        StarAlgebra(3, [(1, 1), (2, 1)], [w[:, :1], w[:, 1:]])


def test_the_gate_passes_an_index_frame_with_unit_phases():
    w = np.zeros((3, 3), dtype=complex)
    w[[2, 0, 1], np.arange(3)] = np.exp(1j * np.array([0.1, 2.0, -1.3]))
    alg = StarAlgebra(3, [(1, 1), (2, 1)], [w[:, :1], w[:, 1:]])
    assert np.array_equal(alg._index.rows, [2, 0, 1])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_canonical_order_of_an_index_map_equals_the_order_of_its_dense_frames(seed):
    from opteleport.algebra import _canonical, _IndexMap

    rng = np.random.default_rng(seed)
    blocks = [(1, 1), (1, 2), (2, 1), (1, 1), (2, 1), (1, 3)]
    rows, phases = rng.permutation(11), np.exp(1j * rng.uniform(0, 6, 11))
    index = _IndexMap(rows, phases)
    got = _canonical(11, blocks, index, StarAlgebra._derived)
    dense = StarAlgebra._derived(11, blocks, index).frames
    want = _canonical(11, blocks, dense, StarAlgebra._derived)
    assert got.blocks == want.blocks
    assert all(np.array_equal(g, w) for g, w in zip(got.frames, want.frames, strict=True))


def test_reads_across_two_ambients_are_refused():
    # two index maps of different sizes would otherwise gather one with the rows of the other
    with pytest.raises(PreconditionError, match="share an ambient"):
        Trace.normalized(StarAlgebra.full(4)).restrict(StarAlgebra.full(2))
    m2 = StarAlgebra.full(2)
    gns = GnsSpace(m2, Trace.normalized(m2))
    for sub in (StarAlgebra.full(3), StarAlgebra.diagonal(4), StarAlgebra.trivial(1)):
        with pytest.raises(PreconditionError, match="share an ambient"):
            gns.unit_frames(sub)


@pytest.mark.parametrize("key", FRAME_TOWERS)
def test_the_markov_gate_reads_the_weights_of_the_restricted_trace(key):
    # trace_k restricted to M_{k-1}, acting on L^2(M_{k-1}) as upper, is trace_{k-1}
    from test_tower import _frame_tower

    t = _frame_tower(key)
    for k in (1, 2):
        lvl, prev = t.levels[k], t.levels[k - 1]
        assert np.abs(lvl.trace.restrict(lvl.upper).weights - prev.trace.weights).max() < 1e-12
