"""The frame layer of StarAlgebra: frames are the stored structure, and the
dense units and basis are derived only when a query asks for them."""

import numpy as np
import pytest

from opteleport import linalg as la
from opteleport.algebra import StarAlgebra
from opteleport.inclusion import trivial_in_full
from opteleport.tower import basic_construction, iterate, verify_tower

from conftest import get_tower
from test_joint_algebra import scheme


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

