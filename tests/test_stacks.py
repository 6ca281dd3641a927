"""Stacks of matrices through the algebra layer: every stacked call agrees
with the same call made on each matrix of the stack."""

import numpy as np
import pytest

from opteleport import linalg as la
from opteleport.algebra import (
    StarAlgebra,
    Superoperator,
    _corners,
    _frame_distance,
    _from_corners,
    _layout_distance,
    Trace,
    conditional_expectation_onto,
)
from opteleport.bases import homogeneous_block_basis, shift_basis, weyl_basis
from opteleport.errors import NormaliserError
from opteleport import tower
from opteleport.teleport import extract_tight_scheme, standard_scheme
from opteleport.tower import _jones_gaps, _normaliser_votes, basic_construction, normalizer_check

from conftest import get_tower


def haar_unitary(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated(alg, seed):
    u = haar_unitary(alg.ambient_dim, seed)
    return StarAlgebra(alg.ambient_dim, alg.blocks, [u @ w for w in alg.frames])


# one algebra per path of StarAlgebra.project: all of M_n, dense (dim <= 2n), frames
PATHS = {
    "full": lambda: StarAlgebra.full(5),
    "dense": lambda: rotated(StarAlgebra.block_diagonal([(1, 2), (2, 1), (1, 1)]), 1),
    "frames": lambda: rotated(StarAlgebra.block_diagonal([(3, 1), (2, 2)]), 2),
}


def ginibre_stack(shape, n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((*shape, n, n)) + 1j * rng.standard_normal((*shape, n, n))


def test_paths_are_the_ones_named():
    full, dense, frames = (PATHS[k]() for k in ("full", "dense", "frames"))
    assert full.dim == 25
    assert dense.dim <= 2 * dense.ambient_dim < frames.dim < frames.ambient_dim**2


@pytest.mark.parametrize("shape", [(4,), (2, 3)])
def test_span_coords_and_project_take_stacks(shape):
    onb = PATHS["dense"]().basis
    xs = ginibre_stack(shape, onb.shape[1], 3)
    coords, proj = la.span_coords(onb, xs), la.span_project(onb, xs)
    assert coords.shape == (*shape, len(onb)) and proj.shape == xs.shape
    for idx in np.ndindex(*shape):
        assert np.max(np.abs(coords[idx] - la.span_coords(onb, xs[idx]))) < 1e-14
        assert np.max(np.abs(proj[idx] - la.span_project(onb, xs[idx]))) < 1e-14


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("shape", [(4,), (2, 3)])
def test_project_and_membership_take_stacks(path, shape):
    alg = PATHS[path]()
    xs = ginibre_stack(shape, alg.ambient_dim, 4)
    proj, resid = alg.project(xs), alg.membership_residual(xs)
    assert proj.shape == xs.shape and resid.shape == shape
    for idx in np.ndindex(*shape):
        assert np.max(np.abs(proj[idx] - alg.project(xs[idx]))) < 1e-14
        assert abs(resid[idx] - alg.membership_residual(xs[idx])) < 1e-14
        assert isinstance(alg.membership_residual(xs[idx]), float)


@pytest.mark.parametrize("path", sorted(PATHS))
def test_membership_residual_is_the_distance_to_the_projection(path):
    alg = PATHS[path]()
    xs = ginibre_stack((3,), alg.ambient_dim, 5)
    want = [la.frobenius_distance(x, alg.project(x)) for x in xs]
    assert np.max(np.abs(alg.membership_residual(xs) - want)) < 1e-13
    inside = alg.project(xs)
    assert np.max(alg.membership_residual(inside)) < 1e-13


@pytest.mark.parametrize("path", sorted(PATHS))
def test_from_corners_takes_stacks(path):
    alg = PATHS[path]()
    xs = ginibre_stack((2, 3), alg.ambient_dim, 6)
    corners = _corners(alg, xs)
    stacked = _from_corners(alg, corners)
    assert stacked.shape == xs.shape
    for idx in np.ndindex(2, 3):
        one = _from_corners(alg, [c[idx] for c in corners])
        assert np.max(np.abs(stacked[idx] - one)) < 1e-14


@pytest.mark.parametrize("path", sorted(PATHS))
def test_frame_gap_of_the_commutant_is_the_commutant_membership(path):
    alg = PATHS[path]()
    xs = ginibre_stack((3,), alg.ambient_dim, 7)
    got = _frame_distance(alg, xs, commutant=True)
    want = [alg.commutant.membership_residual(x) for x in xs]
    assert np.max(np.abs(got - want)) < 1e-13


def test_superoperator_maps_stacks_elementwise():
    alg = PATHS["frames"]()
    xs = ginibre_stack((2, 3), alg.ambient_dim, 8)
    v = haar_unitary(alg.ambient_dim, 9)
    calls = []

    def conjugate(x):
        calls.append(x.shape)
        return v @ x @ la.dagger(v)

    plain = Superoperator(alg, alg, conjugate)
    witnessed = Superoperator.conjugation(v, alg)
    expect = conditional_expectation_onto(alg.center, alg, Trace.normalized(alg))
    for op in (plain, witnessed, expect):
        out = op(xs)
        assert out.shape == xs.shape
        for idx in np.ndindex(2, 3):
            assert np.max(np.abs(out[idx] - op(xs[idx]))) < 1e-14
    # a map not declared to take stacks sees one matrix at a time
    assert set(calls) == {(alg.ambient_dim, alg.ambient_dim)}


def test_nullspaces_match_nullspace():
    rng = np.random.default_rng(15)
    stack = rng.standard_normal((3, 6, 4)) + 1j * rng.standard_normal((3, 6, 4))
    stack[1] @= np.diag([1.0, 1.0, 0.0, 0.0])  # rank 2: a two-dimensional null space
    got = la.nullspaces(stack)
    assert [len(g) for g in got] == [0, 2, 0]
    for g, a in zip(got, stack):
        assert all(np.array_equal(x, y) for x, y in zip(g, la.nullspace(a)))
        assert all(np.linalg.norm(a @ v) < 1e-12 for v in g)


def test_kron_matches_numpy_and_takes_stacks():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    b = rng.standard_normal((2, 4))
    c = rng.standard_normal((1, 3)) + 1j
    assert np.array_equal(la.kron(a, b, c), np.kron(np.kron(a, b), c))
    stack = rng.standard_normal((5, 2, 2))
    assert np.array_equal(la.kron(a, stack), np.stack([np.kron(a, s) for s in stack]))
    assert np.array_equal(la.kron(stack, b), np.stack([np.kron(s, b) for s in stack]))


# -- the normaliser votes, drawn once for a whole family -------------------------


@pytest.mark.parametrize(
    "key,make",
    [("diagonal_in_full_3", lambda: shift_basis(3)), ("trivial_in_full_3", lambda: weyl_basis(3))],
)
def test_normaliser_votes_agree_with_the_single_check(key, make):
    t = get_tower(key, two_levels=False)
    us = np.stack(make().elements)
    votes = _normaliser_votes(t, us, t.tol)
    assert votes == [normalizer_check(t, u) for u in us]
    assert all(votes)


def test_normaliser_votes_reject_a_haar_unitary_on_d3():
    t = get_tower("diagonal_in_full_3", two_levels=False)
    u = haar_unitary(3, 13)
    assert not normalizer_check(t, u)
    family = np.stack(shift_basis(3).elements + [u])
    assert _normaliser_votes(t, family, t.tol) == [True, True, True, False]


def test_normaliser_votes_draw_their_sample_once_per_inclusion(monkeypatch):
    # the build and the extraction of a tight scheme vote on one inclusion: one draw of six
    draws = []
    draw = StarAlgebra.random_hermitian
    monkeypatch.setattr(StarAlgebra, "random_hermitian", lambda alg, rng, count=None: draws.append(count) or draw(alg, rng, count))
    s = standard_scheme(2)
    assert extract_tight_scheme(s)[3].passed and normalizer_check(s.tower, la.eye(2))
    assert draws.count(6) == 1
    xs, exs = tower._equivariance_sample(s.inclusion)
    assert np.array_equal(xs, draw(s.inclusion.big, la.rng_from(tower._PAIR_SEED + 5), 6))
    assert np.array_equal(exs, s.inclusion.expectation(xs)) and not (xs.flags.writeable or exs.flags.writeable)


def test_normaliser_votes_refuse_a_non_unitary():
    t = get_tower("diagonal_in_full_3", two_levels=False)
    with pytest.raises(NormaliserError):
        _normaliser_votes(t, np.stack([la.eye(3), 2 * la.eye(3)]), t.tol)


@pytest.mark.parametrize(
    "make",
    [
        lambda: weyl_basis(3),
        lambda: weyl_basis(4),
        lambda: weyl_basis(5),
        lambda: shift_basis(4),
        lambda: homogeneous_block_basis(2, 2),
    ],
    ids=["weyl_3", "weyl_4", "weyl_5", "shift_4", "homogeneous_2_2"],
)
def test_the_jones_vote_on_ranges_equals_the_dense_vote(make):
    # ||pi(u) e1 pi(u)* - R(u) e1 R(u)*||_F, R the right multiplication, formed
    # densely on the GNS space, against the range form, on the family and a Haar unitary
    b = make()
    t = basic_construction(b.inclusion)
    us = np.stack(b.elements + [haar_unitary(len(b.elements[0]), 13)])
    e1, pu, pru = t.jones1, t.gns.left(us), t.gns.right(us)
    dense = la.frobenius_norms(pu @ e1 @ la.dagger(pu) - pru @ e1 @ la.dagger(pru))
    assert np.max(np.abs(_jones_gaps(t, us) - dense)) <= 1e-13


# -- the two helpers that broadcast over stacks -----------------------------------


def test_dagger_takes_stacks():
    xs = ginibre_stack((5,), 3, 21)[:, :, :2].copy()  # (5, 3, 2): the leading axis stays
    got = la.dagger(xs)
    assert got.shape == (5, 2, 3)
    assert all(np.array_equal(g, np.conj(x.T)) for g, x in zip(got, xs))
    assert la.dagger(ginibre_stack((2, 4), 3, 22)).shape == (2, 4, 3, 3)
    assert np.array_equal(la.dagger(xs[0]), np.conj(xs[0].T))


def test_trace_takes_stacks():
    tau = Trace.normalized(StarAlgebra.full(3))
    assert np.allclose(tau(np.stack([la.eye(3), 2 * la.eye(3)])), [1.0, 2.0], rtol=0, atol=1e-15)
    assert isinstance(tau(la.eye(3)), complex)
    alg = PATHS["frames"]()
    rho = Trace(alg, [0.1, 0.3])  # unequal weights; they need not make a state here
    xs = ginibre_stack((2, 3), alg.ambient_dim, 23)
    got = rho(xs)
    assert got.shape == (2, 3)
    assert all(abs(got[i, j] - rho(xs[i, j])) < 1e-14 for i in range(2) for j in range(3))


# -- the GNS maps on stacks: one call for a family --------------------------------


def corner_element(alg, rng, shape=()):
    """Non-Hermitian elements of ``alg`` of the given stack shape, drawn on its corners."""
    corners = [rng.standard_normal((*shape, d, d)) + 1j * rng.standard_normal((*shape, d, d)) for d, _ in alg.blocks]
    return _from_corners(alg, corners)


@pytest.mark.parametrize("key", ["trivial_in_full_3", "diagonal_in_full_4", "golden"])
@pytest.mark.parametrize("k", [1, 2])
def test_gns_maps_take_stacks(key, k):
    g = get_tower(key).level(k).gns
    xs = corner_element(g.algebra, np.random.default_rng(31 + k), (2, 3))
    for name in ("vector", "left", "right"):
        f = getattr(g, name)
        got = f(xs)
        tail = (g.dim,) if name == "vector" else (g.dim, g.dim)
        assert got.shape == (2, 3, *tail)
        for i in range(2):
            for j in range(3):
                assert np.abs(got[i, j] - f(xs[i, j])).max() < 1e-14, name
    assert g.left(xs[0, 0]).shape == (g.dim, g.dim) and g.vector(xs[0, 0]).shape == (g.dim,)


@pytest.mark.parametrize(
    "key", ["diagonal_in_full_3", "trivial_in_full_3", "homogeneous_2_2", "diagonal_in_full_5"]
)
@pytest.mark.parametrize("k", [1, 2])
def test_gns_left_of_a_matrix_is_its_stack_of_one(key, k):
    g = get_tower(key).level(k).gns
    x = corner_element(g.algebra, np.random.default_rng(41 + k))
    assert np.array_equal(g.left(x), g.left(x[None])[0])


def test_tower_maps_take_stacks():
    t = get_tower("golden")
    xs = corner_element(t.rel_comm, np.random.default_rng(37), (4,))
    for f in (t.gamma0, t.shift):
        got = f(xs)
        assert all(np.abs(y - f(x)).max() < 1e-14 for x, y in zip(xs, got))
    shift = Superoperator(t.rel_comm, t.mirror2, t.shift, stacks=True)
    assert np.abs(shift(xs) - t.shift(xs)).max() == 0.0


@pytest.mark.parametrize("commutant", [False, True])
def test_block_distance_takes_stacks(commutant):
    layout = [(2, 3), (1, 2), (3, 1)]
    xs = ginibre_stack((2, 3), 11, 41)
    got = _layout_distance(xs, layout, commutant)
    assert got.shape == (2, 3)
    assert all(abs(got[i, j] - _layout_distance(xs[i, j], layout, commutant)) < 1e-13 for i in range(2) for j in range(3))
    assert isinstance(_layout_distance(xs[0, 0], layout, commutant), float)
