"""Joint algebras of commuting pairs from matrix units, checked against the
SVD of all pairwise products, and the verifiers that now rely on them."""

import numpy as np
import pytest

from opteleport import linalg as la
from opteleport.algebra import StarAlgebra
from opteleport.bases import commutant_factor_basis, shift_basis, verify_basis
from opteleport.errors import PreconditionError
from opteleport.inclusion import markov_inclusion
from opteleport.teleport import (
    classify,
    direct_sum_scheme,
    standard_scheme,
    tight_scheme_from_basis,
    unbiased_scheme,
    verify_scheme,
)

from conftest import get_tower


def unbiased_diagonal(n):
    t = get_tower(f"diagonal_in_full_{n}")
    basis = shift_basis(n)
    basis.inclusion = t.inclusion
    verify_basis(t, basis)
    return unbiased_scheme(t, basis)


def direct_sum_1_2():
    return direct_sum_scheme(StarAlgebra.block_diagonal([(1, 1), (2, 1)]))


def subsystem_tight():
    # N = 1 (x) M_2 in M_4, so Alice v Bob is 16^2 * 4 = 1024-dimensional
    nil = np.array([[0, 1], [0, 0]], dtype=complex)
    small = StarAlgebra.from_generators([np.kron(np.eye(2, dtype=complex), nil)], 4)
    inc = markov_inclusion(small, StarAlgebra.full(4))
    return tight_scheme_from_basis(inc, commutant_factor_basis(inc))


MAKERS = {
    "standard_2": lambda: standard_scheme(2),
    "unbiased_D2": lambda: unbiased_diagonal(2),
    "unbiased_D3": lambda: unbiased_diagonal(3),
    "direct_sum_1_2": direct_sum_1_2,
    "subsystem_tight": subsystem_tight,
}
_schemes = {}


def scheme(name):
    if name not in _schemes:
        _schemes[name] = MAKERS[name]()
    return _schemes[name]


# (scheme, left, right, discover): with ``discover`` the product span also
# goes through structure discovery, which splits two generic elements of
# the span and certifies the result by membership of every span element;
# on the 1024-dimensional subsystem Alice v Bob that takes about half a
# second.  The 125-dimensional direct-sum Alice v Bob is compared as a span
# here and goes through discovery in its own test below.  The tower pairs
# share central projections (on D_3 the mirror is the centre of M1, inside
# Bob).
PAIRS = [
    ("unbiased_D3", "alice", "bob", True),
    ("unbiased_D3", "mirror", "bob", True),
    ("unbiased_D3", "teleported", "mirror", True),
    ("direct_sum_1_2", "alice", "bob", False),
    ("direct_sum_1_2", "mirror", "bob", True),
    ("direct_sum_1_2", "teleported", "mirror", True),
    ("subsystem_tight", "alice", "bob", True),
]


def assert_matches_product_span(a, b, discover):
    joint = StarAlgebra.commuting_product(a, b)
    ref = la.product_span(a.basis, b.basis)
    assert joint.dim == ref.shape[0]
    # two orthonormal stacks of one dimension span the same space iff
    # their overlap matrix is unitary
    overlap = np.conj(ref.reshape(joint.dim, -1)) @ joint.basis.reshape(joint.dim, -1).T
    assert la.is_unitary(overlap)
    if discover:
        found = StarAlgebra.from_span(ref)
        assert sorted(joint.blocks) == sorted(found.blocks)
        assert joint.same_span(found)
    return joint


def test_commuting_product_diagonal_with_itself():
    d2 = StarAlgebra.diagonal(2)
    joint = assert_matches_product_span(d2, d2, True)
    assert joint.blocks == [(1, 1), (1, 1)]


@pytest.mark.parametrize("name,left,right,discover", PAIRS)
def test_commuting_product_on_verifier_pairs(name, left, right, discover):
    ctx = scheme(name).context
    assert_matches_product_span(getattr(ctx, left), getattr(ctx, right), discover)


def test_commuting_product_discovers_direct_sum_alice_bob():
    ctx = scheme("direct_sum_1_2").context
    assert_matches_product_span(ctx.alice, ctx.bob, True)


def test_commuting_product_rejects_non_commuting_pair():
    full = StarAlgebra.full(2)
    with pytest.raises(PreconditionError):
        StarAlgebra.commuting_product(full, full)
    u = la.random_unitary(2, 3)
    rotated = StarAlgebra.diagonal(2).image(lambda x: u @ x @ la.dagger(u), 2)
    with pytest.raises(PreconditionError):
        StarAlgebra.commuting_product(StarAlgebra.diagonal(2), rotated)


def test_commuting_product_gates_at_the_given_tolerance():
    # a diagonal turned by 1e-6 commutes with the diagonal at 1e-4, not at 1e-9
    c, s = np.cos(1e-6), np.sin(1e-6)
    u = np.array([[c, -s], [s, c]], dtype=complex)
    diag = StarAlgebra.diagonal(2)
    turned = diag.image(lambda x: u @ x @ la.dagger(u), 2)
    with pytest.raises(PreconditionError):
        StarAlgebra.commuting_product(diag, turned)
    assert StarAlgebra.commuting_product(diag, turned, la.Tolerance(abs=1e-4, rel=1e-4)).dim == 2


PINNED_FLAGS = [
    # (scheme, tight, unbiased, faithful, minimal)
    ("standard_2", True, True, True, True),
    ("direct_sum_1_2", True, False, False, True),
    ("unbiased_D2", True, True, True, False),
    ("subsystem_tight", True, True, True, True),
]


@pytest.mark.parametrize("name,tight,unbiased,faithful,minimal", PINNED_FLAGS)
def test_verifiers_take_no_product_span(monkeypatch, name, tight, unbiased, faithful, minimal):
    s = scheme(name)

    def refuse(*args, **kwargs):
        raise AssertionError("product_span called")

    monkeypatch.setattr(la, "product_span", refuse)
    assert verify_scheme(s).passed
    flags = classify(s)
    assert flags.report.passed
    got = (flags.tight, flags.unbiased, flags.faithful, flags.minimal)
    assert got == (tight, unbiased, faithful, minimal)
