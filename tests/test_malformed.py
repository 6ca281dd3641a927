"""Malformed inputs at the public entries: zero, negative and mismatched
layouts, wrong shapes, NaN and Inf.  Each call returns a verdict or raises
an ``OpteleportError``; any other exception fails the test."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from opteleport.algebra import StarAlgebra, Superoperator, Trace
from opteleport.bases import PimsnerPopaBasis, shift_basis, verify_basis
from opteleport.errors import OpteleportError
from opteleport.inclusion import Inclusion, diagonal_in_full, markov_inclusion
from opteleport.qgraph import chromatic_bounds
from opteleport.teleport import classify, standard_scheme, verify_scheme
from opteleport.tower import basic_construction, normalizer_check

MALFORMED = settings(derandomize=True, max_examples=40, deadline=None)

sizes = st.integers(-1, 4)
layouts = st.lists(st.tuples(st.integers(-1, 3), st.integers(-1, 3)), max_size=3)
valid_layouts = st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)), min_size=1, max_size=2)


@st.composite
def arrays(draw, n: int | None = None):
    """A complex array, of shape (n, n) or of any shape up to three axes, with
    at most one entry set to NaN or an infinity."""
    shapes = st.lists(st.integers(0, 4), max_size=3).map(tuple)
    shape = draw(shapes if n is None else st.one_of(st.just((n, n)), shapes))
    x = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal(shape) + 0j
    if x.size and draw(st.booleans()):
        x.flat[draw(st.integers(0, x.size - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return x


def verdict_or_typed_error(call):
    """The result of ``call()``, or None when it raised an OpteleportError."""
    try:
        return call()
    except OpteleportError:
        return None


@MALFORMED
@given(sizes, layouts, st.lists(arrays(), max_size=3), st.booleans())
def test_star_algebra_refuses_malformed_layouts_and_frames(n, layout, frames, split):
    if split and n > 0:  # frames of the layout's shapes, poisoned or not
        frames = np.split(frames[0] if frames and np.shape(frames[0]) == (n, n) else np.eye(n), [1] * (n > 1), axis=1)
    verdict_or_typed_error(lambda: StarAlgebra(n, layout, frames))
    verdict_or_typed_error(lambda: StarAlgebra.block_diagonal(layout))


@MALFORMED
@given(st.lists(arrays(3), max_size=3), sizes)
def test_from_generators_refuses_malformed_generators(mats, n):
    verdict_or_typed_error(lambda: StarAlgebra.from_generators(mats, n))
    verdict_or_typed_error(lambda: StarAlgebra.from_generators(mats, 3))


@MALFORMED
@given(valid_layouts, valid_layouts, st.lists(st.sampled_from([np.nan, np.inf, -1.0, 0.0, 0.5, 1.0]), max_size=3))
def test_inclusions_refuse_mismatched_algebras_and_traces(small, big, weights):
    a, b = StarAlgebra.block_diagonal(small), StarAlgebra.block_diagonal(big)
    for m in (b, StarAlgebra.full(a.ambient_dim)):
        verdict_or_typed_error(lambda: Inclusion(a, m, verdict_or_typed_error(lambda: Trace(m, weights))))
        inc = verdict_or_typed_error(lambda: markov_inclusion(a, m))
        if inc is not None and inc.big.ambient_dim <= 4:
            verdict_or_typed_error(lambda: chromatic_bounds(inc))


D2 = diagonal_in_full(2)
D2_TOWER = basic_construction(D2)


@MALFORMED
@given(arrays(2), st.lists(arrays(2), max_size=5))
def test_normaliser_and_basis_checks_refuse_malformed_unitaries(u, elements):
    verdict_or_typed_error(lambda: normalizer_check(D2_TOWER, u))
    verdict_or_typed_error(lambda: verify_basis(D2_TOWER, PimsnerPopaBasis(D2, elements)))
    basis = shift_basis(2)
    basis.inclusion = D2
    basis.elements[0] = u
    verdict_or_typed_error(lambda: verify_basis(D2_TOWER, basis))


@MALFORMED
@given(arrays(8), st.lists(arrays(8), max_size=5), st.integers(1, 9), arrays(8))
def test_verify_scheme_refuses_malformed_pieces(omega, povm, k, v):
    # channels on a k x k ambient, with and without a witness, and conjugations by v on the scheme's
    witnessed = [Superoperator.conjugation(np.eye(k, dtype=complex), StarAlgebra.full(k))] * 4
    bare = [Superoperator(StarAlgebra.full(k), StarAlgebra.full(k), lambda x: x, stacks=True)] * 4
    by_v = [Superoperator.conjugation(v, StarAlgebra.full(8))] * 4
    for name, value in (("omega", omega), ("povm", povm), *(("channels", c) for c in (witnessed, bare, by_v))):
        s = standard_scheme(2)
        setattr(s, name, value)
        verdict_or_typed_error(lambda: verify_scheme(s, strict=False))
        verdict_or_typed_error(lambda: classify(s))
