import numpy as np
import pytest

from opteleport import linalg as la
from opteleport.algebra import StarAlgebra
from opteleport.bases import (
    commutant_factor_basis,
    PimsnerPopaBasis,
    cardinality_test,
    character_basis,
    clock_unitary,
    cp_action_matrix,
    homogeneity_test,
    homogeneous_block_basis,
    kraus_decomposition,
    shift_basis,
    shift_unitary,
    verify_basis,
    weyl_basis,
    _weyl_family,
)
from opteleport.errors import PreconditionError
from opteleport.inclusion import diagonal_in_full, markov_inclusion, trivial_in_full
from opteleport.linalg import Tolerance
from opteleport.tower import basic_construction, verify_tower

from conftest import get_tower, record_thresholds


def verified(key, basis):
    tower = get_tower(key, two_levels=False)
    # rebind onto the shared tower's inclusion so the fixtures can be reused
    basis.inclusion = tower.inclusion
    rep = verify_basis(tower, basis)
    return tower, rep


def test_weyl_basis_n1_trivial():
    b = weyl_basis(1)
    assert b.size == 1
    assert la.frobenius_distance(b.elements[0], np.eye(1)) < 1e-15


def test_weyl_basis_n2_is_pauli_family():
    b = weyl_basis(2)
    assert b.size == 4
    x, z = shift_unitary(2), clock_unitary(2)
    assert la.frobenius_distance(b.elements[1], x) < 1e-15
    assert la.frobenius_distance(b.elements[2], z) < 1e-15
    assert la.frobenius_distance(b.elements[3], z @ x) < 1e-15
    _, rep = verified("trivial_in_full_2", b)
    assert rep.passed
    assert b.orthonormal and b.unitary and b.in_normaliser


def test_weyl_basis_n3_verifies():
    b = weyl_basis(3)
    assert b.size == 9
    _, rep = verified("trivial_in_full_3", b)
    assert rep.passed and rep.max_residual < 1e-9
    assert b.orthonormal and b.unitary


def test_trivial_basis_for_equal_inclusion():
    alg = StarAlgebra.full(2)
    inc = markov_inclusion(alg, alg)
    from opteleport.tower import basic_construction

    tower = basic_construction(inc)
    b = PimsnerPopaBasis(inc, [np.eye(2, dtype=complex)])
    rep = verify_basis(tower, b)
    assert rep.passed
    assert b.orthonormal and b.size == 1


def test_shift_basis_diagonal():
    b = shift_basis(2)
    assert b.size == 2
    _, rep = verified("diagonal_in_full_2", b)
    assert rep.passed
    assert b.orthonormal and b.unitary and b.in_normaliser


def test_character_basis_orthonormal_not_unitary():
    b = character_basis(2)
    _, rep = verified("diagonal_in_full_2", b)
    assert rep.passed
    assert b.orthonormal and not b.unitary
    # plus/minus projector form for n = 2
    plus = np.array([1.0, 1.0], dtype=complex)
    want = np.outer(plus, plus) / np.sqrt(2)
    assert la.frobenius_distance(b.elements[0], want) < 1e-12


def test_character_basis_n3():
    b = character_basis(3)
    _, rep = verified("diagonal_in_full_3", b)
    assert rep.passed and b.orthonormal


def test_homogeneous_basis_cases():
    b = homogeneous_block_basis(1, 2)
    assert b.size == 1
    b2 = homogeneous_block_basis(2, 2)
    tower, rep = verified("homogeneous_2_2", b2)
    assert rep.passed
    assert b2.size == 2 == int(round(tower.inclusion.index))
    assert b2.in_normaliser


def test_homogeneous_2_1_matches_shift_basis():
    b = homogeneous_block_basis(2, 1)
    s = shift_basis(2)
    for x, y in zip(b.elements, s.elements):
        assert la.frobenius_distance(x, y) < 1e-15


def test_incomplete_family_fails():
    tower = get_tower("diagonal_in_full_2", two_levels=False)
    b = PimsnerPopaBasis(tower.inclusion, [np.eye(2, dtype=complex)])
    rep = verify_basis(tower, b)
    assert not rep.passed
    assert not rep.checks[0].passed  # completeness is the failing clause


def test_cardinality_biconditional():
    for key, make in (
        ("trivial_in_full_2", lambda: weyl_basis(2)),
        ("diagonal_in_full_2", lambda: character_basis(2)),
    ):
        tower, rep = verified(key, make())
        assert cardinality_test(tower, make_and_verify(tower, make)).passed


def make_and_verify(tower, make):
    b = make()
    b.inclusion = tower.inclusion
    verify_basis(tower, b)
    return b


def test_cardinality_redundant_basis_consistent():
    # padding the shift basis: {1, aU, bU} with |a|^2 + |b|^2 = 1 is complete
    # but has 3 elements, so it cannot be orthonormal
    tower = get_tower("diagonal_in_full_2", two_levels=False)
    u = shift_unitary(2)
    a, bb = 0.6, 0.8
    basis = PimsnerPopaBasis(
        tower.inclusion, [np.eye(2, dtype=complex), a * u, bb * u]
    )
    rep = verify_basis(tower, basis)
    assert rep.checks[0].passed  # complete
    assert not basis.orthonormal
    assert cardinality_test(tower, basis).passed


def test_kraus_decomposition_jones_projection():
    tower = get_tower("diagonal_in_full_2", two_levels=False)
    b = make_and_verify(tower, lambda: shift_basis(2))
    coeffs, rep = kraus_decomposition(tower, tower.jones1, b)
    assert rep.passed, [c.name for c in rep.failures()]


def test_kraus_decomposition_identity_element():
    tower = get_tower("diagonal_in_full_2", two_levels=False)
    b = make_and_verify(tower, lambda: shift_basis(2))
    coeffs, rep = kraus_decomposition(tower, np.eye(tower.gns.dim, dtype=complex), b)
    assert rep.passed
    # reconstruction already checked; the coefficients must recombine to 1
    pi, e1 = tower.gns.left, tower.jones1
    total = sum(la.dagger(pi(a)) @ e1 @ pi(a) for a in coeffs)
    assert la.frobenius_distance(total, np.eye(tower.gns.dim)) < 1e-9


def test_kraus_decomposition_basis_independent():
    tower = get_tower("diagonal_in_full_2", two_levels=False)
    shift_b = make_and_verify(tower, lambda: shift_basis(2))
    char_b = make_and_verify(tower, lambda: character_basis(2))
    rng = np.random.default_rng(21)
    y = tower.level1.project(la.random_hermitian(tower.gns.dim, rng))
    # positive element of N' ∩ M1: build from a commuting piece
    x1 = tower.jones1 + 0.5 * np.eye(tower.gns.dim)
    c1, rep1 = kraus_decomposition(tower, x1, shift_b)
    c2, rep2 = kraus_decomposition(tower, x1, char_b)
    assert rep1.passed and rep2.passed
    m1 = cp_action_matrix(tower, c1)
    m2 = cp_action_matrix(tower, c2)
    assert la.frobenius_distance(m1, m2) < 1e-9


def test_cp_action_stacks_match_the_per_element_loop():
    # cp_action_matrix and the closure checks map the basis of N' ∩ M as one
    # stack; the loop over its elements is the reference
    tower = get_tower("diagonal_in_full_3", two_levels=False)
    b = make_and_verify(tower, lambda: shift_basis(3))
    coeffs, rep = kraus_decomposition(tower, tower.jones1 + 0.5 * np.eye(tower.gns.dim), b)
    rc = tower.rel_comm
    images = [sum(la.dagger(a) @ x @ a for a in coeffs) for x in rc.basis]
    want = np.stack([rc.coords(y) for y in images], axis=1)
    assert np.max(np.abs(cp_action_matrix(tower, coeffs) - want)) < 1e-14
    closure = max(rc.membership_residual(y) for y in images)
    got = next(c.residual for c in rep.checks if c.name == "cp_map_preserves_relative_commutant")
    assert abs(got - closure) < 1e-14


def test_kraus_decomposition_rejects_bad_input():
    tower = get_tower("diagonal_in_full_2", two_levels=False)
    b = make_and_verify(tower, lambda: shift_basis(2))
    with pytest.raises(PreconditionError):
        kraus_decomposition(tower, -np.eye(tower.gns.dim, dtype=complex), b)


def test_homogeneity_positive_cases():
    flag, witness, _ = homogeneity_test(get_tower("homogeneous_2_2", two_levels=False).inclusion)
    assert flag and witness is not None
    tower = get_tower("homogeneous_2_2", two_levels=False)
    witness.inclusion = tower.inclusion
    assert verify_basis(tower, witness).passed
    assert witness.in_normaliser
    # diagonal algebras are homogeneous with all blocks 1x1
    flag2, witness2, _ = homogeneity_test(get_tower("diagonal_in_full_3", two_levels=False).inclusion)
    assert flag2


def test_homogeneity_negative_case():
    small = StarAlgebra.block_diagonal([(1, 1), (2, 1)])
    inc = markov_inclusion(small, StarAlgebra.full(3))
    flag, witness, why = homogeneity_test(inc)
    assert not flag and witness is None
    assert "block sizes" in why


def test_homogeneity_requires_multiplicity_free():
    nil = np.array([[0, 1], [0, 0]], dtype=complex)
    small = StarAlgebra.from_generators([np.kron(np.eye(2, dtype=complex), nil)], 4)
    inc = markov_inclusion(small, StarAlgebra.full(4))
    with pytest.raises(PreconditionError):
        homogeneity_test(inc)


def test_homogeneity_witness_on_rotated_copy():
    # conjugate the standard homogeneous algebra by a fixed unitary and
    # check the witness still verifies
    w = la.random_unitary(4, 13)
    std = StarAlgebra.block_diagonal([(2, 1), (2, 1)])
    rotated = StarAlgebra.from_generators(
        [w @ b @ la.dagger(w) for b in std.basis], 4
    )
    inc = markov_inclusion(rotated, StarAlgebra.full(4))
    flag, witness, _ = homogeneity_test(inc)
    assert flag
    from opteleport.tower import basic_construction

    tower = basic_construction(inc)
    rep = verify_basis(tower, witness)
    assert rep.passed
    assert witness.in_normaliser


def test_commutant_factor_basis_subsystem_code():
    # N = 1 (x) M_2 inside M_4: the commutant factor's clock-and-shift
    # family is a unitary orthonormal normaliser basis with d = [M:N]
    nil = np.array([[0, 1], [0, 0]], dtype=complex)
    small = StarAlgebra.from_generators([np.kron(np.eye(2, dtype=complex), nil)], 4)
    inc = markov_inclusion(small, StarAlgebra.full(4))
    b = commutant_factor_basis(inc)
    from opteleport.tower import basic_construction

    tower = basic_construction(inc)
    rep = verify_basis(tower, b)
    assert rep.passed
    assert b.size == 4 and b.orthonormal and b.unitary and b.in_normaliser


def test_commutant_factor_basis_scalar_case_is_weyl():
    from opteleport.inclusion import trivial_in_full

    inc = trivial_in_full(3)
    b = commutant_factor_basis(inc)
    for got, want in zip(b.elements, weyl_basis(3).elements):
        assert la.frobenius_distance(got, want) < 1e-12


def test_commutant_factor_basis_requires_factor():
    from opteleport.inclusion import diagonal_in_full

    with pytest.raises(PreconditionError):
        commutant_factor_basis(diagonal_in_full(2))


def _clock_shift_products(clock, shift, d):
    # the family as products of matrix powers, ordered by (l, k)
    return [
        np.linalg.matrix_power(clock, l) @ np.linalg.matrix_power(shift, k)
        for l in range(d)
        for k in range(d)
    ]


def _clock_shift_sums(f):
    # clock and shift of a (d, d, n, n) system of matrix units, summed unit by unit
    d = len(f)
    shift = sum(f[(a + 1) % d][a] for a in range(d))
    clock = sum(np.exp(2j * np.pi * a / d) * f[a][a] for a in range(d))
    return clock, shift


def _identical(got, want):
    return len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_weyl_basis_is_the_clock_shift_products(n):
    want = _clock_shift_products(clock_unitary(n), shift_unitary(n), n)
    assert _identical(weyl_basis(n).elements, want)


def _commutant_factor_inclusions():
    full, triv = StarAlgebra.full, StarAlgebra.trivial
    return [
        trivial_in_full(3),
        markov_inclusion(StarAlgebra.tensor(full(2), triv(3)), full(6)),
    ]


@pytest.mark.parametrize("k", [0, 1])
def test_commutant_factor_basis_is_the_clock_shift_sums(k):
    inc = _commutant_factor_inclusions()[k]
    f = inc.small.commutant.matrix_units[0]
    want = _clock_shift_products(*_clock_shift_sums(f), len(f))
    assert _identical(commutant_factor_basis(inc).elements, want)


def test_weyl_family_on_rotated_units_matches_the_sums():
    # units of a discovered N' carry rounding, so the two ways of summing
    # agree to rounding rather than bit for bit
    nil = np.array([[0, 1], [0, 0]], dtype=complex)
    small = StarAlgebra.from_generators([np.kron(np.eye(2, dtype=complex), nil)], 4)
    f = markov_inclusion(small, StarAlgebra.full(4)).small.commutant.matrix_units[0]
    want = _clock_shift_products(*_clock_shift_sums(f), len(f))
    got = _weyl_family(f)
    assert len(got) == len(want) == 4
    assert max(np.max(np.abs(g - w)) for g, w in zip(got, want)) < 1e-15


def test_block_weyl_unitaries_are_the_clock_shift_sums():
    from opteleport.teleport import _block_weyl_unitaries

    m = StarAlgebra.block_diagonal([(1, 1), (2, 1), (3, 2)])
    want = []
    for j, ((d, _), f) in enumerate(zip(m.blocks, m.matrix_units)):
        rest, z = m.unit - m.central_projections[j], m.central_projections[j]
        family = _clock_shift_products(*_clock_shift_sums(f), d)
        want += [(j, rest + (w if i else z)) for i, w in enumerate(family)]
    got = _block_weyl_unitaries(m)
    assert [j for j, _ in got] == [j for j, _ in want]
    assert _identical([w for _, w in got], [w for _, w in want])


def test_verify_basis_stacks_its_gns_calls(monkeypatch):
    # one left call for the stack of elements, one left and one right for
    # the normaliser votes, however many elements the basis has
    from opteleport.tower import GnsSpace, basic_construction

    calls = []
    left = GnsSpace.left

    def counted_left(self, x):
        calls.append(np.shape(x))
        return left(self, x)

    monkeypatch.setattr(GnsSpace, "left", counted_left)
    t = basic_construction(diagonal_in_full(4))
    basis = shift_basis(4)
    basis.inclusion = t.inclusion
    calls.clear()
    assert verify_basis(t, basis).passed
    assert len(calls) <= 3


def test_verify_basis_rejects_the_tower_of_another_inclusion():
    tower = get_tower("diagonal_in_full_2", two_levels=False)
    basis = shift_basis(2)  # built on its own copy of D_2 ⊆ M_2
    assert basis.inclusion is not tower.inclusion
    with pytest.raises(PreconditionError, match="tower and basis must share an inclusion"):
        verify_basis(tower, basis)


def test_kraus_decomposition_rejects_a_positive_element_outside_the_first_tower_algebra():
    tower = get_tower("diagonal_in_full_2", two_levels=False)
    b = make_and_verify(tower, lambda: shift_basis(2))
    x1 = la.random_density(tower.gns.dim, 3)  # positive, generic in M_4 ⊋ M1
    assert tower.level1.membership_residual(x1) > 1e-3
    with pytest.raises(PreconditionError, match="x1 must lie in the first tower algebra"):
        kraus_decomposition(tower, x1, b)


def test_kraus_decomposition_rejects_a_positive_element_not_commuting_with_n():
    tower = get_tower("diagonal_in_full_2", two_levels=False)
    b = make_and_verify(tower, lambda: shift_basis(2))
    x1 = tower.gns.left(np.ones((2, 2), dtype=complex))  # pi of a positive element of M outside N'
    assert tower.level1.contains(x1)
    with pytest.raises(PreconditionError, match="x1 must commute with N"):
        kraus_decomposition(tower, x1, b)


def _diagonal_tower(n, tol):
    """The tower of D_n ⊆ M_n built from an inclusion at ``tol``."""
    return basic_construction(markov_inclusion(StarAlgebra.diagonal(n), StarAlgebra.full(n), tol))


def test_verify_basis_reads_the_tolerance_of_the_tower():
    # a shift basis 1e-7 off, on a tower at 1e-4: verify_tower and verify_basis agree
    tol = Tolerance(abs=1e-4, rel=1e-4)
    t = _diagonal_tower(3, tol)
    assert t.tol == tol and verify_tower(t).passed
    rng = np.random.default_rng(3)
    noise = 1e-7 * (rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3)))
    basis = PimsnerPopaBasis(t.inclusion, list(np.stack(shift_basis(3).elements) + noise))
    assert verify_basis(t, basis).passed
    assert basis.orthonormal and basis.unitary and basis.in_normaliser


def test_kraus_decomposition_reads_the_tolerance_of_the_tower(monkeypatch):
    tol = Tolerance(abs=1e-6, rel=1e-6)
    t = _diagonal_tower(2, tol)
    b = make_and_verify(t, lambda: shift_basis(2))
    seen = record_thresholds(monkeypatch)
    _, rep = kraus_decomposition(t, t.jones1, b)
    assert rep.passed
    want = tol.bound(float(np.linalg.norm(t.jones1))) * b.size * 10
    assert seen["positive_element_reconstruction"] == want


# -- the one gate for unitary orthonormal normaliser bases -------------------


def _incomplete_witness():
    """The three shifts of M_3 re-pointed to C ⊆ M_3, with its tower: orthonormal,
    unitary and normalising, but three elements for an index-9 inclusion."""
    inc = trivial_in_full(3)
    return basic_construction(inc), PimsnerPopaBasis(inc, shift_basis(3).elements)


def _foreign_witness():
    """A shift basis verified for its own D_3 ⊆ M_3, with the tower of C ⊆ M_3."""
    basis = shift_basis(3)
    assert verify_basis(basic_construction(basis.inclusion), basis).passed
    return basic_construction(trivial_in_full(3)), basis


def _consumers():
    from opteleport.qgraph import Colouring, basis_colouring, basis_lower_bound
    from opteleport.teleport import correction_unitaries, tight_scheme_from_basis, unbiased_scheme

    return {
        "tight_scheme_from_basis": lambda t, b: tight_scheme_from_basis(t.inclusion, b),
        "unbiased_scheme": unbiased_scheme,
        "correction_unitaries": correction_unitaries,
        "basis_colouring": basis_colouring,
        "basis_lower_bound": lambda t, b: basis_lower_bound(t, b, Colouring(1, [np.eye(9, dtype=complex)])),
    }


CONSUMERS = sorted(_consumers())


@pytest.mark.parametrize("consumer", CONSUMERS)
def test_gate_refuses_an_incomplete_family(consumer):
    t, b = _incomplete_witness()
    with pytest.raises(PreconditionError, match="complete unitary orthonormal normaliser basis"):
        _consumers()[consumer](t, b)
    # verified once by the gate, it is refused on its completeness, not its flags
    assert b.orthonormal and b.unitary and b.in_normaliser
    assert [c.name for c in b.report.failures()] == ["completeness", "expansion_identity", "index_sum"]


@pytest.mark.parametrize("consumer", CONSUMERS)
def test_gate_refuses_a_basis_verified_for_another_inclusion(consumer):
    t, b = _foreign_witness()
    with pytest.raises(PreconditionError, match="tower and basis must share an inclusion"):
        _consumers()[consumer](t, b)


def test_kraus_decomposition_refuses_a_basis_of_another_inclusion():
    tower = basic_construction(diagonal_in_full(2))
    with pytest.raises(PreconditionError, match="tower and basis must share an inclusion"):
        kraus_decomposition(tower, tower.jones1, shift_basis(2))


def test_kraus_decomposition_verifies_an_unverified_basis():
    tower = basic_construction(diagonal_in_full(2))
    b = PimsnerPopaBasis(tower.inclusion, shift_basis(2).elements)
    _, rep = kraus_decomposition(tower, tower.jones1, b)
    assert b.report is not None and b.report.passed
    assert [c.name for c in rep.checks][-1] == "reverse_cp_map_preserves_relative_commutant"
    assert rep.passed


def test_cardinality_test_reads_completeness_by_name():
    tower = get_tower("diagonal_in_full_2", two_levels=False)
    b = make_and_verify(tower, lambda: shift_basis(2))
    b.report.checks.reverse()
    assert cardinality_test(tower, b).passed
    next(c for c in b.report.checks if c.name == "completeness").passed = False
    with pytest.raises(PreconditionError, match="verified bases only"):
        cardinality_test(tower, b)


# -- a report vouches only for what it checked --------------------------------


def test_gate_verifies_again_after_an_element_is_removed():
    # verified as a complete family of three, then cut to two: not a basis of D_3 ⊆ M_3
    from opteleport.qgraph import basis_colouring

    basis = shift_basis(3)
    tower = basic_construction(basis.inclusion)
    assert verify_basis(tower, basis).passed
    basis.elements.pop()
    with pytest.raises(PreconditionError, match="complete unitary orthonormal normaliser basis"):
        basis_colouring(tower, basis)
    assert "completeness" in [c.name for c in basis.report.failures()]


@pytest.mark.parametrize("change", ["element", "flags", "inclusion", "report"])
def test_gate_verifies_again_after_what_the_report_checked_changes(change):
    from opteleport.teleport import correction_unitaries

    basis = shift_basis(2)
    tower = basic_construction(basis.inclusion)
    verify_basis(tower, basis)
    first = basis.report
    if change == "element":
        basis.elements[1] = -basis.elements[1]
    elif change == "flags":
        basis.in_normaliser = False
    elif change == "inclusion":
        basis.inclusion = diagonal_in_full(2)
        tower = basic_construction(basis.inclusion)
    else:
        basis.report = None
    _, rep = correction_unitaries(tower, basis)
    assert rep.passed and basis.report is not first and basis.report.passed
    assert basis.in_normaliser


def test_gate_keeps_a_report_made_on_the_basis_as_it_stands():
    from opteleport.teleport import correction_unitaries

    basis = shift_basis(2)
    tower = basic_construction(basis.inclusion)
    first = verify_basis(tower, basis)
    correction_unitaries(tower, basis)
    assert basis.report is first


def test_kraus_decomposition_does_not_trust_flags_set_by_hand():
    # flags without a report: the family is verified, and its real flags
    # (not unitary) decide that no reverse check is run
    tower = basic_construction(diagonal_in_full(2))
    b = PimsnerPopaBasis(tower.inclusion, character_basis(2).elements)
    b.orthonormal, b.unitary, b.in_normaliser = True, True, True
    _, rep = kraus_decomposition(tower, tower.jones1, b)
    assert b.report is not None and b.unitary is False
    assert "reverse_cp_map_preserves_relative_commutant" not in [c.name for c in rep.checks]


def _subsystem_basis():
    nil = np.array([[0, 1], [0, 0]], dtype=complex)
    small = StarAlgebra.from_generators([np.kron(np.eye(2, dtype=complex), nil)], 4)
    return commutant_factor_basis(markov_inclusion(small, StarAlgebra.full(4)))


@pytest.mark.parametrize(
    "make",
    [*(lambda n=n: weyl_basis(n) for n in (2, 3, 4, 5)), lambda: shift_basis(3), _subsystem_basis],
)
def test_range_checks_of_a_basis_match_dense_formulas(make):
    # completeness and the PVM are read on the range of e_N; the dense
    # formulas compress e_N itself by pi(b) for every element b
    basis = make()
    tower = basic_construction(basis.inclusion)
    got = {c.name: c.residual for c in verify_basis(tower, basis).checks}
    reps = tower.gns.left(np.stack(basis.elements))
    q = la.dagger(reps) @ tower.jones1 @ reps
    pvm = max(np.max(la.frobenius_norms(q @ q - q)), np.max(la.frobenius_norms(q - la.dagger(q))))
    for i, p in enumerate(q[:-1]):
        pvm = max(pvm, np.max(la.frobenius_norms(p @ q[i + 1 :])))
    assert abs(got["completeness"] - la.frobenius_distance(sum(q), np.eye(tower.gns.dim))) < 1e-12
    assert abs(got["entangled_subspace_pvm"] - pvm) < 1e-12


def test_pvm_residual_matches_dense_products_off_the_range():
    # the Gram-block formulas are exact for any V_b, not only for isometries
    from opteleport.bases import _pvm_residual

    rng = np.random.default_rng(3)
    general = rng.standard_normal((4, 6, 2)) + 1j * rng.standard_normal((4, 6, 2))
    isometries = np.linalg.qr(general)[0]  # projections that overlap: the pairs decide
    for ranged in (general, isometries):
        q = ranged @ la.dagger(ranged)
        pairs = [la.frobenius_distance(q[b] @ q[c], 0) for b in range(4) for c in range(b + 1, 4)]
        want = max(np.max(la.frobenius_norms(q @ q - q)), max(pairs))
        assert abs(_pvm_residual(ranged) - want) < 1e-12 * want


def test_cardinality_test_refuses_the_tower_of_another_inclusion():
    # a D_3 basis verified on its own tower says nothing about C ⊆ M_3
    basis = shift_basis(3)
    assert verify_basis(basic_construction(basis.inclusion), basis).passed
    with pytest.raises(PreconditionError, match="tower and basis must share an inclusion"):
        cardinality_test(basic_construction(trivial_in_full(3)), basis)


def test_cardinality_test_verifies_an_unverified_basis_on_its_tower():
    basis = shift_basis(3)
    tower = basic_construction(basis.inclusion)
    assert basis.report is None
    assert cardinality_test(tower, basis).passed
    assert basis.report is not None and basis.report.passed and basis.orthonormal


def test_homogeneity_witness_builds_no_second_inclusion(monkeypatch):
    from opteleport import bases

    inc = get_tower("homogeneous_2_2", two_levels=False).inclusion
    frame = np.hstack(inc.small.frames)
    want = [frame @ b @ la.dagger(frame) for b in homogeneous_block_basis(2, 2).elements]
    monkeypatch.setattr(bases, "homogeneous_in_full", lambda *args: pytest.fail("built an inclusion"))
    flag, witness, _ = homogeneity_test(inc)
    assert flag and witness.inclusion is inc
    assert all(np.array_equal(got, w) for got, w in zip(witness.elements, want, strict=True))
