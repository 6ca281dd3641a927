import copy
import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from opteleport import linalg as la
from opteleport import teleport
from opteleport.algebra import (
    StarAlgebra,
    Superoperator,
    Trace,
    _commutation_gap,
    _frame_distance,
    _from_corners,
    _generators,
    conditional_expectation_onto,
)
from opteleport.bases import (
    PimsnerPopaBasis,
    character_basis,
    commutant_factor_basis,
    homogeneous_block_basis,
    shift_basis,
    shift_unitary,
    verify_basis,
    weyl_basis,
)
from opteleport.errors import ExtractionError, HypothesisError, PreconditionError, SchemeError
from opteleport.inclusion import concrete_jones_projection, diagonal_in_full, markov_inclusion, trivial_in_full
from opteleport.linalg import DEFAULT_TOL, Tolerance
from opteleport.teleport import (
    TeleportationContext,
    TeleportationScheme,
    classify,
    commutant_trace_is_markov,
    correction_unitaries,
    direct_sum_scheme,
    extract_tight_scheme,
    standard_scheme,
    tight_scheme_from_basis,
    unbiased_scheme,
    verify_scheme,
    _cross_check_rows,
)

from opteleport.tower import basic_construction, iterate

from conftest import dense_commutation_gap, get_tower, record_thresholds


def tower_basis(key, make):
    t = get_tower(key)
    b = make()
    b.inclusion = t.inclusion
    verify_basis(t, b)
    return t, b


# -- standard scheme ---------------------------------------------------------


def test_standard_scheme_n2():
    s = standard_scheme(2)
    rep = verify_scheme(s)
    assert rep.passed
    assert rep.checks[-1].name == "teleportation_identity"
    assert rep.checks[-1].residual < 1e-10
    flags = classify(s)
    assert flags.tight and flags.unbiased and flags.faithful and flags.minimal
    assert flags.unbiased_value == pytest.approx(0.25)


def test_standard_scheme_n3():
    s = standard_scheme(3)
    rep = verify_scheme(s)
    assert rep.passed and rep.checks[-1].residual < 1e-10
    flags = classify(s)
    assert flags.tight and flags.unbiased and flags.faithful and flags.minimal
    assert flags.unbiased_value == pytest.approx(1 / 9)
    assert s.outcomes == 9


def test_standard_scheme_n1_trivial():
    s = standard_scheme(1)
    assert verify_scheme(s).passed
    assert s.outcomes == 1


def test_trivial_context_teleports_scalars():
    # A0 = C: any POVM together with identity channels teleports scalars
    amb = StarAlgebra.full(2)
    triv = StarAlgebra.trivial(2)
    ctx = TeleportationContext(
        ambient=amb,
        trace=Trace.normalized(amb),
        alice=amb,
        bob=triv,
        teleported=triv,
        mirror=triv,
        shift_pairs=[(np.eye(2, dtype=complex), np.eye(2, dtype=complex))],
    )
    povm = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    channels = [Superoperator(amb, amb, lambda x: x)] * 2
    scheme = TeleportationScheme(ctx, np.eye(2, dtype=complex), povm, channels)
    rep = verify_scheme(scheme)
    assert rep.passed and rep.checks[-1].residual < 1e-12


def _scalar_scheme():
    """The scheme of :func:`test_trivial_context_teleports_scalars`, on a context built from its fields."""
    amb = StarAlgebra.full(2)
    triv = StarAlgebra.trivial(2)
    ctx = TeleportationContext(
        ambient=amb,
        trace=Trace.normalized(amb),
        alice=amb,
        bob=triv,
        teleported=triv,
        mirror=triv,
        shift_pairs=[(np.eye(2, dtype=complex), np.eye(2, dtype=complex))],
    )
    povm = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    return TeleportationScheme(ctx, np.eye(2, dtype=complex), povm, [Superoperator(amb, amb, lambda x: x)] * 2)


def test_a_hand_built_context_builds_its_expectation_once_on_first_read(monkeypatch):
    scheme = _scalar_scheme()
    ctx = scheme.context
    assert "expectation" not in vars(ctx)
    built = []
    make = TeleportationContext._makers["expectation"]
    monkeypatch.setitem(TeleportationContext._makers, "expectation", lambda c: built.append(c) or make(c))
    assert verify_scheme(scheme).passed and built == [ctx]
    expectation = vars(ctx)["expectation"]
    assert verify_scheme(scheme).passed and built == [ctx] and ctx.expectation is expectation


def test_an_expectation_set_before_the_first_read_is_the_one_verify_uses():
    scheme = _scalar_scheme()
    ctx = scheme.context
    exact = conditional_expectation_onto(ctx.teleported, ctx.ambient, ctx.trace)
    applied = []
    ctx.expectation = lambda x: applied.append(x) or exact(x)
    rep = verify_scheme(scheme)
    assert rep.passed and rep.checks[-1].residual < 1e-12 and len(applied) == 1
    ctx.expectation = lambda x: 2 * exact(x)
    assert not verify_scheme(scheme, strict=False).passed


def test_a_hand_built_context_on_mixed_ambients_is_refused():
    scheme = _scalar_scheme()
    scheme.context.teleported = StarAlgebra.trivial(3)
    for judge in (lambda s: verify_scheme(s, strict=False), classify, lambda s: s.context.expectation):
        with pytest.raises(PreconditionError, match="must share one ambient dimension$"):
            judge(scheme)


def test_corrupted_povm_flags_failure_without_error():
    s = standard_scheme(2)
    s.povm[0] = 1.01 * s.povm[0]
    rep = verify_scheme(s, strict=False)
    assert not rep.passed
    names = [c.name for c in rep.failures()]
    assert "povm_sums_to_identity" in names
    with pytest.raises(SchemeError):
        verify_scheme(s, strict=True)


def test_non_commuting_alice_and_bob():
    # two qubits with Alice = Bob = M_2 (x) 1: Alice v Bob is no algebra
    amb = StarAlgebra.full(4)
    qubit = StarAlgebra.tensor(StarAlgebra.full(2), StarAlgebra.trivial(2))
    triv = StarAlgebra.trivial(4)
    ctx = TeleportationContext(
        ambient=amb,
        trace=Trace.normalized(amb),
        alice=qubit,
        bob=qubit,
        teleported=triv,
        mirror=triv,
        shift_pairs=[(np.eye(4, dtype=complex), np.eye(4, dtype=complex))],
    )
    ident = Superoperator(amb, amb, lambda x: x)
    s = TeleportationScheme(ctx, np.eye(4, dtype=complex), [np.eye(4, dtype=complex)], [ident])
    with pytest.raises(SchemeError, match="structural clause failed: alice_bob_commute"):
        verify_scheme(s)
    rep = verify_scheme(s, strict=False)
    reference = verify_scheme(standard_scheme(2))
    assert [c.name for c in rep.checks] == [c.name for c in reference.checks]
    assert [c.name for c in rep.failures()] == [
        "alice_bob_commute",
        "channels_alice_bimodule_sampled",
    ]
    bimod = next(c for c in rep.checks if c.name == "channels_alice_bimodule_sampled")
    assert bimod.residual == float("inf")
    assert rep.checks[0].residual >= 1  # the unit f_10 (x) 1 of Bob lies sqrt(2) from Alice'


def test_bimodule_fallback_needs_shared_central_projections():
    # corrections that also flip Alice's first leg still normalise Alice and
    # teleport, but Bob = M_2 is a factor: nothing obstructs bimodularity
    s = standard_scheme(2)
    flip = la.kron(np.array([[0, 1], [1, 0]], dtype=complex), la.eye(4))
    s.channels = [Superoperator.conjugation(flip @ ch.ad_unitary, s.context.ambient) for ch in s.channels]
    with pytest.raises(SchemeError, match="channels_alice_bimodule_sampled"):
        verify_scheme(s)
    rep = verify_scheme(s, strict=False)
    assert [c.name for c in rep.failures()] == ["channels_alice_bimodule_sampled"]
    bimod = rep.failures()[0]
    assert 1e-3 < bimod.residual < float("inf") and bimod.detail is None


def test_only_a_conjugation_carries_a_witness():
    # the witness is fixed by the constructor, so no map can disagree with it
    s = standard_scheme(2)
    amb = s.context.ambient
    v = s.channels[1].ad_unitary
    with pytest.raises(TypeError):
        Superoperator(amb, amb, lambda x: v @ x @ la.dagger(v), ad_unitary=v)
    with pytest.raises(AttributeError):
        s.channels[0].ad_unitary = v
    assert Superoperator(amb, amb, lambda x: x).ad_unitary is None


def _without_witness(s, unitaries):
    amb = s.context.ambient
    calls = []

    def channel(v):
        def apply(x):
            calls.append(np.shape(x))
            return v @ x @ la.dagger(v)

        return Superoperator(amb, amb, apply)

    s.channels = [channel(v) for v in unitaries]
    return calls


def test_channels_without_witness_are_judged_on_their_choi_range():
    s = standard_scheme(2)
    calls = _without_witness(s, [ch.ad_unitary for ch in s.channels])
    rep = verify_scheme(s)
    assert rep.passed
    # the Choi matrix, like every stack, reaches such a map one matrix at a time
    assert set(calls) == {(8, 8)}
    flip = la.kron(np.array([[0, 1], [1, 0]], dtype=complex), la.eye(4))
    _without_witness(s, [flip @ ch.ad_unitary for ch in standard_scheme(2).channels])
    rep = verify_scheme(s, strict=False)
    assert [c.name for c in rep.failures()] == ["channels_alice_bimodule_sampled"]


# -- direct sum scheme -------------------------------------------------------


def test_direct_sum_scheme_direct_sum_algebra():
    m = StarAlgebra.block_diagonal([(1, 1), (2, 1)])
    s = direct_sum_scheme(m)
    rep = verify_scheme(s)
    assert rep.passed
    assert s.outcomes == 5 == m.dim
    flags = classify(s)
    assert flags.tight and flags.minimal
    assert not flags.unbiased
    assert not flags.faithful
    assert flags.witness is not None and abs(flags.witness["probability"]) < 1e-12


def test_direct_sum_zero_probability_for_wrong_summand():
    # a density supported in one summand is never seen by the other blocks'
    # outcomes: tr(F rho omega) = 0 there
    m = StarAlgebra.block_diagonal([(1, 1), (2, 1)])
    s = direct_sum_scheme(m)
    ctx = s.context
    # density living entirely in the M_2 summand of the teleported copy
    t = get_tower("scalars_in_direct_sum")
    lift = lambda x: t.gns1.left(t.gns.left(x))
    z2 = m.central_projections[1]
    rho = lift(z2) / ctx.trace(lift(z2)).real
    # outcome 0 is the scalar block's single outcome
    val = ctx.trace(s.povm[0] @ rho @ s.omega)
    assert abs(val) < 1e-12
    # and the scalar-block density never triggers the M_2 outcomes
    z1 = m.central_projections[0]
    rho1 = lift(z1) / ctx.trace(lift(z1)).real
    for f in s.povm[1:]:
        assert abs(ctx.trace(f @ rho1 @ s.omega)) < 1e-12


def test_direct_sum_single_block_matches_unbiased_weyl():
    # for a full matrix algebra the direct-sum scheme and the unbiased
    # scheme from the clock-and-shift basis coincide operator by operator
    t = get_tower("trivial_in_full_2")
    b = weyl_basis(2)
    b.inclusion = t.inclusion
    verify_basis(t, b)
    s_ds = direct_sum_scheme(StarAlgebra.full(2))
    s_ub = unbiased_scheme(t, b)
    assert la.frobenius_distance(s_ds.omega, s_ub.omega) < 1e-9
    assert len(s_ds.povm) == len(s_ub.povm)
    for f, g in zip(s_ds.povm, s_ub.povm):
        assert la.frobenius_distance(f, g) < 1e-9
    for ch_a, ch_b in zip(s_ds.channels, s_ub.channels):
        for x in s_ub.context.bob.basis:
            assert la.frobenius_distance(ch_a(x), ch_b(x)) < 1e-9


def test_direct_sum_resource_is_scaled_second_jones():
    m = StarAlgebra.block_diagonal([(1, 1), (2, 1)])
    s = direct_sum_scheme(m)
    t = get_tower("scalars_in_direct_sum")
    assert la.frobenius_distance(s.omega, 5.0 * t.jones2) < 1e-10


def test_direct_sum_witness_ignores_rounding_among_ties(monkeypatch):
    # every outcome of the direct-sum scheme starves some density, so all
    # lowest eigenvalues tie at 0; the witness is the first of the ties
    s = direct_sum_scheme(StarAlgebra.block_diagonal([(1, 1), (2, 1)]))
    ctx = s.context
    assert classify(s).witness["outcome"] == 0
    exact = ctx.expectation
    for low in range(s.outcomes):
        # classify takes E(omega F_i) for all outcomes in one stacked call
        signs = np.array([-1.0 if i == low else 1.0 for i in range(s.outcomes)])
        monkeypatch.setattr(
            ctx, "expectation", lambda xs: exact(xs) + signs[:, None, None] * 1e-15 * ctx.teleported.unit
        )
        flags = classify(s)
        assert not flags.faithful
        assert flags.witness["outcome"] == 0


# -- unbiased scheme ---------------------------------------------------------


@pytest.mark.parametrize(
    "key,make",
    [
        ("diagonal_in_full_2", lambda: shift_basis(2)),
        ("diagonal_in_full_3", lambda: shift_basis(3)),
        ("homogeneous_2_2", lambda: homogeneous_block_basis(2, 2)),
    ],
)
def test_unbiased_scheme_cases(key, make):
    t, b = tower_basis(key, make)
    s = unbiased_scheme(t, b)
    rep = verify_scheme(s)
    assert rep.passed, [c.name for c in rep.failures()]
    assert rep.checks[-1].residual < 1e-9
    flags = classify(s)
    assert flags.unbiased
    assert flags.unbiased_value == pytest.approx(1.0 / t.index)
    assert flags.faithful
    # direct operator form of unbiasedness
    exp = s.context.expectation
    unit = s.context.teleported.unit
    for f in s.povm:
        assert la.frobenius_distance(exp(s.omega @ f), unit / s.outcomes) < 1e-9


def test_unbiased_povm_is_pvm():
    t, b = tower_basis("diagonal_in_full_2", lambda: shift_basis(2))
    s = unbiased_scheme(t, b)
    for i, p in enumerate(s.povm):
        assert la.is_hermitian(p) and la.frobenius_distance(p @ p, p) < 1e-10
        for q in s.povm[i + 1 :]:
            assert np.linalg.norm(p @ q) < 1e-10


def test_correction_unitaries_identity_element():
    # phi is unital, so the basis element 1 yields the identity correction
    alg = StarAlgebra.full(2)
    inc = markov_inclusion(alg, alg)
    from opteleport.tower import basic_construction, iterate

    t = iterate(basic_construction(inc))
    b = PimsnerPopaBasis(inc, [np.eye(2, dtype=complex)])
    verify_basis(t, b)
    vs, rep = correction_unitaries(t, b)
    assert rep.passed
    assert la.frobenius_distance(vs[0], np.eye(t.gns1.dim)) < 1e-9


def test_correction_unitaries_reports():
    for key, make in (
        ("trivial_in_full_2", lambda: weyl_basis(2)),
        ("diagonal_in_full_2", lambda: shift_basis(2)),
    ):
        t, b = tower_basis(key, make)
        vs, rep = correction_unitaries(t, b)
        assert rep.passed, (key, [c.name for c in rep.failures()])
        for v in vs:
            assert la.is_unitary(v)


def test_correction_unitaries_require_flags():
    # flags set by hand carry no report, so the gate verifies the family and
    # refuses the character projections, which are not unitary
    t = get_tower("diagonal_in_full_2")
    bad = PimsnerPopaBasis(t.inclusion, character_basis(2).elements)
    bad.orthonormal, bad.unitary, bad.in_normaliser = True, True, True
    with pytest.raises(PreconditionError):
        correction_unitaries(t, bad)
    assert bad.report is not None and bad.unitary is False


# -- rigidity ----------------------------------------------------------------


def test_commutant_trace_gate_cases():
    assert commutant_trace_is_markov(trivial_in_full(2))[0]
    assert commutant_trace_is_markov(diagonal_in_full(2))[0]
    tensor_factor = markov_inclusion(
        StarAlgebra.from_generators(
            [np.kron(np.eye(2, dtype=complex), np.array([[0, 1], [0, 0]], dtype=complex))], 4
        ),
        StarAlgebra.full(4),
    )
    assert commutant_trace_is_markov(tensor_factor)[0]
    homog = markov_inclusion(StarAlgebra.block_diagonal([(2, 1), (2, 1)]), StarAlgebra.full(4))
    assert commutant_trace_is_markov(homog)[0]
    mixed = markov_inclusion(StarAlgebra.block_diagonal([(1, 1), (2, 1)]), StarAlgebra.full(3))
    assert not commutant_trace_is_markov(mixed)[0]


def test_tight_scheme_collapses_to_standard_for_scalars():
    inc = trivial_in_full(2)
    b = weyl_basis(2)
    b.inclusion = inc
    s = tight_scheme_from_basis(inc, b)
    std = standard_scheme(2)
    assert la.frobenius_distance(s.omega, std.omega) < 1e-10
    for f, g in zip(s.povm, std.povm):
        assert la.frobenius_distance(f, g) < 1e-10


def test_tight_scheme_verifies_and_classifies():
    inc = diagonal_in_full(2)
    b = shift_basis(2)
    b.inclusion = inc
    s = tight_scheme_from_basis(inc, b)
    rep = verify_scheme(s)
    assert rep.passed and rep.checks[-1].residual < 1e-9
    flags = classify(s)
    assert flags.tight and flags.minimal and flags.faithful


def test_tight_scheme_with_dressing():
    inc = trivial_in_full(2)
    b = weyl_basis(2)
    b.inclusion = inc
    x_pauli = np.array([[0, 1], [1, 0]], dtype=complex)
    s = tight_scheme_from_basis(inc, b, u=x_pauli)
    assert verify_scheme(s).passed


def test_tight_scheme_gate_failure():
    inc = markov_inclusion(StarAlgebra.block_diagonal([(1, 1), (2, 1)]), StarAlgebra.full(3))
    b = PimsnerPopaBasis(inc, [np.eye(3, dtype=complex)])
    with pytest.raises(HypothesisError):
        tight_scheme_from_basis(inc, b)


def test_tight_scheme_rejects_bad_z():
    inc = diagonal_in_full(2)
    b = shift_basis(2)
    b.inclusion = inc
    with pytest.raises(PreconditionError):
        tight_scheme_from_basis(inc, b, z=np.diag([2.0, 0.0]).astype(complex))


def test_tight_scheme_verifies_an_unverified_basis_at_its_tolerance(monkeypatch):
    from opteleport import bases

    seen = []

    def recording(t, basis):
        seen.append(t.tol)
        return verify_basis(t, basis)

    monkeypatch.setattr(bases, "verify_basis", recording)
    tol = Tolerance(abs=1e-7, rel=1e-7)
    inc = markov_inclusion(StarAlgebra.diagonal(2), StarAlgebra.full(2), tol)
    b = shift_basis(2)
    b.inclusion = inc
    tight_scheme_from_basis(inc, b)
    assert seen == [tol]


def test_tight_scheme_tests_only_a_given_u_for_normalising_n(monkeypatch):
    from opteleport import bases, tower

    calls = []
    votes = tower._normaliser_votes

    def counting(*args):
        calls.append(args)
        return votes(*args)

    monkeypatch.setattr(tower, "_normaliser_votes", counting)
    monkeypatch.setattr(bases, "_normaliser_votes", counting)
    standard_scheme(2)
    assert len(calls) == 1  # the basis check of verify_basis; u = 1 normalises every N
    inc = diagonal_in_full(2)
    b = shift_basis(2)
    b.inclusion = inc
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    with pytest.raises(PreconditionError, match="u must normalise N"):
        tight_scheme_from_basis(inc, b, u=hadamard)


def _qubit_in_two_qubits():
    """M_2 (x) 1 inside M_4 with its commutant-factor basis."""
    qubit = StarAlgebra.tensor(StarAlgebra.full(2), StarAlgebra.trivial(2))
    inc = markov_inclusion(qubit, StarAlgebra.full(4))
    return inc, commutant_factor_basis(inc)


def test_tight_scheme_rejects_z_outside_the_centre():
    inc, b = _qubit_in_two_qubits()
    h = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)  # positive, with tau(h (x) 1) = 1
    ident = np.eye(2, dtype=complex)
    assert verify_scheme(tight_scheme_from_basis(inc, b, z=np.kron(ident, ident))).passed
    # in N but not central there, and commuting with N but outside it
    for z in (np.kron(h, ident), np.kron(ident, h)):
        with pytest.raises(PreconditionError, match="z must be central in N"):
            tight_scheme_from_basis(inc, b, z=z)


def test_extraction_rejects_n_not_transpose_closed():
    inc, b = _qubit_in_two_qubits()
    u = la.random_unitary(4, 5)  # complex: u N u* is no longer transpose-closed
    rotated = markov_inclusion(inc.small.image(lambda x: u @ x @ la.dagger(u), 4), inc.big)
    s = tight_scheme_from_basis(rotated, commutant_factor_basis(rotated))
    with pytest.raises(HypothesisError, match="transpose-closed"):
        extract_tight_scheme(s)
    assert extract_tight_scheme(tight_scheme_from_basis(inc, b))[3].passed


@pytest.mark.parametrize(
    "case",
    ["pauli_plain", "pauli_dressed", "diag_shift_dressed"],
)
def test_extraction_round_trip(case):
    if case == "pauli_plain":
        inc, b, u, z = trivial_in_full(2), weyl_basis(2), None, None
    elif case == "pauli_dressed":
        inc, b = trivial_in_full(2), weyl_basis(2)
        u, z = np.array([[0, 1], [1, 0]], dtype=complex), None
    else:
        inc, b = diagonal_in_full(2), shift_basis(2)
        u, z = shift_unitary(2), np.diag([1.2, 0.8]).astype(complex)
    b.inclusion = inc
    s = tight_scheme_from_basis(inc, b, u=u, z=z)
    basis, u_got, z_got, rep = extract_tight_scheme(s)
    assert rep.passed
    for c in rep.checks:
        if c.name.startswith("round_trip"):
            assert c.residual < 1e-8, c.name
    if z is not None:
        assert la.frobenius_distance(z_got, z) < 1e-9


def test_extraction_from_standard_recovers_paulis_up_to_phase():
    s = standard_scheme(2)
    basis, u, z, rep = extract_tight_scheme(s)
    assert rep.passed
    assert la.frobenius_distance(z, np.eye(2)) < 1e-9
    for got, want in zip(basis.elements, weyl_basis(2).elements):
        overlap = abs(np.trace(la.dagger(got) @ want))
        assert abs(overlap - 2.0) < 1e-9


def test_extraction_requires_flags():
    m = StarAlgebra.block_diagonal([(1, 1), (2, 1)])
    s = direct_sum_scheme(m)  # not faithful, and not in tripartite form
    with pytest.raises(PreconditionError):
        extract_tight_scheme(s)


# -- cross-checks on classification ------------------------------------------


def test_unbiasedness_both_formulations():
    # operator form E(omega F) = 1/|I| versus sampled densities
    s = standard_scheme(2)
    ctx = s.context
    exp = ctx.expectation
    rng = np.random.default_rng(3)
    for f in s.povm:
        g = exp(s.omega @ f)
        assert la.frobenius_distance(g, ctx.teleported.unit / 4) < 1e-10
        for _ in range(25):
            raw = ctx.teleported.project(la.random_density(8, rng))
            raw = (raw + la.dagger(raw)) / 2
            rho = raw / ctx.trace(raw).real
            assert abs(ctx.trace(f @ rho @ s.omega) - 0.25) < 1e-9


def test_standard_scheme_rejects_non_orthonormal_basis():
    inc = trivial_in_full(2)
    bad = PimsnerPopaBasis(inc, [np.eye(2, dtype=complex)] * 4)
    with pytest.raises(PreconditionError):
        standard_scheme(2, bad)


def test_direct_sum_scheme_diagonal_algebra():
    s = direct_sum_scheme(StarAlgebra.diagonal(2))
    rep = verify_scheme(s)
    assert rep.passed
    assert s.outcomes == 2
    flags = classify(s)
    assert flags.tight and flags.minimal


def test_extraction_requires_one_channel_per_outcome():
    s = standard_scheme(2)
    s.channels.pop()
    with pytest.raises(PreconditionError, match="one correction channel per outcome"):
        extract_tight_scheme(s)


def test_extraction_fails_on_non_automorphism_channel():
    from opteleport.errors import ExtractionError

    inc = diagonal_in_full(2)
    b = shift_basis(2)
    b.inclusion = inc
    s = tight_scheme_from_basis(inc, b)
    # replace one correction with a genuinely non-automorphic UCP map
    amb = s.context.ambient
    dim = amb.ambient_dim
    depolarise = Superoperator(
        amb, amb, lambda x: 0.5 * x + 0.5 * np.trace(x) / dim * np.eye(dim, dtype=complex)
    )
    s.channels[1] = depolarise
    with pytest.raises(ExtractionError):
        extract_tight_scheme(s)


def test_extraction_round_trip_n3():
    # beyond the acceptance cases: the full machinery at qutrit scale
    basis, u, z, rep = extract_tight_scheme(standard_scheme(3))
    assert rep.passed and basis.size == 9
    inc = diagonal_in_full(3)
    b = shift_basis(3)
    b.inclusion = inc
    zc = np.diag([1.5, 0.9, 0.6]).astype(complex)
    s = tight_scheme_from_basis(inc, b, u=shift_unitary(3), z=zc)
    _, _, z_got, rep2 = extract_tight_scheme(s)
    assert rep2.passed
    assert la.frobenius_distance(z_got, zc) < 1e-9


def test_unbiased_scheme_depth_one_is_tight():
    # N = 1 (x) M_2 in M_4 with the tensor clock-and-shift family: the
    # relative commutant is a full factor of dimension [M:N], so this
    # unbiased scheme is also tight
    from opteleport.tower import basic_construction, iterate, verify_tower

    nil = np.array([[0, 1], [0, 0]], dtype=complex)
    small = StarAlgebra.from_generators([np.kron(np.eye(2, dtype=complex), nil)], 4)
    inc = markov_inclusion(small, StarAlgebra.full(4))
    tower = iterate(basic_construction(inc))
    basis = PimsnerPopaBasis(
        inc, [np.kron(u, np.eye(2, dtype=complex)) for u in weyl_basis(2).elements]
    )
    rep = verify_basis(tower, basis)
    assert rep.passed and basis.orthonormal and basis.in_normaliser
    scheme = unbiased_scheme(tower, basis)
    assert verify_scheme(scheme).passed
    flags = classify(scheme)
    assert flags.unbiased and flags.unbiased_value == pytest.approx(0.25)
    assert flags.tight  # depth-one: outcomes match the teleported dimension


def test_rigidity_round_trip_subsystem_code():
    # hybrid-code style factor N = 1 (x) M_2 in M_4; both N and its
    # commutant are homogeneous so the trace gate passes
    from opteleport.bases import commutant_factor_basis

    nil = np.array([[0, 1], [0, 0]], dtype=complex)
    small = StarAlgebra.from_generators([np.kron(np.eye(2, dtype=complex), nil)], 4)
    inc = markov_inclusion(small, StarAlgebra.full(4))
    b = commutant_factor_basis(inc)
    s = tight_scheme_from_basis(inc, b)
    assert verify_scheme(s).passed
    basis, u, z, rep = extract_tight_scheme(s)
    assert rep.passed
    assert basis.size == 4


# -- frame-coordinate commutation residual and the cyclic-trace cross-check ----


def _subsystem_tight():
    from opteleport.bases import commutant_factor_basis

    q, r = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))
    rot = q * np.sign(np.diag(r))
    paulis = [np.array([[0, 1], [1, 0]], dtype=complex), np.diag([1.0, -1.0]).astype(complex)]
    gens = [rot @ np.kron(np.eye(2), g) @ rot.T for g in paulis]
    inc = markov_inclusion(StarAlgebra.from_generators(gens, 4), StarAlgebra.full(4))
    return tight_scheme_from_basis(inc, commutant_factor_basis(inc))


def _werner_d2():
    inc = diagonal_in_full(2)
    b = shift_basis(2)
    b.inclusion = inc
    z = np.diag([1.2, 0.8]).astype(complex)
    return tight_scheme_from_basis(inc, b, u=shift_unitary(2), z=z)


WORKLOAD_SCHEMES = {
    "standard_3": lambda: standard_scheme(3),
    "subsystem_tight": _subsystem_tight,
    "direct_sum_1_2": lambda: direct_sum_scheme(StarAlgebra.block_diagonal([(1, 1), (2, 1)])),
    "unbiased_D3": lambda: unbiased_scheme(*tower_basis("diagonal_in_full_3", lambda: shift_basis(3))),
    "werner_D2": _werner_d2,
}


@pytest.mark.parametrize("key", sorted(WORKLOAD_SCHEMES))
def test_alice_bob_residual_matches_dense_loop(key):
    scheme = WORKLOAD_SCHEMES[key]()
    ctx = scheme.context
    got = verify_scheme(scheme).checks[0]
    assert got.name == "alice_bob_commute"
    if teleport._legs(scheme) is None:
        assert got.residual == _commutation_gap(ctx.alice, ctx.bob) <= 1e-14
    else:
        # on the tripartite context the clause is structural: Alice and Bob act on different legs
        assert teleport._on_tripartite_context(ctx, scheme.inclusion)
        assert got.residual == 0.0 and _commutation_gap(ctx.alice, ctx.bob) <= 1e-14
    for a, b in ((ctx.alice, ctx.bob), (ctx.bob, ctx.alice)):
        want = dense_commutation_gap(a, b)
        assert abs(_commutation_gap(a, b) - want) <= 1e-14 + 1e-12 * want


def test_a_stored_scheme_with_a_replaced_bob_is_judged_on_the_dense_gap():
    s = standard_scheme(2)
    s = replace(s, context=replace(s.context, bob=s.context.ambient))
    assert teleport._legs(s) is None
    got = verify_scheme(s, strict=False).checks[0]
    assert got.name == "alice_bob_commute" and not got.passed
    assert got.residual == _commutation_gap(s.context.alice, s.context.ambient) > 0.5
    with pytest.raises(SchemeError, match="^structural clause failed: alice_bob_commute "):
        verify_scheme(s)


def test_alice_bob_residual_matches_dense_loop_when_not_commuting():
    qubit = StarAlgebra.tensor(StarAlgebra.full(2), StarAlgebra.trivial(2))
    want = dense_commutation_gap(qubit, qubit)
    assert want >= 1
    assert abs(_commutation_gap(qubit, qubit) - want) <= 1e-12 * want


def test_verify_and_classify_leave_alice_basis_unbuilt():
    s = _subsystem_tight()
    assert verify_scheme(s).passed
    assert classify(s).tight
    assert "basis" not in vars(s.context.alice)


@pytest.mark.parametrize("key", sorted(WORKLOAD_SCHEMES))
def test_cross_check_rows_match_traces(key):
    s = WORKLOAD_SCHEMES[key]()
    ctx = s.context
    gs = [ctx.expectation(s.omega @ f) for f in s.povm]
    lhs_rows, rhs_rows, norm_row = _cross_check_rows(s, gs)
    rng = np.random.default_rng(11)
    blocks = ctx.teleported.blocks
    ginibre = lambda: [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d, _ in blocks]
    densities = [[g @ g.conj().T for g in ginibre()] for _ in range(3)]
    # cyclicity holds for any element of the algebra, so generic corners
    # also check the row layout
    for corners in densities + [ginibre()]:
        x = _from_corners(ctx.teleported, corners)
        coords = np.concatenate([c.ravel() for c in corners])
        lhs = [ctx.trace(f @ x @ s.omega) for f in s.povm]
        rhs = [ctx.trace(x @ g) for g in gs]
        assert np.max(np.abs(lhs_rows @ coords - lhs)) < 1e-13
        assert np.max(np.abs(rhs_rows @ coords - rhs)) < 1e-13
        assert abs(norm_row @ coords - ctx.trace(x)) < 1e-13


def test_cross_check_fails_on_wrong_expectation(monkeypatch):
    s = standard_scheme(2)
    check = lambda: next(
        c for c in classify(s).report.checks if c.name == "density_reduction_cross_check"
    )
    assert check().passed
    exact = s.context.expectation
    monkeypatch.setattr(s.context, "expectation", lambda x: 1.01 * exact(x))
    assert not check().passed


@pytest.mark.parametrize("key", sorted(WORKLOAD_SCHEMES))
@pytest.mark.parametrize("scale", [1.0, 1.01])
def test_exact_cross_check_bounds_sampled_densities(key, scale, monkeypatch):
    # the exact value is the supremum over all densities, so it bounds any
    # sample, on the schemes as built and with a wrong expectation
    s = WORKLOAD_SCHEMES[key]()
    exact = s.context.expectation
    monkeypatch.setattr(s.context, "expectation", lambda x: scale * exact(x))
    flags = classify(s)
    bound = next(c for c in flags.report.checks if c.name == "density_reduction_cross_check").residual
    gs = s.context.expectation(s.omega @ np.stack(s.povm))
    lhs_rows, rhs_rows, norm_row = _cross_check_rows(s, gs)
    rng = np.random.default_rng(17)
    rhos = []
    for _ in range(200):
        corners = []
        for d, _ in s.context.teleported.blocks:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            corners.append((g @ g.conj().T).ravel() * rng.integers(0, 2))
        rhos.append(np.concatenate(corners))
    rhos = np.array([r for r in rhos if np.any(r)])
    rhos /= (rhos @ norm_row).real[:, None]
    lhs = rhos @ lhs_rows.T
    sampled = np.max(np.abs(lhs - rhos @ rhs_rows.T))
    if flags.unbiased:
        sampled = max(sampled, np.max(np.abs(lhs - 1 / s.outcomes)))
    assert sampled <= bound * (1 + 1e-9) + 1e-15
    assert (bound < 1e-13) if scale == 1.0 else (bound > 1e-3)


def _bimodule(rep):
    return next(c for c in rep.checks if c.name == "channels_alice_bimodule_sampled")


def _flipped_standard_2():
    # corrections that also flip Alice's first leg: Ad v with v outside Alice'
    s = standard_scheme(2)
    flip = la.kron(np.array([[0, 1], [1, 0]], dtype=complex), la.eye(4))
    s.channels = [Superoperator.conjugation(flip @ ch.ad_unitary, s.context.ambient) for ch in s.channels]
    return s


TWINS = {
    "standard_2": lambda: standard_scheme(2),
    "flipped_standard_2": _flipped_standard_2,
    "werner_D2": _werner_d2,
    "direct_sum_1_2": WORKLOAD_SCHEMES["direct_sum_1_2"],
}


@pytest.mark.parametrize("key", sorted(TWINS))
def test_channels_without_witness_get_the_verdict_of_their_witnessed_twins(key):
    s = TWINS[key]()
    want = _bimodule(verify_scheme(s, strict=False))
    _without_witness(s, [ch.ad_unitary for ch in s.channels])
    got = _bimodule(verify_scheme(s, strict=False))
    assert got.passed == want.passed
    if got.passed:
        assert got.residual < 1e-13
    else:
        # a full ambient: the Choi range of Ad v is [v], at the witness's distance
        assert s.context.ambient.dim == s.context.ambient.ambient_dim ** 2
        assert got.residual == pytest.approx(want.residual, rel=1e-12) == 2 * np.sqrt(2)


def test_bimodule_check_reads_every_kraus_operator_of_a_mixture():
    s = standard_scheme(2)
    amb = s.context.ambient
    v, w = s.channels[0].ad_unitary, s.channels[1].ad_unitary
    flip = la.kron(np.array([[0, 1], [1, 0]], dtype=complex), la.eye(4))

    def mixture(a, b):
        return Superoperator(amb, amb, lambda x: (a @ x @ la.dagger(a) + b @ x @ la.dagger(b)) / 2, stacks=True)

    s.channels[0] = mixture(v, w)
    check = _bimodule(verify_scheme(s, strict=False))
    assert check.passed and check.residual < 1e-14
    # half of the Choi matrix lies outside Alice', at 1/2 * sqrt(8) * sqrt(8) / sqrt(8)
    s.channels[0] = mixture(v, flip @ w)
    check = _bimodule(verify_scheme(s, strict=False))
    assert not check.passed and check.residual == pytest.approx(np.sqrt(2), rel=1e-12)
    with pytest.raises(SchemeError, match="channels_alice_bimodule_sampled"):
        verify_scheme(s)


def test_resource_outside_the_teleported_commutant_fails():
    # (1 - eps) omega + eps (1 + sigma_x (x) 1 (x) 1) is still a density, at
    # distance eps ||sigma_x (x) 1_4||_F = eps sqrt(8) from teleported'
    s = standard_scheme(2)
    eps = 1e-6
    sigma = la.kron(np.array([[0, 1], [1, 0]], dtype=complex), la.eye(4))
    s.omega = (1 - eps) * s.omega + eps * (la.eye(8) + sigma)
    rep = verify_scheme(s, strict=False)
    assert [c.name for c in rep.failures()] == ["resource_commutes_with_teleported", "teleportation_identity"]
    assert rep.failures()[0].residual == pytest.approx(eps * np.sqrt(8), rel=1e-9)
    with pytest.raises(SchemeError, match="resource_commutes_with_teleported"):
        verify_scheme(s)


def test_scheme_reports_read_no_global_seed():
    def reports():
        s = standard_scheme(2)
        _without_witness(s, [ch.ad_unitary for ch in s.channels])
        t, b = tower_basis("diagonal_in_full_3", lambda: shift_basis(3))
        u = unbiased_scheme(t, b)
        out = [verify_scheme(s), classify(s).report, verify_scheme(u), classify(u).report]
        return out + [correction_unitaries(t, b)[1]]

    got = []
    try:
        for seed in (1, 2):
            la.set_default_seed(seed)
            got.append(reports())
    finally:
        la.set_default_seed(la.DEFAULT_SEED)
    assert got[0] == got[1]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_standard_scheme_matches_tensor_picture_witnesses(n):
    # Werner's tensor picture written out by hand: the resource
    # n^2 (1 (x) |psi><psi|), the POVM ((u* (x) 1)|psi><psi|(u (x) 1)) (x) 1 and
    # the corrections Ad(1 (x) 1 (x) u), on M_n (x) M_n (x) M_n
    s = standard_scheme(n)
    full, triv, one = StarAlgebra.full(n), StarAlgebra.trivial(n), la.eye(n)
    psi = la.max_entangled(n)
    e = np.outer(psi, psi.conj())
    assert np.max(np.abs(s.omega - n * n * la.kron(one, e))) < 1e-14
    assert s.outcomes == n * n
    for u, f, ch in zip(weyl_basis(n).elements, s.povm, s.channels):
        want = la.kron(la.kron(la.dagger(u), one) @ e @ la.kron(u, one), one)
        assert np.max(np.abs(f - want)) < 1e-14
        assert np.max(np.abs(ch.ad_unitary - la.kron(la.eye(n * n), u))) < 1e-14
    ctx = s.context
    assert ctx.ambient.blocks == [(n**3, 1)]
    assert ctx.alice.same_span(StarAlgebra.tensor(full, full, triv))
    assert ctx.bob.same_span(StarAlgebra.tensor(triv, triv, full))
    assert ctx.teleported.same_span(StarAlgebra.tensor(full, triv, triv))
    assert ctx.mirror.same_span(StarAlgebra.tensor(triv, full, triv))
    for a, b in ctx.shift_pairs:
        assert np.max(np.abs(b - la.kron(one, one, la.partial_trace(a, [n, n * n], {1}, normalise=True)))) < 1e-14


def test_unbiased_povm_matches_the_per_element_loop():
    # the POVM is lifted as one stack; the loop over u_i is the reference
    t, b = tower_basis("diagonal_in_full_3", lambda: shift_basis(3))
    pi, pi1, e1 = t.gns.left, t.gns1.left, t.jones1
    want = [pi1(la.dagger(pi(u)) @ e1 @ pi(u)) for u in b.elements]
    got = unbiased_scheme(t, b).povm
    assert len(got) == len(want)
    assert max(np.max(np.abs(f - w)) for f, w in zip(got, want)) < 1e-14


# -- one build per scheme, and failing witnesses for the checks that moved ----


def _count_calls(monkeypatch, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(teleport, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(teleport, name, counted)
    return calls


def test_extraction_reuses_the_tower_of_the_scheme(monkeypatch):
    s, std = _werner_d2(), standard_scheme(2)
    assert s.tower is not None and s.tower.inclusion is s.inclusion
    # extraction classifies through _classify, which also hands it the legs it read
    calls = _count_calls(monkeypatch, ["basic_construction", "_tripartite_context", "_classify"])
    for scheme in (s, std):
        assert extract_tight_scheme(scheme)[3].passed
    assert calls == {"basic_construction": 0, "_tripartite_context": 0, "_classify": 2}
    # a second extraction classifies the scheme again, as it stands
    assert extract_tight_scheme(s)[3].passed
    assert calls["_classify"] == 3


def test_the_commutant_trace_gate_runs_once_per_inclusion(monkeypatch):
    # the gate depends on the inclusion alone: build and two extractions read it once
    seen, gate = [], teleport.commutant_trace_is_markov
    monkeypatch.setattr(teleport, "commutant_trace_is_markov", lambda inc: seen.append(inc) or gate(inc))
    s = _werner_d2()
    assert extract_tight_scheme(s)[3].passed and extract_tight_scheme(s)[3].passed
    assert seen == [s.inclusion]
    # a failed gate is kept as well, and refuses every scheme of its inclusion
    mixed = markov_inclusion(StarAlgebra.block_diagonal([(1, 1), (2, 1)]), StarAlgebra.full(3))
    for _ in range(2):
        with pytest.raises(HypothesisError):
            tight_scheme_from_basis(mixed, weyl_basis(3))
    assert seen == [s.inclusion, mixed]


def test_extraction_on_a_fresh_tower_matches_the_reused_one():
    s = _werner_d2()
    basis, u, z, rep = extract_tight_scheme(s)
    s.tower = None
    basis2, u2, z2, rep2 = extract_tight_scheme(s)
    assert [c.residual for c in rep.checks] == [c.residual for c in rep2.checks]
    assert np.array_equal(np.stack(basis.elements), np.stack(basis2.elements))
    assert np.array_equal(u, u2) and np.array_equal(z, z2)


def test_minimal_fails_when_the_resource_leaves_mirror_and_bob():
    s = standard_scheme(2)
    assert classify(s).minimal
    omega_small = la.partial_trace(s.omega, [2, 2, 2], {0}, normalise=True)
    s.omega = la.kron(np.diag([1.5, 0.5]), omega_small)  # no longer trivial on Alice's first leg
    flags = classify(s)
    assert not flags.minimal
    detail = next(c.detail for c in flags.report.checks if c.name == "minimal")
    assert detail.endswith("flag False")
    omega_gap = float(detail.split()[2].rstrip(","))
    want = StarAlgebra.commuting_product(s.context.mirror, s.context.bob).membership_residual(s.omega)
    assert omega_gap == pytest.approx(want, rel=1e-2) and omega_gap > 0.1


def test_minimal_fails_when_one_povm_element_leaves_teleported_and_mirror():
    s = standard_scheme(2)
    f_small = la.partial_trace(s.povm[2], [2, 2, 2], {2}, normalise=True)
    s.povm[2] = la.kron(f_small, np.diag([1.5, 0.5]))  # no longer trivial on Bob's leg
    assert not classify(s).minimal


def test_bimodule_check_fails_when_one_witness_of_the_stack_leaves_alice_commutant():
    # flipping Alice's first leg in one correction keeps the identity and Bob,
    # but that witness alone lies outside Alice'
    s = standard_scheme(2)
    flip = la.kron(np.array([[0, 1], [1, 0]], dtype=complex), la.eye(4))
    v = flip @ s.channels[2].ad_unitary
    s.channels[2] = Superoperator.conjugation(v, s.context.ambient)
    rep = verify_scheme(s, strict=False)
    assert [c.name for c in rep.failures()] == ["channels_alice_bimodule_sampled"]
    bimod = rep.failures()[0]
    outside = _frame_distance(s.context.alice, v, commutant=True)
    assert outside > 1e-3 and abs(bimod.residual - outside) < 1e-12
    with pytest.raises(SchemeError, match="channels_alice_bimodule_sampled"):
        verify_scheme(s)


def test_extraction_round_trip_names_the_depolarised_middle_channel():
    # a depolarising correction is no conjugation: the POVM still gives a
    # basis, and the round trip compares each channel with its correction
    s = standard_scheme(2)
    amb = s.context.ambient
    dim = amb.ambient_dim
    s.channels[2] = Superoperator(
        amb, amb, lambda x: 0.5 * x + 0.5 * np.trace(x) / dim * np.eye(dim, dtype=complex)
    )
    with pytest.raises(ExtractionError, match=r"^round trip failed: round_trip_channels \(channels 2\)$"):
        extract_tight_scheme(s)


def test_extraction_names_the_outcome_whose_povm_element_is_not_entangled():
    # the projection onto cos t |00> + sin t |11>, t = 0.6, passes classify,
    # but no (X (x) 1) carries e onto it: its intertwiner space is {0}
    s = standard_scheme(2)
    psi = np.zeros(4, dtype=complex)
    psi[[0, 3]] = np.cos(0.6), np.sin(0.6)
    s.povm[1] = la.kron(np.outer(psi, psi.conj()), la.eye(2))
    flags = classify(s)
    assert flags.tight and flags.minimal and flags.faithful
    with pytest.raises(ExtractionError, match=r"^outcome 1: intertwiner space has dimension 0, expected 1$"):
        extract_tight_scheme(s)


@pytest.mark.parametrize(
    "make",
    [lambda: standard_scheme(2), lambda: standard_scheme(3), _werner_d2],
    ids=["standard_2", "standard_3", "werner_D2"],
)
def test_extraction_is_stable_under_rounding_noise(make):
    # the generic intertwiners depend on their solution spaces only, so the
    # null-space bases the SVD picks under 1e-15 noise do not move the result
    rng = np.random.default_rng(5)

    def noise(x):
        g = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        return x + 1e-15 * (g + la.dagger(g)) / 2

    basis, u, _, _ = extract_tight_scheme(make())
    s = make()
    s.omega, s.povm = noise(s.omega), [noise(f) for f in s.povm]
    basis2, u2, _, rep = extract_tight_scheme(s)
    assert rep.passed
    assert np.max(np.abs(np.stack(basis.elements) - np.stack(basis2.elements))) < 1e-10
    assert np.max(np.abs(u - u2)) < 1e-10


def test_extraction_rejects_a_resource_with_a_perturbed_first_leg():
    # sigma_z on the first leg, at three times the rigid-form threshold: still
    # inside the ten-fold threshold of "minimal", so the flags hold and only
    # resource_has_trivial_first_leg fails
    s = standard_scheme(2)
    h = la.kron(np.diag([1.0, -1.0]).astype(complex), la.eye(4))
    eps = 3 * DEFAULT_TOL.bound(float(np.linalg.norm(s.omega))) / np.linalg.norm(h)
    perturbed = TeleportationScheme(
        s.context, s.omega + eps * h, s.povm, s.channels, s.inclusion, s.leg_dims
    )
    flags = classify(perturbed)
    assert flags.tight and flags.minimal and flags.faithful
    with pytest.raises(ExtractionError, match="resource does not have the rigid form"):
        extract_tight_scheme(perturbed)


def test_correction_unitaries_read_the_tolerance_of_the_tower(monkeypatch):
    tol = Tolerance(abs=1e-6, rel=1e-6)
    t = basic_construction(markov_inclusion(StarAlgebra.diagonal(3), StarAlgebra.full(3), tol))
    b = shift_basis(3)
    b.inclusion = t.inclusion
    verify_basis(t, b)
    seen = record_thresholds(monkeypatch)
    _, rep = correction_unitaries(t, b)
    assert rep.passed
    assert seen["corrections_unitary"] == tol.bound(1.0) * b.size


def _noisy_shift_scheme_d3(tol):
    """The tight scheme of D_3 ⊆ M_3 built at ``tol`` from a shift basis 1e-7 off."""
    inc = markov_inclusion(StarAlgebra.diagonal(3), StarAlgebra.full(3), tol)
    rng = np.random.default_rng(3)
    noise = 1e-7 * (rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3)))
    basis = PimsnerPopaBasis(inc, list(np.stack(shift_basis(3).elements) + noise))
    return tight_scheme_from_basis(inc, basis)


def test_scheme_verdicts_read_the_tolerance_of_the_inclusion(monkeypatch):
    # at DEFAULT_TOL five checks of verify_scheme fail on this scheme, classify
    # calls it neither minimal nor unbiased, and the round trip fails
    tol = Tolerance(abs=1e-4, rel=1e-4)
    s = _noisy_shift_scheme_d3(tol)
    assert verify_scheme(s, strict=False).passed
    flags = classify(s)
    assert flags.tight and flags.minimal and flags.faithful and flags.unbiased
    seen = record_thresholds(monkeypatch)
    basis, u, z, rep = extract_tight_scheme(s)
    assert rep.passed and basis.size == 3
    trip = tol.bound(1.0) * 5
    assert seen["round_trip_povm"] == seen["round_trip_channels"] == trip
    # ||omega|| is read off the legs, sqrt(n) ||w||: equal to the dense norm up to rounding
    assert seen["round_trip_resource"] == pytest.approx(trip * max(1.0, float(np.linalg.norm(s.omega))), rel=1e-15)
    assert s.tol == tol


def test_every_constructor_records_the_inclusion_of_its_tower(monkeypatch):
    tol = Tolerance(abs=1e-6, rel=1e-6)
    s = direct_sum_scheme(StarAlgebra.block_diagonal([(1, 1), (2, 1)]), tol)
    t = basic_construction(markov_inclusion(StarAlgebra.diagonal(3), StarAlgebra.full(3), tol))
    b = shift_basis(3)
    b.inclusion = t.inclusion
    verify_basis(t, b)
    for scheme in (s, unbiased_scheme(t, b)):
        assert scheme.inclusion is not None and scheme.tol == tol
        seen = record_thresholds(monkeypatch)
        verify_scheme(scheme, strict=False)
        classify(scheme)
        assert seen["channels_unital"] == tol.bound(1.0)
        assert seen["density_reduction_cross_check"] == tol.bound(1.0) * 100
        monkeypatch.undo()
    hand_built = TeleportationScheme(s.context, s.omega, s.povm, s.channels)
    assert hand_built.tol == DEFAULT_TOL


# -- one periodicity map, and verify_scheme on Bob's basis and Alice's units ---


def _d2_product_corrections(t, b):
    """Oracle: v_i = [M:N] sum_a pi1(pi(u_a)* e1) pi1(pi(u_i)) e2 pi1(e1 pi(u_a)),
    as d^2 products of full GNS matrices."""
    iterate(t)
    pi, pi1, e1, e2 = t.gns.left, t.gns1.left, t.jones1, t.jones2
    us = pi(np.stack(b.elements))
    left, mid, right = pi1(la.dagger(us) @ e1), pi1(us), pi1(e1 @ us)
    return [t.index * sum(l @ m @ e2 @ r for l, r in zip(left, right)) for m in mid]


PERIODICITY_CASES = {
    "C_in_M2": lambda: trivial_in_full(2),
    "C_in_M3": lambda: trivial_in_full(3),
    "D3": lambda: diagonal_in_full(3),
    "D4": lambda: diagonal_in_full(4),
    "M2_plus_M2_in_M4": lambda: markov_inclusion(
        StarAlgebra.block_diagonal([(2, 1), (2, 1)]), StarAlgebra.full(4)
    ),
}


@pytest.mark.parametrize("case", sorted(PERIODICITY_CASES))
def test_unbiased_corrections_match_the_d2_product_formula(case):
    from opteleport.qgraph import normaliser_basis_for

    inc = PERIODICITY_CASES[case]()
    t, b = basic_construction(inc), normaliser_basis_for(inc)
    want = _d2_product_corrections(t, b)
    got = [ch.ad_unitary for ch in unbiased_scheme(t, b).channels]
    assert len(got) == len(want) == b.size
    assert max(float(np.max(np.abs(g - w))) for g, w in zip(got, want)) < 1e-12


def test_normalising_fallback_fails_a_channel_that_leaves_alice():
    t, b = tower_basis("diagonal_in_full_3", lambda: shift_basis(3))
    s = unbiased_scheme(t, b)
    name = "channels_alice_bimodule_sampled"
    assert next(c for c in verify_scheme(s).checks if c.name == name).passed
    # a unitary of M2 that carries a unit of Alice out of Alice
    vals, vecs = np.linalg.eigh(s.context.ambient.random_hermitian(np.random.default_rng(5)))
    u = (vecs * np.exp(1j * vals)) @ la.dagger(vecs)
    assert np.max(_frame_distance(s.context.alice, u @ _generators(s.context.alice) @ la.dagger(u))) > 1e-2
    s.channels[1] = Superoperator.conjugation(u, s.context.ambient)
    rep = verify_scheme(s, strict=False)
    check = next(c for c in rep.checks if c.name == name)
    assert not check.passed and "normalise Alice" in check.detail
    with pytest.raises(SchemeError, match=name):
        verify_scheme(s)


def test_shifted_elements_outside_bob_are_refused_before_any_channel_runs():
    amb = StarAlgebra.full(2)
    triv = StarAlgebra.trivial(2)
    ctx = TeleportationContext(
        ambient=amb,
        trace=Trace.normalized(amb),
        alice=amb,
        bob=triv,
        teleported=triv,
        mirror=triv,
        shift_pairs=[(np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex))],
    )
    calls = []
    channel = Superoperator(amb, amb, lambda x: calls.append(x) or x)
    povm = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    scheme = TeleportationScheme(ctx, np.eye(2, dtype=complex), povm, [channel] * 2)
    for strict in (True, False):
        with pytest.raises(PreconditionError, match="shifted elements must lie in Bob"):
            verify_scheme(scheme, strict=strict)
    assert calls == []


def test_verify_scheme_applies_each_channel_once_to_a_stack():
    # cp_residual maps the units of the Choi matrix as one stack, and both
    # channels_preserve_bob and the teleportation identity read the images of Bob's basis
    s = standard_scheme(2)
    amb = s.context.ambient
    stacks = []

    def channel(v):
        def apply(x):
            if np.ndim(x) == 3:
                stacks.append(len(x))
            return v @ x @ la.dagger(v)

        return Superoperator(amb, amb, apply, stacks=True)

    s.channels = [channel(ch.ad_unitary) for ch in s.channels]
    assert verify_scheme(s).passed
    n = s.context.ambient.ambient_dim
    assert stacks == [n * n] * len(s.channels) + [s.context.bob.dim] * len(s.channels)


def test_unbiased_verify_leaves_alice_basis_unbuilt():
    # D_3 takes the normalising fallback, which reads Alice's units, not her basis;
    # a fresh tower, since Alice is the tower's own represented M1
    b = shift_basis(3)
    s = unbiased_scheme(basic_construction(b.inclusion), b)
    rep = verify_scheme(s)
    check = next(c for c in rep.checks if c.name == "channels_alice_bimodule_sampled")
    assert rep.passed and check.detail is not None
    assert "basis" not in vars(s.context.alice)


# -- tight tripartite schemes judged on their legs ------------------------------


def _d3_dressed():
    inc = diagonal_in_full(3)
    b = shift_basis(3)
    b.inclusion = inc
    z = np.diag([1.5, 0.9, 0.6]).astype(complex)
    return tight_scheme_from_basis(inc, b, u=shift_unitary(3), z=z)


LEG_SCHEMES = {
    "standard_2": lambda: standard_scheme(2),
    "standard_3": lambda: standard_scheme(3),
    "standard_4": lambda: standard_scheme(4),
    "werner_D2": _werner_d2,
    "D3_dressed": _d3_dressed,
    "subsystem_tight": _subsystem_tight,
}


def _dense_copy(s):
    """The scheme built by hand from its pieces: no inclusion, no leg dimensions."""
    return TeleportationScheme(s.context, s.omega, s.povm, s.channels)


def _witness_less(s):
    """The scheme with each channel wrapped so that it carries no witness."""
    return TeleportationScheme(
        s.context,
        s.omega,
        s.povm,
        [Superoperator(ch.domain, ch.codomain, ch, stacks=True) for ch in s.channels],
        s.inclusion,
        s.leg_dims,
        tower=s.tower,
    )


def _same_reports(got, want, within=1e-12):
    assert [(c.name, c.passed) for c in got.checks] == [(c.name, c.passed) for c in want.checks]
    assert max(abs(g.residual - w.residual) for g, w in zip(got.checks, want.checks)) <= within


@pytest.mark.parametrize("key", sorted(LEG_SCHEMES))
def test_leg_and_dense_verdicts_agree(key):
    s = LEG_SCHEMES[key]()
    dense = _dense_copy(s)
    assert teleport._legs(s) is not None and teleport._legs(dense) is None
    _same_reports(verify_scheme(s), verify_scheme(dense))
    got, want = classify(s), classify(dense)
    _same_reports(got.report, want.report)
    fields = lambda f: (f.tight, f.unbiased, f.unbiased_value, f.faithful, f.minimal)
    assert fields(got) == fields(want)
    assert (got.witness is None) == (want.witness is None)
    if got.witness is not None:
        assert got.witness["outcome"] == want.witness["outcome"]
        assert abs(got.witness["probability"] - want.witness["probability"]) <= 1e-12
    # extraction on the dense pieces: the same scheme with witness-less channels
    wrapped = _witness_less(s)
    assert teleport._legs(wrapped) is None
    _same_reports(extract_tight_scheme(s)[3], extract_tight_scheme(wrapped)[3])


def test_leg_path_applies_no_channel_and_no_expectation(monkeypatch):
    s = standard_scheme(3)
    applied = []
    call = Superoperator.__call__
    monkeypatch.setattr(Superoperator, "__call__", lambda self, x: applied.append(self) or call(self, x))
    assert verify_scheme(s).passed and classify(s).minimal and extract_tight_scheme(s)[3].passed
    # only the basis gate of extraction maps anything: expectations on M_3
    assert all(op.domain.ambient_dim == 3 for op in applied)
    # the dense copy maps Bob's basis and takes the expectation
    assert verify_scheme(_dense_copy(s)).passed
    assert s.context.expectation in applied and s.channels[0] in applied


def test_schemes_off_their_legs_are_judged_dense():
    s = standard_scheme(2)
    assert teleport._legs(s) is not None
    # tower schemes, hand-built copies and witness-less channels
    t, b = tower_basis("diagonal_in_full_3", lambda: shift_basis(3))
    assert teleport._legs(unbiased_scheme(t, b)) is None
    assert teleport._legs(_dense_copy(s)) is None
    _without_witness(s, [ch.ad_unitary for ch in standard_scheme(2).channels])
    assert teleport._legs(s) is None
    # a remainder over tol.bound(||X||): the first leg of the resource, one POVM
    # element and one witness, each at twice the bound
    for piece in ("omega", "povm", "channel"):
        s = standard_scheme(2)
        h = la.kron(np.diag([1.0, -1.0]).astype(complex), la.eye(4))
        if piece == "omega":
            s.omega = s.omega + 2 * DEFAULT_TOL.bound(float(np.linalg.norm(s.omega))) / np.sqrt(8) * h
        elif piece == "povm":
            h = la.kron(la.eye(4), np.diag([1.0, -1.0]).astype(complex))  # on Bob's leg
            s.povm[1] = s.povm[1] + 2 * DEFAULT_TOL.bound(float(np.linalg.norm(s.povm[1]))) / np.sqrt(8) * h
        else:
            v = s.channels[1].ad_unitary
            eps = 2 * DEFAULT_TOL.bound(float(np.linalg.norm(v))) / np.sqrt(8)
            s.channels[1] = Superoperator.conjugation(v + eps * h, s.context.ambient)
        assert teleport._legs(s) is None, piece
    # a context that is not the one built for the scheme's inclusion, or one
    # whose expectation was replaced
    s = standard_scheme(2)
    assert teleport._legs(replace(s, inclusion=trivial_in_full(2))) is None
    assert teleport._legs(replace(s, context=teleport._tripartite_context(s.inclusion))) is not None
    assert teleport._legs(replace(s, context=replace(s.context))) is None
    s.context.expectation = lambda x: x
    assert teleport._legs(s) is None


def _near_legs(n, fraction):
    """standard_scheme(n) with POVM element 1 moved off its leg form by
    ``fraction`` of tol.bound(||F_1||), along 1 (x) diag(1, -1, 0, ...)."""
    s = standard_scheme(n)
    h = la.kron(la.eye(n * n), np.diag([1.0, -1.0] + [0.0] * (n - 2)).astype(complex))
    f = s.povm[1]
    s.povm[1] = f + fraction * DEFAULT_TOL.bound(float(np.linalg.norm(f))) / np.linalg.norm(h) * h
    return s


@pytest.mark.parametrize("n, fraction", [(2, 0.6), (3, 0.9)])
def test_a_remainder_above_rounding_is_judged_on_the_dense_pieces(n, fraction):
    # within the tolerance but above rounding: one verdict, the dense copy's
    s = _near_legs(n, fraction)
    dense = _dense_copy(s)
    assert teleport._legs(s) is None
    got, want = verify_scheme(s, strict=False), verify_scheme(dense, strict=False)
    assert [(c.name, c.passed) for c in got.checks] == [(c.name, c.passed) for c in want.checks]
    assert got.passed
    flags = lambda f: (f.tight, f.unbiased, f.faithful, f.minimal)
    assert flags(classify(s)) == flags(classify(dense)) == (True, True, True, True)


def _with_rounding_noise(s, seed=5):
    """``s`` with Hermitian noise of entries near 1e-15 added to the resource and the POVM."""
    rng = np.random.default_rng(seed)

    def noise(x):
        g = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        return x + 1e-15 * (g + la.dagger(g)) / 2

    s.omega, s.povm = noise(s.omega), [noise(f) for f in s.povm]
    return s


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rounding_noise_keeps_a_scheme_on_its_legs(n):
    clean, noisy = standard_scheme(n), _with_rounding_noise(standard_scheme(n))
    assert teleport._legs(noisy) is not None
    for judge in (verify_scheme, lambda s: classify(s).report, lambda s: extract_tight_scheme(s)[3]):
        _same_reports(judge(noisy), judge(clean))


@pytest.mark.parametrize("first", [True, False])
def test_split_reads_the_leg_and_the_remainder(first):
    rng = np.random.default_rng(11)
    a, b = 3, 2
    xs = rng.standard_normal((5, a * b, a * b)) + 1j * rng.standard_normal((5, a * b, a * b))
    kept = xs.copy()
    legs, gaps = teleport._split(xs, a, b, first)
    assert np.array_equal(xs, kept)
    for x, leg, gap in zip(xs, legs, gaps):
        assert np.max(np.abs(leg - la.partial_trace(x, [a, b], {1 if first else 0}, normalise=True))) <= 1e-14
        lifted = la.kron(leg, la.eye(b)) if first else la.kron(la.eye(a), leg)
        assert abs(gap - np.linalg.norm(x - lifted)) <= 1e-14
    # a piece built as a Kronecker product reads back exactly
    y = legs[0]
    piece = la.kron(y, la.eye(b)) if first else la.kron(la.eye(a), y)
    leg, gap = teleport._split([piece], a, b, first)
    assert np.array_equal(leg[0], y) and gap[0] == 0.0


def _off_legs(s):
    """``s`` with the resource, one POVM element and one channel moved off
    their leg form by half the trivial-leg bound, the channel witness-less."""
    n = s.inclusion.big.ambient_dim
    sign = np.diag([1.0] + [-1.0] * (n - 1)).astype(complex)
    eps = lambda x: 0.5 * DEFAULT_TOL.bound(float(np.linalg.norm(x))) / np.sqrt(n**3)
    s.omega = s.omega + eps(s.omega) * la.kron(sign, la.eye(n * n))
    s.povm[1] = s.povm[1] + eps(s.povm[1]) * la.kron(la.eye(n * n), sign)
    v = s.channels[1].ad_unitary
    s.channels[1] = Superoperator.conjugation(v + eps(v) * la.kron(sign, la.eye(n * n)), s.context.ambient)
    return _witness_less(s)


ROUND_TRIP_SCHEMES = {
    "standard_2": lambda: standard_scheme(2),
    "standard_3": lambda: standard_scheme(3),
    "werner_D2": _werner_d2,
    "werner_D2_witness_less": lambda: _witness_less(_werner_d2()),
    "standard_3_off_legs": lambda: _off_legs(standard_scheme(3)),
}


@pytest.mark.parametrize("key", sorted(ROUND_TRIP_SCHEMES))
def test_extraction_round_trip_matches_the_dense_distances(key):
    s = ROUND_TRIP_SCHEMES[key]()
    basis, u, z, rep = extract_tight_scheme(s)
    got = {c.name: c.residual for c in rep.checks}
    inc = s.inclusion
    n, e, units = inc.big.ambient_dim, concrete_jones_projection(inc.small), np.stack(basis.elements)
    resource = la.kron(la.eye(n), teleport._tight_resource(inc, e, u, z))
    povm = la.kron(teleport._entangled_projections(e, units, u), la.eye(n))
    # each channel against Ad(1 (x) 1 (x) u_i) on Bob's basis 1 (x) b / n
    bob = la.kron(la.eye(n * n), inc.small.commutant.basis) / n
    corrections = la.kron(la.eye(n * n), units)
    channels = max(
        float(np.max(la.frobenius_norms(ch(bob) - v @ bob @ la.dagger(v)))) for ch, v in zip(s.channels, corrections)
    )
    assert abs(got["round_trip_resource"] - la.frobenius_distance(resource, s.omega)) <= 1e-12
    assert abs(got["round_trip_povm"] - float(np.max(la.frobenius_norms(povm - np.stack(s.povm))))) <= 1e-12
    assert abs(got["round_trip_channels"] - channels) <= 1e-12


def test_extraction_classifies_the_scheme_it_is_given():
    # flags decided before the resource left Alice's first leg do not count
    def replaced(s):
        omega_small = la.partial_trace(s.omega, [2, 2, 2], {0}, normalise=True)
        s.omega = la.kron(np.diag([1.5, 0.5]), omega_small)
        return s

    s = standard_scheme(2)
    assert classify(s).minimal
    replaced(s)
    for scheme in (s, replaced(standard_scheme(2))):
        with pytest.raises(PreconditionError, match="^extraction requires a tight, minimal, faithful scheme$"):
            extract_tight_scheme(scheme)
    assert not classify(s).minimal


def _corrupted_leg(case):
    """standard_scheme(3), or the D_3 scheme for ``moved_bob``, with one leg
    corrupted and the piece kept in leg form; the structural check it fails."""
    if case == "moved_bob":
        inc = diagonal_in_full(3)
        b = shift_basis(3)
        b.inclusion = inc
        s = tight_scheme_from_basis(inc, b)
    else:
        s = standard_scheme(3)
    n, one = 3, la.eye(3)
    if case == "povm_not_psd":
        # f_0 = |p><p| gains eps |p><p| - eps |q><q| for a unit q orthogonal to
        # p, and f_1 loses it: the traces and the sum stay, f_0 has eigenvalue -eps
        f0 = la.partial_trace(s.povm[0], [n * n, n], {1}, normalise=True)
        f1 = la.partial_trace(s.povm[1], [n * n, n], {1}, normalise=True)
        q = np.linalg.eigh(f0)[1][:, 0]
        shift = 0.01 * (f0 - np.outer(q, q.conj()))
        s.povm[0], s.povm[1] = la.kron(f0 + shift, one), la.kron(f1 - shift, one)
        return s, "povm_positive"
    if case == "resource_not_psd":
        w = la.partial_trace(s.omega, [n, n * n], {0}, normalise=True)
        q = np.linalg.eigh(w)[1][:, 0]  # an eigenvector of eigenvalue 0
        p = np.linalg.eigh(w)[1][:, -1]
        s.omega = la.kron(one, w + 0.01 * (np.outer(p, p.conj()) - np.outer(q, q.conj())))
        return s, "resource_positive"
    if case == "scaled_witness":
        u = la.partial_trace(s.channels[4].ad_unitary, [n * n, n], {0}, normalise=True)
        s.channels[4] = Superoperator.conjugation(la.kron(la.eye(n * n), 1.01 * u), s.context.ambient)
        return s, "channels_completely_positive"
    # a Fourier matrix carries the diagonal N' = D_3 out of itself
    fourier = np.exp(2j * np.pi * np.outer(range(n), range(n)) / n) / np.sqrt(n)
    s.channels[1] = Superoperator.conjugation(la.kron(la.eye(n * n), fourier), s.context.ambient)
    return s, "channels_preserve_bob"


@pytest.mark.parametrize("case", ["povm_not_psd", "resource_not_psd", "scaled_witness", "moved_bob"])
def test_a_corrupted_leg_fails_its_check_on_the_legs(case):
    s, name = _corrupted_leg(case)
    assert teleport._legs(s) is not None
    got, want = verify_scheme(s, strict=False), verify_scheme(_dense_copy(s), strict=False)
    _same_reports(got, want)
    failed = [c.name for c in got.failures() if c.name != "teleportation_identity"]
    assert failed == (["channels_completely_positive", "channels_unital"] if case == "scaled_witness" else [name])
    with pytest.raises(SchemeError, match=f"^structural clause failed: {name} "):
        verify_scheme(s)


# -- tight schemes stored by their legs ----------------------------------------


STORED_SCHEMES = {
    **{f"standard_{n}": (lambda n=n: standard_scheme(n)) for n in range(2, 6)},
    "werner_D2": _werner_d2,
    "D3_dressed": _d3_dressed,
    "subsystem_tight": _subsystem_tight,
}


def _set_copy(s):
    """``s`` rebuilt with its dense pieces set explicitly, so that each is read by the leg split."""
    return TeleportationScheme(s.context, s.omega, s.povm, s.channels, s.inclusion, s.leg_dims, tower=s.tower)


PIECES = {"omega", "povm", "channels"}


@pytest.mark.parametrize("key", sorted(STORED_SCHEMES))
def test_stored_legs_and_set_pieces_give_the_same_reports(key):
    stored, dense = STORED_SCHEMES[key](), _set_copy(STORED_SCHEMES[key]())
    assert set(vars(stored)["_stored"]) == PIECES and "_stored" not in vars(dense)
    for judge in (verify_scheme, lambda s: classify(s).report, lambda s: extract_tight_scheme(s)[3]):
        _same_reports(judge(stored), judge(dense), within=1e-13)
    # judging the stored scheme built none of its dense pieces
    assert not PIECES & set(vars(stored)) and set(vars(stored)["_stored"]) == PIECES


def test_a_stored_scheme_has_every_field_but_its_pieces():
    s = standard_scheme(2)
    fields = {f.name for f in dataclasses.fields(TeleportationScheme)}
    assert set(vars(s)) == fields - PIECES | {"_stored"} and set(vars(s)["_stored"]) == PIECES
    assert s.leg_dims == (2, 2, 2) and s.inclusion is s.tower.inclusion
    with pytest.raises(TypeError):
        TeleportationScheme._from_legs({"omega": s._stored["omega"]}, context=s.context)


def test_a_stored_piece_is_built_once_on_read_and_kept():
    s = standard_scheme(2)
    n = 2
    assert s.outcomes == 4 and not PIECES & set(vars(s))
    povm = s.povm
    assert s.povm is povm and set(vars(s)["_stored"]) == {"omega", "channels"}
    e = concrete_jones_projection(StarAlgebra.trivial(n))
    assert np.max(np.abs(s.omega - n * n * la.kron(la.eye(n), e))) == 0.0
    assert s.channels[1].ad_unitary.shape == (n**3, n**3) and vars(s)["_stored"] == {}
    assert teleport._legs(s) is not None
    # a shallow copy keeps the legs its original had when it was made
    s = standard_scheme(2)
    twin = copy.copy(s)
    _scaled_povm_element(twin)
    assert set(vars(s)["_stored"]) == PIECES and "povm" not in vars(s)
    assert verify_scheme(s).passed and not verify_scheme(twin, strict=False).passed


FLIP = la.kron(np.array([[0, 1], [1, 0]], dtype=complex), la.eye(4))


def _bumped_omega(s):
    s.omega = (1 - 1e-6) * s.omega + 1e-6 * (la.eye(8) + FLIP)
    return s


def _scaled_povm_element(s):
    s.povm[0] = 1.01 * s.povm[0]
    return s


def _flipped_channel(s):
    s.channels[2] = Superoperator.conjugation(FLIP @ s.channels[2].ad_unitary, s.context.ambient)
    return s


def _flipped_channels(s):
    s.channels = [Superoperator.conjugation(FLIP @ ch.ad_unitary, s.context.ambient) for ch in s.channels]
    return s


def _omega_changed_in_place(s):
    s.omega[0, 0] += 1e-3
    return s


def _unread_omega_set(s):
    s.omega = 1.01 * standard_scheme(2).omega
    return s


def _unread_povm_set(s):
    s.povm = [1.01 * f for f in standard_scheme(2).povm]
    return s


REPLACEMENTS = {
    "set_omega": (_bumped_omega, "resource_commutes_with_teleported"),
    "set_povm_element": (_scaled_povm_element, "povm_sums_to_identity"),
    "set_channel": (_flipped_channel, "channels_alice_bimodule_sampled"),
    "set_channels": (_flipped_channels, "channels_alice_bimodule_sampled"),
    "omega_in_place": (_omega_changed_in_place, "resource_normalised"),
    "set_unread_omega": (_unread_omega_set, "resource_normalised"),
    "set_unread_povm": (_unread_povm_set, "povm_sums_to_identity"),
    "replace_povm": (lambda s: replace(s, povm=[1.01 * s.povm[0]] + s.povm[1:]), "povm_sums_to_identity"),
    "replace_omega": (lambda s: replace(s, omega=1.01 * s.omega), "resource_normalised"),
}


@pytest.mark.parametrize("key", sorted(REPLACEMENTS))
def test_replaced_pieces_of_a_stored_scheme_are_judged_as_they_stand(key):
    # the replacement made on a stored scheme and on a copy built from set
    # pieces: both judge the replaced piece, and no stale leg is read
    replaced, name = REPLACEMENTS[key]
    got = verify_scheme(replaced(standard_scheme(2)), strict=False)
    want = verify_scheme(replaced(_set_copy(standard_scheme(2))), strict=False)
    _same_reports(got, want, within=1e-13)
    assert name in [c.name for c in got.failures()]


def _full_system_spaces(a, bs, leg, tol):
    """The intertwiner spaces of the full systems L(E) a - b L(E), one
    (n^2, n^2) block per matrix unit E, as one batched SVD: per b, an
    orthonormal list of the vec(X), L(X) = X (x) 1 on ``leg`` 0 and 1 (x) X
    on ``leg`` 1."""
    n = int(np.sqrt(len(a)))
    units = la.eye(n * n).reshape(-1, n, n)
    lifted = la.kron(units, la.eye(n)) if leg == 0 else la.kron(la.eye(n), units)
    systems = lifted @ a - bs[:, None] @ lifted
    return la.nullspaces(systems.reshape(len(bs), n * n, -1).transpose(0, 2, 1), tol)


def _full_system_unitaries(a, bs, leg, dim, tol):
    """The polar parts of the generic invertibles of :func:`_full_system_spaces`."""
    n = int(np.sqrt(len(a)))
    spaces = _full_system_spaces(a, bs, leg, tol)
    assert all(len(sols) == dim for sols in spaces)
    cands = [
        la.generic_invertible([v.reshape(n, n) for v in sols], la.DEFAULT_SEED + i) for i, sols in enumerate(spaces)
    ]
    return la.polar_unitary(np.stack(cands))


def _undressed(s, z):
    """The resource leg of ``s`` without its dressing sqrt(z) and index, as
    :func:`extract_tight_scheme` forms it: (1 (x) u) e (1 (x) u*)."""
    inc, n = s.inclusion, s.inclusion.big.ambient_dim
    dress_inv = la.kron(la.eye(n), np.linalg.inv(la.matrix_sqrt(z, inc.tol)))
    return dress_inv @ teleport._pieces(s).resource @ dress_inv / inc.index


def _swapped(x):
    """``x`` on C^n (x) C^n with its two legs swapped."""
    n = int(np.sqrt(len(x)))
    return x.reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(n * n, n * n)


@pytest.mark.parametrize("key", sorted(STORED_SCHEMES))
def test_each_intertwiner_space_is_the_range_of_its_projection(key):
    # Omega lies in the range of e, so the X with (X (x) 1) e = f_i (X (x) 1)
    # have vec(X) in the range of f_i, and the dimensions match
    s = STORED_SCHEMES[key]()
    inc, legs = s.inclusion, teleport._pieces(s)
    e, tol = concrete_jones_projection(inc.small), inc.tol
    for sols, q in zip(_full_system_spaces(e, legs.povm, 0, tol), teleport._ranges(legs.povm)):
        v = np.array(sols)
        assert np.max(np.abs(v.T @ v.conj() - q @ la.dagger(q))) <= 1e-12
    # the dressing: the leg-1 solve on the undressed resource gives X = y u*
    # with y in N, so the two dressing unitaries differ by a unitary of N
    _, u_new, z, _ = extract_tight_scheme(s)
    u_old = la.dagger(_full_system_unitaries(_undressed(s, z), e[None], 1, inc.small.dim, tol)[0])
    assert inc.small.membership_residual(la.dagger(u_new) @ u_old) <= 1e-12


@pytest.mark.parametrize("key", sorted(STORED_SCHEMES))
def test_the_range_solve_matches_the_full_intertwiner_systems(key):
    s = STORED_SCHEMES[key]()
    inc, legs = s.inclusion, teleport._pieces(s)
    e, tol, dim = concrete_jones_projection(inc.small), inc.tol, inc.small.dim
    names = [f"outcome {i}" for i in range(s.outcomes)]
    p = teleport._ranges(e[None])[0]
    got = teleport._leg_unitaries(p, legs.povm, names, dim, tol)
    assert np.max(np.abs(got - _full_system_unitaries(e, legs.povm, 0, dim, tol))) <= 1e-14
    # the dressing solve, on the undressed resource of extract_tight_scheme with its legs swapped
    swapped = _swapped(_undressed(s, extract_tight_scheme(s)[2]))[None]
    got = teleport._leg_unitaries(p, swapped, ["dressing"], dim, tol)
    assert np.max(np.abs(got - _full_system_unitaries(e, swapped, 0, dim, tol))) <= 1e-14


def test_a_povm_leg_with_no_range_has_no_intertwiner():
    # a POVM element scaled below 1/2 keeps the flags but leaves no candidate
    s = standard_scheme(2)
    s.povm[1] = 0.4 * s.povm[1]
    flags = classify(s)
    assert flags.tight and flags.minimal and flags.faithful
    with pytest.raises(ExtractionError, match=r"^outcome 1: intertwiner space has dimension 0, expected 1$"):
        extract_tight_scheme(s)


def test_the_range_solve_reports_the_dimension_of_an_unequal_rank_outcome():
    # a rank-two POVM leg against a rank-one e: the outcome is solved on its own
    e = concrete_jones_projection(StarAlgebra.trivial(2))
    f = np.stack([e, la.eye(4) - e])
    with pytest.raises(ExtractionError, match=r"^outcome 1: intertwiner space has dimension 0, expected 1$"):
        teleport._leg_unitaries(teleport._ranges(e[None])[0], f, ["outcome 0", "outcome 1"], 1, DEFAULT_TOL)


def _tripartite_shifts():
    inc = trivial_in_full(3)
    one = la.eye(3)
    pair = lambda b: (la.kron(b, one, one), la.kron(one, one, b))  # noqa: E731
    return teleport._tripartite_context(inc), inc.small.commutant, pair


def _tower_shifts(t, scheme):
    pair = lambda b: (t.gns1.left(t.gns.left(b)), t.shift(b))  # noqa: E731
    return scheme.context, t.rel_comm, pair


def _unbiased_shifts():
    t, b = tower_basis("diagonal_in_full_3", lambda: shift_basis(3))
    return _tower_shifts(t, unbiased_scheme(t, b))


def _direct_sum_shifts():
    s = direct_sum_scheme(StarAlgebra.block_diagonal([(1, 1), (2, 1)]))
    return _tower_shifts(iterate(basic_construction(s.inclusion)), s)


@pytest.mark.parametrize(
    "make",
    [_tripartite_shifts, _unbiased_shifts, _direct_sum_shifts],
    ids=["tripartite_C_M3", "unbiased_D3", "direct_sum_1_2"],
)
def test_a_context_holds_no_shifted_stack(make):
    # each pair (a, shift(a)) is formed when it is read, from the teleported algebra's basis
    ctx, algebra, pair = make()
    assert not any(isinstance(v, np.ndarray) for v in vars(ctx).values())
    assert len(ctx.shift_pairs) == algebra.dim
    for b, (got_a, got_b) in zip(algebra.basis, ctx.shift_pairs, strict=True):
        want_a, want_b = pair(b)
        assert np.array_equal(got_a, want_a) and np.array_equal(got_b, want_b)


# -- the tripartite context, built as far as a verdict reads it ----------------

_ON_FIRST_READ = ("ambient", "trace", "alice", "bob", "teleported", "mirror", "expectation")
LAZY_SCHEMES = {"standard_3": lambda: standard_scheme(3), "werner_D2": _werner_d2, "subsystem_tight": _subsystem_tight}


def _all_reports(s):
    """Names, verdicts, residuals and details of verify, classify and extract."""
    flags = classify(s)
    reps = (verify_scheme(s), flags.report, extract_tight_scheme(s)[3])
    return [[(c.name, c.passed, c.residual, c.detail) for c in rep.checks] for rep in reps]


@pytest.mark.parametrize("key", sorted(LAZY_SCHEMES))
def test_a_scheme_on_its_legs_builds_nothing_of_its_context(key):
    s = LAZY_SCHEMES[key]()
    assert verify_scheme(s).passed
    flags = classify(s)
    assert flags.tight and flags.minimal and flags.faithful
    assert extract_tight_scheme(s)[3].passed
    assert not set(_ON_FIRST_READ) & set(vars(s.context))
    assert teleport._on_tripartite_context(s.context, s.inclusion)


@pytest.mark.parametrize("key", sorted(LAZY_SCHEMES))
def test_reading_a_context_attribute_keeps_every_verdict(key):
    want, s = _all_reports(LAZY_SCHEMES[key]()), LAZY_SCHEMES[key]()
    alice = s.context.alice
    assert "alice" in vars(s.context) and teleport._legs(s) is not None
    assert _all_reports(s) == want
    assert s.context.alice is alice
    # every attribute built, none replaced: the scheme stays on its legs
    for name in _ON_FIRST_READ:
        getattr(s.context, name)
    assert teleport._legs(s) is not None
    assert _all_reports(s) == want


def test_the_ambient_of_a_noisy_scheme_is_built_only_when_a_piece_reads_it():
    s = _with_rounding_noise(standard_scheme(7))
    ctx = s.context
    assert "ambient" not in vars(ctx)
    assert verify_scheme(s).passed
    flags = classify(s)
    assert flags.tight and flags.minimal and flags.faithful
    assert extract_tight_scheme(s)[3].passed
    assert not set(_ON_FIRST_READ) & set(vars(ctx))
    # the stored channels are conjugations on the ambient algebra
    channels = s.channels
    assert "ambient" in vars(ctx) and channels[0].domain is ctx.ambient
    assert ctx.ambient.blocks == [(7**3, 1)]


def test_a_replaced_context_attribute_takes_the_scheme_off_its_legs():
    s = standard_scheme(2)
    s.context.mirror = s.context.mirror  # built, then set to itself: not replaced
    assert teleport._legs(s) is not None
    s.context.mirror = StarAlgebra.tensor(*[StarAlgebra.trivial(2)] * 2, StarAlgebra.full(2))
    assert not teleport._on_tripartite_context(s.context, s.inclusion)
    assert teleport._legs(s) is None and verify_scheme(s).passed


def test_extraction_splits_each_piece_once(monkeypatch):
    # the resource and the POVM were set, so each is split; the channels are still stored
    s = _with_rounding_noise(standard_scheme(3))
    split, sizes = teleport._split, []
    monkeypatch.setattr(teleport, "_split", lambda xs, *args: sizes.append(len(xs)) or split(xs, *args))
    classify(s)
    assert sizes == [1, 9]
    sizes.clear()
    assert extract_tight_scheme(s)[3].passed
    assert sizes == [1, 9]


@pytest.mark.parametrize(
    "make",
    [_tripartite_shifts, _unbiased_shifts, _direct_sum_shifts],
    ids=["tripartite_C_M3", "unbiased_D3", "direct_sum_1_2"],
)
@pytest.mark.parametrize("chunk", [1, 2, 64])
def test_stacked_shift_pairs_equal_the_pairs_read_one_at_a_time(make, chunk, monkeypatch):
    monkeypatch.setattr(teleport, "_SHIFT_CHUNK", chunk)
    ctx, algebra, _ = make()
    got = teleport._shift_stacks(ctx.shift_pairs)
    want = teleport._shift_stacks(list(ctx.shift_pairs))
    for g, w in zip(got, want, strict=True):
        assert g.shape == (algebra.dim, *w.shape[1:]) and np.array_equal(g, w)
