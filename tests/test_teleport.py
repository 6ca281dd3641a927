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
)
from opteleport.bases import (
    PimsnerPopaBasis,
    commutant_factor_basis,
    homogeneous_block_basis,
    shift_basis,
    shift_unitary,
    verify_basis,
    weyl_basis,
)
from opteleport.errors import ExtractionError, HypothesisError, PreconditionError, SchemeError
from opteleport.inclusion import diagonal_in_full, markov_inclusion, trivial_in_full
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

from conftest import dense_commutation_gap, get_tower


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


def test_bimodule_check_fails_a_channel_that_disagrees_with_its_witness():
    # the witness of channel 0 lies in Alice', but the map applies another correction
    s = standard_scheme(2)
    amb = s.context.ambient
    v, w = s.channels[0].ad_unitary, s.channels[1].ad_unitary
    s.channels[0] = Superoperator(amb, amb, lambda x: w @ x @ la.dagger(w), ad_unitary=v)
    rep = verify_scheme(s, strict=False)
    bimod = next(c for c in rep.checks if c.name == "channels_alice_bimodule_sampled")
    assert not bimod.passed and 1e-3 < bimod.residual < float("inf")
    with pytest.raises(SchemeError, match="channels_alice_bimodule_sampled"):
        verify_scheme(s)


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


def test_channels_without_witness_are_sampled():
    s = standard_scheme(2)
    calls = _without_witness(s, [ch.ad_unitary for ch in s.channels])
    rep = verify_scheme(s)
    assert rep.passed
    # the sampled triples, like every other stack, reach such a map one matrix at a time
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
        assert la.is_projection(p)
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
    t, b = tower_basis("diagonal_in_full_2", lambda: shift_basis(2))
    bad = PimsnerPopaBasis(t.inclusion, b.elements)
    bad.orthonormal, bad.unitary, bad.in_normaliser = True, True, False
    with pytest.raises(PreconditionError):
        correction_unitaries(t, bad)


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
    s = tight_scheme_from_basis(inc, b)
    u = la.random_unitary(4, 5)  # complex: u N u* is no longer transpose-closed
    rotated = markov_inclusion(inc.small.image(lambda x: u @ x @ la.dagger(u), 4), inc.big)
    with pytest.raises(HypothesisError, match="transpose-closed"):
        extract_tight_scheme(s, rotated)
    assert extract_tight_scheme(s)[3].passed


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
    assert got.residual == _commutation_gap(ctx.alice, ctx.bob) <= 1e-14
    for a, b in ((ctx.alice, ctx.bob), (ctx.bob, ctx.alice)):
        want = dense_commutation_gap(a, b)
        assert abs(_commutation_gap(a, b) - want) <= 1e-14 + 1e-12 * want


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


def test_extraction_reclassifies_flags_decided_at_another_tolerance():
    # at abs = 0.5 the smallest outcome probability counts as zero
    s = _werner_d2()
    assert not classify(s, Tolerance(abs=0.5)).faithful
    basis, u, z, rep = extract_tight_scheme(s)
    assert rep.passed and basis.size == 2
    assert s.flags.tol == DEFAULT_TOL and s.flags.faithful


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
    calls = _count_calls(monkeypatch, ["basic_construction", "_tripartite_context"])
    for scheme in (s, std):
        assert extract_tight_scheme(scheme)[3].passed
    assert calls == {"basic_construction": 0, "_tripartite_context": 0}
    # an equal but distinct inclusion, or another tolerance, gets its own tower
    assert extract_tight_scheme(s, diagonal_in_full(2))[3].passed
    assert calls == {"basic_construction": 1, "_tripartite_context": 0}
    loose = Tolerance(abs=2e-9, rel=2e-9)
    assert extract_tight_scheme(s, tol=loose)[3].passed
    assert calls == {"basic_construction": 2, "_tripartite_context": 0}
    assert s.flags.tol == loose


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


def test_extraction_names_the_middle_channel_with_the_wrong_intertwiner_dimension():
    # a depolarising correction commutes with no unitary: its intertwiner
    # space is {0}, where the other three channels have dimension dim N = 1
    s = standard_scheme(2)
    amb = s.context.ambient
    dim = amb.ambient_dim
    s.channels[2] = Superoperator(
        amb, amb, lambda x: 0.5 * x + 0.5 * np.trace(x) / dim * np.eye(dim, dtype=complex)
    )
    with pytest.raises(ExtractionError, match=r"^channel 2: intertwiner space has dimension 0, expected 1$"):
        extract_tight_scheme(s)
