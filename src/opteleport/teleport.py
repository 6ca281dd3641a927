"""Teleportation schemes between commuting subalgebras.

A scheme is a triple (omega, {F_i}, {T_i}) in a tripartite context: an
entangled resource density, a POVM for the measuring party, and unital
completely positive correction channels, satisfying

    sum_i E(F_i T_i(shift(a)) omega) = a        for all a in the teleported
                                                algebra,

where ``shift`` is the *-isomorphism carrying the teleported algebra onto
the far party and E the trace-preserving expectation back onto it.

The rigidity pair :func:`tight_scheme_from_basis` /
:func:`extract_tight_scheme` builds tight schemes on M_n (x) M_n (x) N' from
(basis, u, z) data and recovers such data from any tight, minimal, faithful
scheme.  Werner's tensor-picture scheme for a full matrix algebra,
:func:`standard_scheme`, is its N = C case.  Two further constructors are
provided: the block direct-sum scheme for an arbitrary finite-dimensional
algebra, and the unbiased scheme attached to a unitary normaliser basis of
an inclusion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from .algebra import (
    StarAlgebra,
    Superoperator,
    Trace,
    _commutation_gap,
    _commuting_product,
    _corners,
    _frame_distance,
    conditional_expectation_onto,
)
from .bases import PimsnerPopaBasis, _weyl_family, verify_basis, weyl_basis
from .errors import (
    ExtractionError,
    HypothesisError,
    PreconditionError,
    SchemeError,
)
from .inclusion import Inclusion, concrete_jones_projection, markov_inclusion
from .linalg import DEFAULT_SEED, DEFAULT_TOL, Tolerance
from .reporting import Report
from .tower import Tower, basic_construction, iterate, normalizer_check


@dataclass
class TeleportationContext:
    """Tripartite commuting-algebra data a scheme is verified against."""

    ambient: StarAlgebra
    trace: Trace
    alice: StarAlgebra
    bob: StarAlgebra
    teleported: StarAlgebra
    mirror: StarAlgebra
    shift_pairs: list[tuple[np.ndarray, np.ndarray]]

    def __post_init__(self) -> None:
        self.expectation = conditional_expectation_onto(
            self.teleported, self.ambient, self.trace
        )


@dataclass
class TeleportationScheme:
    context: TeleportationContext
    omega: np.ndarray
    povm: list[np.ndarray]
    channels: list[Superoperator]
    inclusion: Inclusion | None = None  # set for tripartite M_n (x) M_n (x) N' schemes
    leg_dims: tuple[int, int, int] | None = None
    flags: "SchemeFlags | None" = field(default=None, repr=False)
    tower: Tower | None = field(default=None, repr=False)  # a tight scheme's level-one tower

    @property
    def outcomes(self) -> int:
        return len(self.povm)


@dataclass
class SchemeFlags:
    tight: bool
    unbiased: bool
    unbiased_value: float | None
    faithful: bool
    minimal: bool
    witness: dict | None = None
    report: Report | None = field(default=None, repr=False)
    tol: Tolerance | None = None  # the tolerance the flags were decided at


def verify_scheme(
    scheme: TeleportationScheme,
    tol: Tolerance | None = None,
    strict: bool = True,
    samples: int = 6,
) -> Report:
    """Structural checks plus the teleportation identity residual.

    Structural clauses (POVM, densities, UCP, bimodularity, invariance)
    raise :class:`SchemeError` naming the clause when ``strict``; the
    identity residual itself is always only reported.  Each check over a
    family (POVM, channel images of a basis, shifted elements) is one
    stacked call per channel.

    Bimodularity over Alice is exact for a channel with a conjugation
    witness v: a unital CP map is an Alice-bimodule map exactly when it
    fixes Alice pointwise (Choi's multiplicative-domain theorem), which for
    Ad v means v in Alice'.  Its residual is the membership residual of v in
    Alice' plus ||T(x0) - v x0 v*||_F on one random x0 in Alice ∨ Bob, so a
    channel whose map disagrees with its witness fails.  A channel without a
    witness is sampled on ``samples`` seeded random triples (a, x, b), drawn
    on the corners of Alice and of Alice ∨ Bob
    (:meth:`StarAlgebra.random_hermitian`) and shared by every such channel.
    The one-way LOCC form of the total operation follows from the verified
    structure and is recorded as implied rather than re-checked.  Alice ∨ Bob
    is built from matrix units, so Alice and Bob must commute, which
    ``alice_bob_commute`` reads as the distance to Alice' of the column units
    that generate Bob (:func:`~opteleport.algebra._commutation_gap`); once
    that gate has passed, Alice ∨ Bob is built without a second one.  When
    they do not commute, ``strict`` raises at once and otherwise the bimodule
    check is recorded as failed with an infinite residual.  A failed bimodule check is
    excused only when Bob has several central projections, all in Alice, and
    every channel normalises Alice.
    """
    tol = tol or DEFAULT_TOL
    ctx = scheme.context
    rep = Report()
    dim = ctx.ambient.ambient_dim
    commute = rep.add("alice_bob_commute", _commutation_gap(ctx.alice, ctx.bob), tol.bound(1.0) * 10)
    if strict and not commute.passed:
        raise SchemeError(f"structural clause failed: alice_bob_commute ({commute.residual:.2e})")

    _povm_checks(rep, scheme, tol)

    omega = scheme.omega
    vals = np.linalg.eigvalsh((omega + la.dagger(omega)) / 2)
    rep.add(
        "resource_positive",
        la.frobenius_distance(omega, la.dagger(omega)) + max(0.0, -float(vals.min())),
        tol.bound(float(np.linalg.norm(omega))),
    )
    rep.add("resource_normalised", abs(ctx.trace(omega) - 1.0), tol.bound(1.0))
    teleported = ctx.teleported.basis
    rep.add(
        "resource_commutes_with_teleported",
        float(np.max(la.frobenius_norms(omega @ teleported - teleported @ omega))),
        tol.bound(float(np.linalg.norm(omega))) * 10,
    )

    ucp = unital = 0.0
    for ch in scheme.channels:
        ucp = max(ucp, ch.cp_residual())
        unital = max(unital, la.frobenius_distance(ch(la.eye(dim)), la.eye(dim)))
    rep.add("channels_completely_positive", ucp, tol.bound(1.0))
    rep.add("channels_unital", unital, tol.bound(1.0))

    bimod = 0.0
    if commute.passed:
        bimod = _bimodule_residual(ctx, scheme.channels, samples)
    if not commute.passed:
        # Alice v Bob is no algebra, so there is nothing to sample.
        rep.add_flag(
            "channels_alice_bimodule_sampled",
            False,
            detail="Alice and Bob do not commute; their joint algebra is undefined",
        )
    elif bimod <= tol.bound(1.0) * 100 or len(ctx.bob.blocks) == 1:
        # a factor Bob has no central projection but 1: nothing obstructs bimodularity
        rep.add("channels_alice_bimodule_sampled", bimod, tol.bound(1.0) * 100)
    else:
        # Strict bimodularity is impossible whenever Alice and Bob share
        # central projections the corrections must permute; certify the
        # attainable locality instead: every channel normalises Alice.
        shared = float(np.max(ctx.alice.membership_residual(np.stack(ctx.bob.central_projections))))
        normalising = max(
            float(np.max(ctx.alice.membership_residual(ch(ctx.alice.basis))))
            for ch in scheme.channels
        )
        obstructed = shared <= tol.bound(1.0) * 10 and normalising <= tol.bound(1.0) * 100
        rep.add_flag(
            "channels_alice_bimodule_sampled",
            obstructed,
            detail=(
                f"bimodule residual {bimod:.2e}: Alice and Bob share central "
                f"projections (membership {shared:.2e}), so corrections can only "
                f"normalise Alice (residual {normalising:.2e}); strict bimodularity "
                "is unattainable for this inclusion"
            ),
        )
    bob = ctx.bob.basis
    rep.add(
        "channels_preserve_bob",
        max(float(np.max(ctx.bob.membership_residual(ch(bob)))) for ch in scheme.channels),
        tol.bound(1.0) * ctx.bob.dim,
    )
    rep.add_flag("one_way_locc", True, detail="implied by POVM/bimodule/invariance structure")

    if strict:
        for check in rep.failures():
            raise SchemeError(f"structural clause failed: {check.name} ({check.residual:.2e})")

    shifted = np.stack([s for _, s in ctx.shift_pairs])
    total = np.zeros(shifted.shape, dtype=complex)
    for f, ch in zip(scheme.povm, scheme.channels):
        total += f @ ch(shifted) @ omega
    got = ctx.expectation(total)
    worst = max(la.frobenius_distance(g, a) for g, (a, _) in zip(got, ctx.shift_pairs))
    rep.add("teleportation_identity", worst, tol.bound(1.0) * max(1, scheme.outcomes))
    return rep


def _povm_checks(rep: Report, scheme: TeleportationScheme, tol: Tolerance) -> None:
    """The POVM clauses of :func:`verify_scheme`, on the stacked POVM."""
    povm, dim = np.stack(scheme.povm), scheme.context.ambient.ambient_dim
    rep.add(
        "povm_sums_to_identity",
        la.frobenius_distance(sum(povm), la.eye(dim)),
        tol.bound(1.0) * max(1, scheme.outcomes),
    )
    vals = np.linalg.eigvalsh((povm + la.dagger(povm)) / 2)
    psd = max(float(np.max(la.frobenius_norms(povm - la.dagger(povm)))), max(0.0, -float(vals.min())))
    rep.add("povm_positive", psd, tol.bound(1.0))
    rep.add(
        "povm_in_alice_algebra",
        float(np.max(scheme.context.alice.membership_residual(povm))),
        tol.bound(1.0) * scheme.context.alice.dim,
    )


def _bimodule_residual(
    ctx: TeleportationContext, channels: list[Superoperator], samples: int
) -> float:
    """The largest bimodule residual over the channels (see :func:`verify_scheme`).

    Channels without a witness share ``samples`` triples (a, b, x) with a, b
    in Alice and x in Alice ∨ Bob, drawn in that order from the sampling
    seed; the witnesses v are checked together, in Alice' as one stack and
    against their maps on one x0 drawn after the triples.  Alice and Bob
    must have passed the ``alice_bob_commute`` gate.
    """
    rng = la.rng_from(None)
    joint = _commuting_product(ctx.alice, ctx.bob)
    worst = 0.0
    sampled = [ch for ch in channels if ch.ad_unitary is None]
    if sampled and samples > 0:
        draws = [
            (ctx.alice.random_hermitian(rng), ctx.alice.random_hermitian(rng), joint.random_hermitian(rng))
            for _ in range(samples)
        ]
        a, b, x = map(np.stack, zip(*draws))
        axb = a @ x @ b
        for ch in sampled:
            worst = max(worst, float(np.max(la.frobenius_norms(ch(axb) - a @ ch(x) @ b))))
    witnessed = [ch for ch in channels if ch.ad_unitary is not None]
    if witnessed:
        x0 = joint.random_hermitian(rng)
        vs = np.stack([ch.ad_unitary for ch in witnessed])
        moved = vs @ x0 @ la.dagger(vs)
        drift = [la.frobenius_distance(ch(x0), m) for ch, m in zip(witnessed, moved)]
        outside = _frame_distance(ctx.alice, vs, commutant=True)
        worst = max(worst, float(np.max(outside + drift)))
    return worst


def classify(
    scheme: TeleportationScheme, tol: Tolerance | None = None, density_samples: int = 100
) -> SchemeFlags:
    """Tightness, unbiasedness, faithfulness and minimality flags.

    Works through g_i = E(omega F_i): by traciality and the bimodule
    property, tr(F_i rho omega) = tr(rho g_i) for every density rho in the
    teleported algebra, so "for all densities" becomes one operator test
    per outcome.  Seeded random densities re-check the reduction; they are
    drawn on the corners of the teleported algebra, c_j = g g* for a
    Ginibre g, and evaluated against rows written once per scheme.  The
    non-faithfulness witness is the first outcome whose lowest eigenvalue
    is within ``tol.abs`` of the minimum.  The flags record ``tol``, and
    :func:`extract_tight_scheme` reuses them only at an equal tolerance.
    """
    tol = tol or DEFAULT_TOL
    ctx = scheme.context
    rep = Report()
    d = scheme.outcomes
    tight = ctx.teleported.dim == d
    rep.add_flag("tight", True, detail=f"outcomes {d}, dim {ctx.teleported.dim}, flag {tight}")

    gs = ctx.expectation(scheme.omega @ np.stack(scheme.povm))
    unit = ctx.teleported.unit
    unb_res = float(np.max(la.frobenius_norms(gs - unit / d)))
    unbiased = unb_res <= tol.bound(1.0) * 10
    rep.add_flag("unbiased", True, detail=f"residual {unb_res:.2e}, flag {unbiased}")

    lows = [float(low) for low in np.linalg.eigvalsh((gs + la.dagger(gs)) / 2).min(axis=-1)]
    faithful = min(lows) > tol.abs
    witness = None
    if not unbiased:
        # the most starved outcome, the first of those within tol.abs of the
        # minimum so that rounding cannot pick among ties; a zero here
        # exhibits a density the outcome can never see
        i = next(i for i, low in enumerate(lows) if low <= min(lows) + tol.abs)
        witness = {"outcome": i, "probability": lows[i]}
    rep.add_flag("faithful", True, detail=f"flag {faithful}")

    # both memberships in frame coordinates: no dense basis of a joint algebra
    mirror_bob = StarAlgebra.commuting_product(ctx.mirror, ctx.bob)
    minimal_omega = _frame_distance(mirror_bob, scheme.omega)
    pair = StarAlgebra.commuting_product(ctx.teleported, ctx.mirror)
    minimal_povm = float(np.max(_frame_distance(pair, np.stack(scheme.povm))))
    minimal = minimal_omega <= tol.bound(
        float(np.linalg.norm(scheme.omega))
    ) * 10 and minimal_povm <= tol.bound(1.0) * 10
    rep.add_flag(
        "minimal",
        True,
        detail=f"omega residual {minimal_omega:.2e}, povm residual {minimal_povm:.2e}, flag {minimal}",
    )

    # independent cross-check on sampled densities, drawn as corners g g*
    lhs_rows, rhs_rows, norm_row = _cross_check_rows(scheme, gs)
    rng = la.rng_from(None)
    corners = []
    for bd, _ in ctx.teleported.blocks:
        shape = (density_samples, bd, bd)
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        corners.append((g @ la.dagger(g)).reshape(density_samples, -1))
    rhos = np.concatenate(corners, axis=1)
    val = (rhos @ norm_row).real
    keep = val >= 1e-6
    rhos = rhos[keep] / val[keep, None]
    lhs = rhos @ lhs_rows.T
    cross = float(np.max(np.abs(lhs - rhos @ rhs_rows.T), initial=0.0))
    if unbiased:
        cross = max(cross, float(np.max(np.abs(lhs - 1.0 / d), initial=0.0)))
    rep.add("density_reduction_cross_check", cross, tol.bound(1.0) * 100)

    flags = SchemeFlags(
        tight=tight,
        unbiased=unbiased,
        unbiased_value=1.0 / d if unbiased else None,
        faithful=faithful,
        minimal=minimal,
        witness=witness,
        report=rep,
        tol=tol,
    )
    scheme.flags = flags
    return flags


def _cross_check_rows(
    scheme: TeleportationScheme, gs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows whose products with the corners of rho list tau(F_i rho omega),
    tau(rho g_i) and tau(rho), for rho in the teleported algebra.

    Only cyclicity of Tr and the block form rho = sum_j W_j (c_j (x) 1) W_j*
    are used, not the reduction under test: with D the trace density,
    tau(F rho omega) = Tr((omega D F) rho), tau(rho g) = Tr((g D) rho) and
    tau(rho) = Tr(D rho), and Tr(X rho) = sum_j m_j <Xbar_j^T, c_j>
    entrywise, Xbar_j the corners of X.  The corners c_j are concatenated
    block by block, each raveled row-major.
    """
    ctx = scheme.context
    density = ctx.trace.density
    xs = np.stack(
        [scheme.omega @ density @ f for f in scheme.povm] + list(gs @ density) + [density]
    )
    rows = np.concatenate(
        [
            m * np.swapaxes(c, -1, -2).reshape(len(xs), -1)
            for (_, m), c in zip(ctx.teleported.blocks, _corners(ctx.teleported, xs))
        ],
        axis=1,
    )
    k = scheme.outcomes
    return rows[:k], rows[k : 2 * k], rows[2 * k]


# ---------------------------------------------------------------------------
# Constructor 1: the tensor-picture scheme for M_n, the tight scheme of C ⊆ M_n.
# ---------------------------------------------------------------------------


def standard_scheme(n: int, basis: PimsnerPopaBasis | None = None) -> TeleportationScheme:
    """Teleportation of M_n across M_n (x) M_n (x) M_n from a unitary basis.

    ``basis`` defaults to the clock-and-shift family; it must be a unitary
    orthonormal basis of M_n over the scalars with n^2 elements.  This is
    Werner's tensor-picture scheme: the tight scheme of C ⊆ M_n with
    u = z = 1, built on the tower that verifies the basis.  The
    commutant-trace gate holds there by its own formula, 1 * n^2 = n * n.
    """
    if basis is None:
        basis = weyl_basis(n)
    t = basic_construction(basis.inclusion)
    if basis.orthonormal is None:
        verify_basis(t, basis)
    if not (basis.orthonormal and basis.unitary and basis.size == n * n):
        raise PreconditionError("standard scheme needs a unitary orthonormal basis of size n^2")
    return _tight_scheme(t, basis, None, None, DEFAULT_TOL)


# ---------------------------------------------------------------------------
# Constructor 2: the block direct-sum scheme for a finite-dimensional algebra.
# ---------------------------------------------------------------------------


def _tower_context(t: Tower) -> TeleportationContext:
    """Context with Alice = M1, Bob = M1' ∩ M2, teleported = N' ∩ M."""
    iterate(t)
    dim1 = t.gns1.dim
    lift = lambda x: t.gns1.left(t.gns.left(x))
    teleported = t.rel_comm.image(lift, dim1)
    mirror = t.mirror1.image(t.gns1.left, dim1)
    basis = t.rel_comm.basis
    return TeleportationContext(
        ambient=t.level2,
        trace=t.trace2,
        alice=t.m1_rep,
        bob=t.mirror2,
        teleported=teleported,
        mirror=mirror,
        shift_pairs=list(zip(lift(basis), t.shift(basis))),
    )


def _block_weyl_unitaries(m: StarAlgebra) -> list[tuple[int, np.ndarray]]:
    """Per block j, the unitaries acting as the clock-and-shift family on
    that block and as the identity elsewhere; ordered by block then (l, k)."""
    return [
        (j, m.unit - m.central_projections[j] + w)
        for j, f in enumerate(m.matrix_units)
        for w in _weyl_family(f)
    ]


def direct_sum_scheme(m: StarAlgebra, tol: Tolerance = DEFAULT_TOL) -> TeleportationScheme:
    """Tight, minimal scheme teleporting all of a finite-dimensional algebra.

    Built on the two-level tower of scalars ⊆ m with the Markov trace: the
    resource is (dim m) e_M, the POVM collects the per-block entangled
    projections twisted by that block's unitary family, and the corrections
    conjugate by the shifted block unitaries.
    """
    inc = markov_inclusion(StarAlgebra.trivial(m.ambient_dim), m, tol)
    t = iterate(basic_construction(inc, tol))
    ctx = _tower_context(t)
    omega = float(m.dim) * t.jones2
    povm: list[np.ndarray] = []
    channels: list[Superoperator] = []
    for j, w in _block_weyl_unitaries(m):
        z = m.central_projections[j]
        vec = t.gns.vector(la.dagger(w) @ z)
        scale = inc.trace(z).real
        f_lvl1 = np.outer(vec, vec.conj()) / scale
        povm.append(t.gns1.left(f_lvl1))
        channels.append(Superoperator.conjugation(t.shift(w), ctx.ambient))
    return TeleportationScheme(ctx, omega, povm, channels)


# ---------------------------------------------------------------------------
# Constructor 3: the unbiased scheme from a unitary normaliser basis.
# ---------------------------------------------------------------------------


def correction_unitaries(
    t: Tower, basis: PimsnerPopaBasis, tol: Tolerance | None = None
) -> tuple[list[np.ndarray], Report]:
    """Unitaries v_i in M2 implementing shift(u_i x u_i*) = v_i shift(x) v_i*.

    Realised through the periodicity homomorphism sending a d x d matrix
    over M to M2; its multiplicativity and unitality are re-verified on
    random arguments as part of the report.
    """
    tol = tol or DEFAULT_TOL
    if not (basis.unitary and basis.in_normaliser and basis.orthonormal):
        raise PreconditionError("correction unitaries need a unitary orthonormal normaliser basis")
    iterate(t)
    idx = t.index
    pi, pi1, e1, e2 = t.gns.left, t.gns1.left, t.jones1, t.jones2
    us = np.array(basis.elements)
    pi_us = pi(us)
    heads = la.dagger(pi_us) @ e1
    lifted_left = pi1(heads)
    lifted_right = pi1(e1 @ pi_us)
    lifted_mid = pi1(pi_us)

    d = basis.size
    tails = e2 @ lifted_right

    def phi(blockmat: np.ndarray) -> np.ndarray:
        # pi1 is multiplicative: sum_a lifted_left[a] pi1(pi(x_ab)) = pi1(y_b) with
        # y_b = sum_a pi(u_a)* e1 pi(x_ab), so the (d, d) block matrix takes one pi
        # and one pi1 call, and no (d, d) stack of level-two operators is formed
        y = np.einsum("aij,abjk->bik", heads, pi(blockmat))
        return idx * np.sum(pi1(y) @ tails, axis=0)

    vs = []
    for i in range(d):
        v = idx * sum(lifted_left[a] @ lifted_mid[i] @ e2 @ lifted_right[a] for a in range(d))
        vs.append(v)
    stack = np.array(vs)
    rep = Report()
    rep.add(
        "corrections_unitary",
        float(la.frobenius_norms(la.dagger(stack) @ stack - la.eye(t.gns1.dim)).max()),
        tol.bound(1.0) * d,
    )
    rep.add(
        "corrections_in_second_tower_algebra",
        float(t.level2.membership_residual(stack).max()),
        tol.bound(1.0) * t.level2.dim,
    )
    # shift over the basis of N' ∩ M once, and over the u_i x u_i* one u_i at a
    # time, so that no stack holds more level-two operators than that basis
    rc = t.rel_comm.basis
    shifted = t.shift(rc)
    rep.add(
        "corrections_conjugate_shift",
        max(
            float(la.frobenius_norms(v @ shifted @ la.dagger(v) - t.shift(u @ rc @ la.dagger(u))).max())
            for u, v in zip(us, vs)
        ),
        tol.bound(1.0) * d,
    )
    rng = la.rng_from(None)
    n = t.inclusion.big.ambient_dim
    rand_block = lambda: np.array([
        [t.inclusion.big.project(la.random_hermitian(n, rng)) for _ in range(d)]
        for _ in range(d)
    ])
    xs, ys = rand_block(), rand_block()
    prod = np.einsum("acij,cbjk->abik", xs, ys)
    phi_x, phi_y = phi(xs), phi(ys)
    rep.add(
        "periodicity_map_multiplicative",
        la.frobenius_distance(phi_x @ phi_y, phi(prod)),
        tol.bound(float(np.linalg.norm(phi_x) * np.linalg.norm(phi_y))) * 10,
    )
    # phi of the identity block matrix: pi1(pi(1)) = 1 leaves idx sum_a lifted_left[a] tails[a]
    rep.add(
        "periodicity_map_unital",
        la.frobenius_distance(
            idx * sum(lifted_left[a] @ tails[a] for a in range(d)), la.eye(t.gns1.dim)
        ),
        tol.bound(1.0) * d,
    )
    return vs, rep


def unbiased_scheme(
    t: Tower, basis: PimsnerPopaBasis, tol: Tolerance | None = None
) -> TeleportationScheme:
    """Unbiased scheme for N' ∩ M relative to M1 and M1' ∩ M2.

    The resource is [M:N] e_M, the POVM is the projection family
    {u_i* e_N u_i} lifted to level two, and the corrections conjugate
    directly by the periodicity unitaries; Alice's outcome distribution is
    uniform for every input density.

    The corrections restrict to the intended automorphisms of Bob's
    algebra and normalise Alice's, but when the two algebras share central
    projections (e.g. the diagonals inside M_n) no correction can fix
    Alice pointwise, so strict Alice-bimodularity is unattainable for any
    choice of channels; :func:`verify_scheme` certifies the attainable
    locality and records the obstruction.
    """
    tol = tol or DEFAULT_TOL
    vs, _ = correction_unitaries(t, basis, tol)
    ctx = _tower_context(t)
    idx = t.index
    omega = idx * t.jones2
    reps = t.gns.left(np.stack(basis.elements))
    povm = list(t.gns1.left(la.dagger(reps) @ t.jones1 @ reps))
    channels = [Superoperator.conjugation(v, ctx.ambient) for v in vs]
    return TeleportationScheme(ctx, omega, povm, channels)


# ---------------------------------------------------------------------------
# Rigidity: tight schemes on M_n (x) M_n (x) N' and their extraction.
# ---------------------------------------------------------------------------


def commutant_trace_is_markov(inc: Inclusion, tol: Tolerance | None = None) -> tuple[bool, Report]:
    """Whether tau_n restricted to N' is the Markov trace of scalars ⊆ N'.

    Holds exactly when n_j / m_j = n / dim N' for every block of N; when it
    does, both normalised one-leg partial traces of the Jones projection
    equal 1/[M_n : N], which is re-checked numerically.
    """
    tol = tol or DEFAULT_TOL
    rep = Report()
    n = inc.big.ambient_dim
    if inc.big.dim != n * n:
        raise PreconditionError("commutant trace test requires M = M_n")
    dims = [bd for bd, _ in inc.small.blocks]
    mults = [m for _, m in inc.small.blocks]
    dim_nprime = sum(m * m for m in mults)
    flag = all(bd * dim_nprime == n * m for bd, m in inc.small.blocks)
    rep.add_flag(
        "trace_vector_proportionality",
        True,
        detail=f"blocks {list(zip(dims, mults))}, n={n}, dim N'={dim_nprime}, flag {flag}",
    )
    if flag:
        e = concrete_jones_projection(inc.small)
        idx = inc.index
        left = la.partial_trace(e, [n, n], {0}, normalise=True)
        right = la.partial_trace(e, [n, n], {1}, normalise=True)
        rep.add(
            "jones_partial_traces_flat",
            max(
                la.frobenius_distance(left, la.eye(n) / idx),
                la.frobenius_distance(right, la.eye(n) / idx),
            ),
            tol.bound(1.0),
        )
    return flag, rep


def _tripartite_context(inc: Inclusion) -> TeleportationContext:
    n = inc.big.ambient_dim
    nprime = inc.small.commutant
    full, triv = StarAlgebra.full(n), StarAlgebra.trivial(n)
    ambient = StarAlgebra.tensor(full, full, nprime)
    ident = la.eye(n)
    return TeleportationContext(
        ambient=ambient,
        trace=Trace.normalized(ambient),
        alice=StarAlgebra.tensor(full, full, triv),
        bob=StarAlgebra.tensor(triv, triv, nprime),
        teleported=StarAlgebra.tensor(nprime, triv, triv),
        mirror=StarAlgebra.tensor(triv, nprime, triv),
        shift_pairs=[
            (la.kron(b, ident, ident), la.kron(ident, ident, b)) for b in nprime.basis
        ],
    )


def tight_scheme_from_basis(
    inc: Inclusion,
    basis: PimsnerPopaBasis,
    u: np.ndarray | None = None,
    z: np.ndarray | None = None,
    tol: Tolerance | None = None,
) -> TeleportationScheme:
    """Tight scheme for N' on M_n (x) M_n (x) N' from (basis, u, z) data.

    ``basis`` must be a unitary orthonormal normaliser basis of M_n over N,
    ``u`` a normaliser unitary and ``z`` a positive invertible central
    element of N with tau(z) = 1.  The commutant-trace gate must pass.
    """
    tol = tol or DEFAULT_TOL
    flag, _ = commutant_trace_is_markov(inc, tol)
    if not flag:
        raise HypothesisError("tau restricted to N' is not the Markov trace of C ⊆ N'")
    return _tight_scheme(basic_construction(inc, tol), basis, u, z, tol)


def _tight_scheme(
    t: Tower, basis: PimsnerPopaBasis, u: np.ndarray | None, z: np.ndarray | None, tol: Tolerance
) -> TeleportationScheme:
    """:func:`tight_scheme_from_basis` on the level-one tower of an inclusion
    that has passed the commutant-trace gate.  The scheme keeps the tower,
    which :func:`extract_tight_scheme` reuses at the same tolerance."""
    inc = t.inclusion
    n = inc.big.ambient_dim
    if basis.orthonormal is None:
        verify_basis(t, basis)
    if not (basis.orthonormal and basis.unitary and basis.in_normaliser):
        raise PreconditionError("need a unitary orthonormal normaliser basis")
    u = la.eye(n) if u is None else np.asarray(u, dtype=complex)
    z = la.eye(n) if z is None else np.asarray(z, dtype=complex)
    if not normalizer_check(t, u, tol):
        raise PreconditionError("u must normalise N")
    if inc.small.center.membership_residual(z) > tol.bound(float(np.linalg.norm(z))) * 10:
        raise PreconditionError("z must be central in N")
    zvals = np.linalg.eigvalsh((z + la.dagger(z)) / 2)
    if zvals.min() <= tol.abs or abs(inc.trace(z) - 1.0) > tol.bound(1.0):
        raise PreconditionError("z must be positive invertible with tau(z) = 1")

    e = concrete_jones_projection(inc.small)
    ident = la.eye(n)
    omega = la.kron(ident, _tight_resource(inc, e, u, z, tol))
    elements = np.stack(basis.elements)
    povm = list(la.kron(_entangled_projections(e, elements, u), ident))
    ctx = _tripartite_context(inc)
    channels = [
        Superoperator.conjugation(w, ctx.ambient) for w in la.kron(la.eye(n * n), elements)
    ]
    return TeleportationScheme(
        ctx, omega, povm, channels, inclusion=inc, leg_dims=(n, n, n), tower=t
    )


def _tight_resource(
    inc: Inclusion, e: np.ndarray, u: np.ndarray, z: np.ndarray, tol: Tolerance
) -> np.ndarray:
    """[M_n : N] d e d* with d = 1 (x) sqrt(z) u: the resource of the tight
    scheme on its last two legs, for e the concrete Jones projection of N."""
    dress = la.kron(la.eye(len(u)), la.matrix_sqrt(z, tol) @ u)
    return inc.index * dress @ e @ la.dagger(dress)


def _entangled_projections(e: np.ndarray, units: np.ndarray, u: np.ndarray) -> np.ndarray:
    """w_i e w_i* with w_i = u_i* u (x) 1, for a stack of unitaries u_i: the
    POVM of the tight scheme on its first two legs."""
    w = la.kron(la.dagger(units) @ u, la.eye(len(u)))
    return w @ e @ la.dagger(w)


def _far_leg_images(
    channels: list[Superoperator], nprime: StarAlgebra
) -> tuple[np.ndarray, np.ndarray]:
    """Each channel T on the lifted basis 1 (x) a of N', 1 = 1_{n^2}, applied
    once as one stacked call and kept in two parts: the n x n partial traces
    r_a = Tr_01(T(1 (x) a)) / n^2, so that 1 (x) r_a is the HS projection of
    T(1 (x) a) onto 1 (x) M_n, and the squared Frobenius norms of what that
    projection leaves out.  No stack of full images outlives its channel;
    the parts come back stacked over channels, (k, dim N', n, n) and
    (k, dim N')."""
    n = nprime.ambient_dim
    far = nprime.basis
    lifted = la.kron(la.eye(n * n), far)
    parts, outside = [], []
    for ch in channels:
        image = ch(lifted)
        part = np.einsum("kiaib->kab", image.reshape(len(far), n * n, n, n * n, n)) / (n * n)
        parts.append(part)
        outside.append(la.frobenius_norms(image - la.kron(la.eye(n * n), part)) ** 2)
    return np.stack(parts), np.stack(outside)


def _far_leg_unitaries(
    far: np.ndarray, parts: np.ndarray, dim_n: int, tol: Tolerance
) -> np.ndarray:
    """Per channel, a unitary u with u a u* = r_a for every a in the basis
    ``far`` of N', given the partial traces r_a of :func:`_far_leg_images`,
    from the intertwiner space of those pairs, which must have dimension
    ``dim_n`` = dim N; the unitaries come back as one stack.  The
    intertwiner systems of all channels are solved by one batched SVD, and
    the polar parts taken by another."""
    cands = []
    for i, sols in enumerate(la.intertwiner_spaces(far, parts, tol)):
        if len(sols) != dim_n:
            raise ExtractionError(
                f"channel {i}: intertwiner space has dimension {len(sols)}, expected {dim_n}"
            )
        cand = la.generic_invertible(sols, la.rng_from(DEFAULT_SEED + i))
        if cand is None:
            raise ExtractionError(f"channel {i}: no invertible intertwiner found")
        cands.append(cand)
    units = la.polar_unitary(np.stack(cands))
    moved = units[:, None] @ far @ la.dagger(units)[:, None]
    for i, resid in enumerate(np.max(la.frobenius_norms(moved - parts), axis=1)):
        if resid > tol.bound(1.0) * 100:
            raise ExtractionError(f"channel {i} is not implemented by a unitary ({resid:.2e})")
    return units


def extract_tight_scheme(
    scheme: TeleportationScheme,
    inc: Inclusion | None = None,
    tol: Tolerance | None = None,
) -> tuple[PimsnerPopaBasis, np.ndarray, np.ndarray, Report]:
    """Recover (basis, u, z) from a tight, minimal, faithful scheme for N'.

    The central element is the one-leg slice of the resource, correction
    unitaries come from intertwiner spaces of the channels (fixed up to a
    right unitary of N, then gauged against the POVM, every outcome at
    once), and the dressing unitary is solved linearly from the undressed
    resource.  The contract is the round trip: the resource, the POVM and
    the corrections rebuilt from the extracted triple must reproduce the
    scheme's, the channels compared on the basis 1 (x) b / n of Bob from
    the images that the intertwiners were read from, each channel applied
    once.

    The scheme's flags and its level-one tower are reused when they were
    made at ``tol`` (and the tower on ``inc``); otherwise the scheme is
    classified and the tower built afresh.
    """
    tol = tol or DEFAULT_TOL
    inc = inc or scheme.inclusion
    if inc is None or scheme.leg_dims is None:
        raise PreconditionError("extraction needs the tripartite inclusion data")
    n = inc.big.ambient_dim
    if scheme.leg_dims != (n, n, n):
        raise PreconditionError("extraction expects three legs of matching dimension")
    if len(scheme.channels) != scheme.outcomes:
        raise PreconditionError("extraction expects one correction channel per outcome")
    small = inc.small
    flipped = np.swapaxes(small.basis, -1, -2)
    if np.max(small.membership_residual(flipped)) > tol.bound(1.0) * 10:
        raise HypothesisError("N must be transpose-closed (block-adapted position)")
    flag, _ = commutant_trace_is_markov(inc, tol)
    if not flag:
        raise HypothesisError("commutant trace gate fails")
    flags = scheme.flags
    if flags is None or flags.tol != tol:
        flags = classify(scheme, tol)
    if not (flags.tight and flags.minimal and flags.faithful):
        raise PreconditionError("extraction requires a tight, minimal, faithful scheme")

    rep = Report()
    dims = [n, n, n]
    omega = scheme.omega
    omega_small = la.partial_trace(omega, dims, {0}, normalise=True)
    rep.add(
        "resource_has_trivial_first_leg",
        la.frobenius_distance(omega, la.kron(la.eye(n), omega_small)),
        tol.bound(float(np.linalg.norm(omega))),
    )
    z = la.partial_trace(omega_small, [n, n], {0}, normalise=True)
    z = (z + la.dagger(z)) / 2
    centre = small.center
    rep.add("central_slice_in_centre", centre.membership_residual(z), tol.bound(1.0) * 10)
    zvals = np.linalg.eigvalsh(z)
    rep.add_flag("central_slice_invertible", bool(zvals.min() > 1e-8), detail=f"min eig {zvals.min():.2e}")
    rep.add("central_slice_normalised", abs(np.trace(z).real / n - 1.0), tol.bound(1.0) * 10)
    if not rep.passed:
        raise ExtractionError("resource does not have the rigid form")

    nprime = small.commutant
    far = nprime.basis
    e = concrete_jones_projection(small)
    idx = inc.index

    t = scheme.tower
    if t is None or t.inclusion is not inc or t.tol != tol:
        t = basic_construction(inc, tol)
    parts, outside = _far_leg_images(scheme.channels, nprime)
    raw_units = _far_leg_unitaries(far, parts, small.dim, tol)

    # dressing unitary from the undressed resource
    inv_root = np.linalg.inv(la.matrix_sqrt(z, tol))
    dress_inv = la.kron(la.eye(n), inv_root)
    undressed = dress_inv @ omega_small @ dress_inv / idx
    # columns (1 (x) E_ab) undressed - e (1 (x) E_ab) for the matrix units E_ab, a-major
    units = la.kron(la.eye(n), la.eye(n * n).reshape(-1, n, n))
    sols = la.nullspace((units @ undressed - e @ units).reshape(n * n, -1).T, tol)
    mats = [v.reshape(n, n) for v in sols]
    if len(mats) != small.dim:
        raise ExtractionError(f"dressing solution space has dimension {len(mats)}, expected {small.dim}")
    cand = la.generic_invertible(mats, la.rng_from(DEFAULT_SEED + 101))
    if cand is None:
        raise ExtractionError("no invertible dressing solution")
    u = la.dagger(la.polar_unitary(cand))
    rebuilt_small = _tight_resource(inc, e, u, z, tol)
    rep.add(
        "resource_round_trip",
        la.frobenius_distance(rebuilt_small, omega_small),
        tol.bound(float(np.linalg.norm(omega_small))) * 10,
    )

    # gauge-fix the correction unitaries against the POVM, every outcome at once
    ident = la.eye(n)
    povm = np.stack(scheme.povm)
    k = len(povm)
    f_small = np.einsum("kaibi->kab", povm.reshape(k, n * n, n, n * n, n)) / n
    third_legs = la.frobenius_norms(povm - la.kron(f_small, ident))
    for i, (f, gap) in enumerate(zip(povm, third_legs)):
        rep.add(f"povm_{i}_has_trivial_third_leg", float(gap), tol.bound(float(np.linalg.norm(f))))
    lifted_n = la.kron(small.basis, ident)
    h = _entangled_projections(e, raw_units, u)
    systems = lifted_n @ h[:, None] - f_small[:, None] @ lifted_n
    cands = []
    gauges = la.nullspaces(systems.reshape(k, small.dim, -1).transpose(0, 2, 1), tol)
    for i, gauge_vecs in enumerate(gauges):
        gauge_mats = [np.tensordot(v, small.basis, axes=(0, 0)) for v in gauge_vecs]
        cand = la.generic_invertible(gauge_mats, la.rng_from(DEFAULT_SEED + 202 + i))
        if cand is None:
            raise ExtractionError(f"outcome {i}: no invertible gauge element")
        cands.append(cand)
    cands = np.stack(cands)
    vals, vecs = np.linalg.eigh(la.dagger(cands) @ cands)
    inv_half = (vecs / np.sqrt(np.clip(vals, 1e-30, None))[:, None, :]) @ la.dagger(vecs)
    c_u = cands @ inv_half
    for i, resid in enumerate(small.membership_residual(c_u)):
        if resid > tol.bound(1.0) * 100:
            raise ExtractionError(f"outcome {i}: gauge correction left N")
    fixed_units = raw_units @ la.dagger(c_u)

    basis = PimsnerPopaBasis(inc, list(fixed_units))
    basis_rep = verify_basis(t, basis, tol)
    if not (basis_rep.passed and basis.orthonormal and basis.in_normaliser):
        raise ExtractionError("extracted family is not an orthonormal normaliser basis")
    rep.merge(basis_rep, prefix="extracted_basis.")

    # the round trip rebuilds operators only and compares them in the scheme's context
    rep.add(
        "round_trip_resource",
        la.frobenius_distance(la.kron(ident, rebuilt_small), scheme.omega),
        1e-8 * max(1.0, float(np.linalg.norm(scheme.omega))),
    )
    rebuilt_povm = la.kron(_entangled_projections(e, fixed_units, u), ident)
    rep.add("round_trip_povm", float(np.max(la.frobenius_norms(rebuilt_povm - povm))), 1e-8)
    # On Bob's basis 1 (x) b / n, Ad(1 (x) u_i) gives 1 (x) u_i b u_i* / n,
    # and T_i gives (1 (x) r_b + q_b) / n with r_b the partial trace of
    # T_i(1 (x) b) and q_b orthogonal to 1 (x) M_n, so the distance of the
    # two is sqrt(||r_b - u_i b u_i*||^2 + ||q_b||^2 / n^2): a sum of squares,
    # read off the images taken once for the intertwiners.
    moved = fixed_units[:, None] @ far @ la.dagger(fixed_units)[:, None]
    gaps = np.sqrt(la.frobenius_norms(parts - moved) ** 2 + outside / (n * n))
    chan = float(np.max(gaps))
    rep.add("round_trip_channels", chan, 1e-8)
    if not rep.passed:
        raise ExtractionError(
            "round trip failed: " + ", ".join(c.name for c in rep.failures())
        )
    return basis, u, z, rep
