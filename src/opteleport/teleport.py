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
an inclusion.  Every constructor records the inclusion whose tower it builds
on, and :func:`verify_scheme`, :func:`classify` and the extraction judge a
scheme at that inclusion's tolerance, ``TeleportationScheme.tol``.  A
tight scheme on M_n (x) M_n (x) N' is stored by its legs.  The first two
judge it on its legs (:func:`_legs`), on n x n and n^2 x n^2 matrices, when
its pieces are in leg form up to rounding, and every other scheme on its
dense pieces; the extraction reads every scheme on its legs (:func:`_pieces`),
as its own classification read them.  Its dense pieces, and the algebras at
the ambient n^3, their trace and the expectation of its tripartite context
(:func:`_tripartite_context`), are each built on first read
(:class:`_Deferred`), so a verdict on the legs builds none of them.  Shift
pairs are formed in stacked chunks when a dense verdict reads them
(:class:`_ShiftPairs`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import linalg as la
from .algebra import (
    StarAlgebra,
    Superoperator,
    Trace,
    _commutation_gap,
    _corners,
    _frame_distance,
    _generators,
    conditional_expectation_onto,
)
from .bases import PimsnerPopaBasis, _require_normaliser_basis, _weyl_family, weyl_basis
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


class _Deferred:
    """A field built on its first read by ``owner._build(name)`` and kept.
    Setting it calls ``owner._forget(name, value)`` first, so that the owner
    can forget what it derived from the value replaced."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: object | None, owner: type | None = None):
        if obj is None:
            raise AttributeError(self.name)  # a dataclass field without a default
        values = vars(obj)
        if self.name not in values:
            values[self.name] = obj._build(self.name)
        return values[self.name]

    def __set__(self, obj: object, value) -> None:
        obj._forget(self.name, value)
        vars(obj)[self.name] = value


def _expectation(ctx: TeleportationContext) -> Superoperator:
    """The trace-preserving expectation of ``ctx`` onto its teleported algebra."""
    _require_one_ambient(ctx, "ambient", "teleported")
    return conditional_expectation_onto(ctx.teleported, ctx.ambient, ctx.trace)


def _require_one_ambient(ctx: TeleportationContext, *names: str) -> None:
    """Refuse with :class:`PreconditionError` a context whose algebras
    ``names`` do not act on one ambient dimension."""
    if len({getattr(ctx, name).ambient_dim for name in names}) > 1:
        raise PreconditionError(f"the context's {', '.join(names)} must share one ambient dimension")


@dataclass
class TeleportationContext:
    """Tripartite commuting-algebra data a scheme is verified against.

    ``shift_pairs`` is a sequence of pairs (a, shift(a)) over a basis of the
    teleported algebra; the tripartite and the tower contexts form each pair
    when it is read (:class:`_ShiftPairs`).  An attribute missing from a
    context is built on its first read by its maker in ``_makers``
    (:class:`_Deferred`).  A context built from its fields makes only
    ``expectation``, the trace-preserving expectation onto the teleported
    algebra; the tripartite context of an inclusion
    (:func:`_tripartite_context`) makes its algebras and trace too, so a
    scheme judged on its legs builds none of them."""

    ambient: StarAlgebra = _Deferred()
    trace: Trace = _Deferred()
    alice: StarAlgebra = _Deferred()
    bob: StarAlgebra = _Deferred()
    teleported: StarAlgebra = _Deferred()
    mirror: StarAlgebra = _Deferred()
    shift_pairs: Sequence[tuple[np.ndarray, np.ndarray]] = _Deferred()
    expectation = _Deferred()  # not a field: built from the fields
    _makers = {"expectation": _expectation}

    def _build(self, name: str):
        return self._makers[name](self)

    def _forget(self, name: str, value) -> None:
        """Forget the inclusion the context was built for
        (:func:`_on_tripartite_context`) unless ``value`` is already held."""
        values = vars(self)
        if name not in values or values[name] is not value:
            values.pop("_built_for", None)


# basis elements lifted and shifted per stacked call: it bounds the transient
# peak of _ShiftPairs.stacks to the two stacks plus one chunk of each
_SHIFT_CHUNK = 4


class _ShiftPairs(Sequence):
    """The pairs (lift(b), shift(b)) over the basis b of ``algebra``, each
    formed when it is read: a context holds no stack of them.  ``lift`` and
    ``shift`` take stacks, and :meth:`stacks` forms every pair at once."""

    def __init__(self, algebra: StarAlgebra, lift: Callable, shift: Callable) -> None:
        self.algebra, self.lift, self.shift = algebra, lift, shift

    def __len__(self) -> int:
        return self.algebra.dim

    def __getitem__(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        b = self.algebra.basis[i]
        return self.lift(b), self.shift(b)

    def stacks(self) -> tuple[np.ndarray, np.ndarray]:
        """The stacks of every lift(b) and every shift(b), written into two
        preallocated stacks by one stacked lift and one stacked shift per
        chunk of at most ``_SHIFT_CHUNK`` basis elements."""
        basis = self.algebra.basis
        out: list[np.ndarray] = []
        for start in range(0, len(basis), _SHIFT_CHUNK):
            chunk = basis[start : start + _SHIFT_CHUNK]
            parts = self.lift(chunk), self.shift(chunk)
            if not out:
                out = [np.empty((len(basis), *p.shape[1:]), dtype=p.dtype) for p in parts]
            for stack, part in zip(out, parts):
                stack[start : start + len(chunk)] = part
        return out[0], out[1]


def _shift_stacks(pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """The stacks of the a and of the shift(a) over the pairs of a context:
    :meth:`_ShiftPairs.stacks` for the library's contexts, and any other
    sequence of pairs stacked as it is read."""
    if isinstance(pairs, _ShiftPairs):
        return pairs.stacks()
    teleported, shifted = zip(*pairs)
    return np.stack(teleported), np.stack(shifted)


def _dense_piece(name: str, leg: np.ndarray, context: TeleportationContext):
    """The dense piece ``name`` of a tight scheme from its leg stack, as the
    Kronecker product with the identity on the other legs: 1 (x) w, the
    f_i (x) 1 and the conjugations by 1 (x) u_i on the ambient algebra of
    ``context``, the scheme's, which only the channels read."""
    n = leg.shape[-1] if name == "channels" else math.isqrt(leg.shape[-1])
    if name == "omega":
        return la.kron(la.eye(n), leg[0])
    if name == "povm":
        return list(la.kron(leg, la.eye(n)))
    return [Superoperator.conjugation(v, context.ambient) for v in la.kron(la.eye(n * n), leg)]


@dataclass
class TeleportationScheme:
    """A resource ``omega``, a POVM and correction channels in a context.

    A tight scheme on M_n (x) M_n (x) N' is stored by its legs, a leg stack
    per piece in ``_stored``, and builds each dense piece on its first read
    (:class:`_Deferred`, :func:`_dense_piece`).  Reading or setting a piece
    drops its leg, since a caller may change what it was handed, so the
    piece is from then on judged as it stands (:func:`_pieces`)."""

    context: TeleportationContext
    omega: np.ndarray = _Deferred()
    povm: list[np.ndarray] = _Deferred()
    channels: list[Superoperator] = _Deferred()
    inclusion: Inclusion | None = None  # the inclusion whose tower the scheme is built on
    leg_dims: tuple[int, int, int] | None = None  # set for tripartite M_n (x) M_n (x) N' schemes
    tower: Tower | None = field(default=None, repr=False)  # a tight scheme's level-one tower

    @classmethod
    def _from_legs(cls, legs: dict[str, np.ndarray], **values) -> TeleportationScheme:
        """A scheme whose pieces are stored by ``legs``, a leg stack per piece
        name, each built on its first read (:class:`_Deferred`); every other
        field is set by the constructor."""
        scheme = cls(**dict.fromkeys(legs), **values)
        for name in legs:
            del vars(scheme)[name]  # unread, so its first read builds it from the leg
        scheme._stored = dict(legs)
        return scheme

    def _build(self, name: str):
        piece = _dense_piece(name, self._stored[name], self.context)
        self._forget(name, piece)
        return piece

    def _forget(self, name: str, value) -> None:
        # a new dict, not one changed in place: a shallow copy of the scheme keeps its legs
        stored = vars(self).get("_stored", {})
        if name in stored:
            self._stored = {key: leg for key, leg in stored.items() if key != name}

    @property
    def outcomes(self) -> int:
        return _count(self, "povm")

    @property
    def tol(self) -> Tolerance:
        """``inclusion.tol``, or ``DEFAULT_TOL`` for a scheme built without one."""
        return DEFAULT_TOL if self.inclusion is None else self.inclusion.tol


@dataclass
class SchemeFlags:
    tight: bool
    unbiased: bool
    unbiased_value: float | None
    faithful: bool
    minimal: bool
    witness: dict | None = None
    report: Report | None = field(default=None, repr=False)


class _Legs(NamedTuple):
    """A scheme on M_n (x) M_n (x) N' read leg by leg (:func:`_pieces`): each
    piece's HS projection onto its leg form, and its distance to that form.
    The witness fields are None unless every channel has a witness."""

    nprime: StarAlgebra
    resource: np.ndarray  # w = Tr_0(omega) / n, on legs 1 and 2
    povm: np.ndarray  # f_i = Tr_2(F_i) / n, on legs 0 and 1
    units: np.ndarray | None  # u_i = Tr_01(v_i) / n^2 of the witnesses v_i, on leg 2
    resource_gap: float  # ||omega - 1 (x) w||
    povm_gaps: np.ndarray  # ||F_i - f_i (x) 1||
    unit_gaps: np.ndarray | None  # ||v_i - 1 (x) u_i||

    # the leg form is HS-orthogonal to its remainder, and 1 (x) y has norm sqrt(dim 1) ||y||
    @property
    def resource_norm(self) -> float:
        """||omega||, as hypot(sqrt(n) ||w||, r)."""
        return math.hypot(math.sqrt(self.nprime.ambient_dim) * float(np.linalg.norm(self.resource)), self.resource_gap)

    @property
    def povm_norms(self) -> np.ndarray:
        """||F_i||, as hypot(sqrt(n) ||f_i||, r_i)."""
        return np.hypot(math.sqrt(self.nprime.ambient_dim) * la.frobenius_norms(self.povm), self.povm_gaps)

    def within_rounding(self, gaps: float | np.ndarray, norms: float | np.ndarray) -> bool:
        """Whether each remainder is within :func:`la.rounding_bound` of its
        piece's norm at the ambient dimension n^3."""
        return bool(np.all(gaps <= la.rounding_bound(self.nprime.ambient_dim**3, norms)))


def _count(scheme: TeleportationScheme, name: str) -> int:
    """The number of POVM elements or channels of ``scheme``, read without
    building a stored piece."""
    stored = vars(scheme).get("_stored", {})
    return len(stored[name]) if name in stored else len(getattr(scheme, name))


def _pieces(scheme: TeleportationScheme) -> _Legs | None:
    """The legs of a scheme that records an inclusion N ⊆ M_n with
    ``leg_dims == (n, n, n)``, else None: the resource and the POVM always,
    the witnesses v_i when every channel has one.  A piece still stored by
    its leg (:class:`_Deferred`) is that leg with remainder 0.0, the value
    :func:`_split` reads off its Kronecker product; every other piece is
    read by :func:`_split` in O(k n^6), on every call, so a piece that was
    read or replaced is judged as it stands."""
    inc = scheme.inclusion
    if inc is None or scheme.leg_dims != (inc.big.ambient_dim,) * 3:
        return None
    n = inc.big.ambient_dim
    stored = vars(scheme).get("_stored", {})

    def read(name: str, dense: Callable[[], list[np.ndarray]], a: int, b: int, first: bool):
        if name in stored:
            return stored[name], np.zeros(len(stored[name]))
        return _split(dense(), a, b, first)

    w, r = read("omega", lambda: [scheme.omega], n, n * n, False)
    f, rf = read("povm", lambda: scheme.povm, n * n, n, True)
    if "channels" not in stored and any(ch.ad_unitary is None for ch in scheme.channels):
        u, ru = None, None
    else:
        u, ru = read("channels", lambda: [ch.ad_unitary for ch in scheme.channels], n * n, n, False)
    return _Legs(inc.small.commutant, w[0], f, u, float(r[0]), rf, ru)


def _legs(scheme: TeleportationScheme) -> _Legs | None:
    """The legs of a tight tripartite scheme, or None when the scheme must be
    judged on its dense pieces: it is judged on its legs when :func:`_pieces`
    reads it, it is on the tripartite context of its inclusion
    (:func:`_on_tripartite_context`), every channel has a witness v_i, and
    each remainder, of the resource from 1 (x) w, of each POVM element from
    f_i (x) 1 and of each witness from 1 (x) u_i, is rounding only
    (:meth:`_Legs.within_rounding`).  No remainder then widens a residual,
    and a scheme further off is judged on its dense pieces: one verdict each.
    """
    return _read_legs(scheme)[1]


def _read_legs(scheme: TeleportationScheme) -> tuple[_Legs | None, _Legs | None]:
    """What :func:`_pieces` read of ``scheme``, None for a scheme without
    POVM elements or channels, and :func:`_legs`: those legs, or None when
    the scheme is judged on its dense pieces."""
    legs = _pieces(scheme) if _count(scheme, "povm") and _count(scheme, "channels") else None
    if (
        legs is None
        or not _on_tripartite_context(scheme.context, scheme.inclusion)
        or not _witnesses_on_legs(legs)
        or not legs.within_rounding(legs.resource_gap, legs.resource_norm)
        or not legs.within_rounding(legs.povm_gaps, legs.povm_norms)
    ):
        return legs, None
    return legs, legs


def _witnesses_on_legs(legs: _Legs) -> bool:
    """Whether every channel has a witness v_i equal to 1 (x) u_i up to
    rounding, at the scale ||1 (x) u_i|| = n ||u_i||."""
    n = legs.nprime.ambient_dim
    return legs.units is not None and legs.within_rounding(legs.unit_gaps, n * la.frobenius_norms(legs.units))


def _split(xs: np.ndarray | list[np.ndarray], a: int, b: int, first: bool) -> tuple[np.ndarray, np.ndarray]:
    """Each matrix x of the stack ``xs`` on C^a (x) C^b split into its leg y,
    with y (x) 1 the HS projection of x onto M_a (x) 1 when ``first`` and
    1 (x) y that onto 1 (x) M_b otherwise, and the Frobenius norm of the
    remainder, x minus that projection.  The leg is the mean of the diagonal
    blocks, a normalised partial trace, taken as the first block plus the
    mean offset from it: equal blocks average to themselves exactly, so a
    piece built as a Kronecker product reads back with remainder exactly 0.
    The remainder is formed in one copy of the stack, the leg subtracted in
    place through a writable diagonal view, so no Kronecker product or
    difference stack is formed."""
    x = np.array(xs, dtype=complex)
    blocks = np.einsum("kicjc->ckij" if first else "kicid->ikcd", x.reshape(-1, a, b, a, b))
    leg = blocks[0] + np.mean(blocks - blocks[0], axis=0)
    blocks -= leg
    return leg, la.frobenius_norms(x)


def _on_tripartite_context(ctx: TeleportationContext, inc: Inclusion | None) -> bool:
    """Whether ``ctx`` is the context :func:`_tripartite_context` built for
    ``inc``, with none of its attributes replaced since, its expectation
    among them: the legs read the algebras, the trace and the expectation of
    that context in closed form.  An attribute that was only built on its
    first read keeps the context (:meth:`TeleportationContext._forget`), and
    no attribute is read here."""
    built = vars(ctx).get("_built_for")
    return built is not None and built is inc


def _algebra_dim(ctx: TeleportationContext, name: str, legs: _Legs | None) -> int:
    """The dimension of the algebra ``name`` of ``ctx``, for a scheme judged
    on ``legs`` read off them so that no algebra of the context is built:
    n^4 for Alice, M_n (x) M_n (x) 1, and dim N' for Bob and the teleported
    algebra."""
    if legs is None:
        return getattr(ctx, name).dim
    return legs.nprime.ambient_dim**4 if name == "alice" else legs.nprime.dim


def verify_scheme(scheme: TeleportationScheme, strict: bool = True) -> Report:
    """Structural checks plus the teleportation identity residual, at ``scheme.tol``.

    Structural clauses (POVM, densities, UCP, bimodularity, invariance)
    raise :class:`SchemeError` naming the clause when ``strict``; the
    identity residual itself is always only reported.  Each channel maps
    Bob's basis once; ``channels_preserve_bob`` and the identity both read
    those images, so a shifted element s outside Bob (beyond
    ``tol.bound(||s||)``) is refused with :class:`PreconditionError` before
    any channel runs.  Memberships in Alice are read in frame coordinates.

    Every clause is exact; nothing is sampled, so the report does not
    depend on any seed.  Bimodularity over Alice is read off each channel's
    Kraus range (:func:`_bimodule_residual`): a unital CP map is an
    Alice-bimodule map exactly when its Kraus operators lie in Alice' (Choi
    1975).  ``resource_commutes_with_teleported`` is the distance of the
    resource to the commutant of the teleported algebra.  The one-way LOCC
    form of the total operation follows from the verified structure and is
    recorded as implied rather than re-checked.  ``alice_bob_commute`` reads
    the distance to Alice' of the column units that generate Bob
    (:func:`~opteleport.algebra._commutation_gap`); on the legs it is
    structural, 0.0, since Alice and Bob of the tripartite context act on
    different legs (:func:`_on_tripartite_context`).  When Alice and Bob do
    not commute, ``strict`` raises at once and otherwise the bimodule check
    is recorded as failed with an infinite residual.  A failed bimodule
    check is excused only when Bob has several central projections, all in
    Alice, and every channel normalises Alice (:func:`_normalising_residual`).

    A tight scheme on M_n (x) M_n (x) N' whose pieces are in leg form
    (1 (x) w, f_i (x) 1, Ad(1 (x) u_i)) up to rounding is judged on its legs
    (:func:`_legs`, :func:`_leg_residuals`), with no product of n^3 x n^3
    matrices.  The legs are read on every call, so a piece that was read or
    replaced is judged as it stands.  Every other scheme is judged on its
    dense pieces (:func:`_dense_residuals`).
    """
    tol = scheme.tol
    ctx = scheme.context
    legs = _legs(scheme)
    # on the legs the context is the tripartite one, whose shifted elements 1 (x) 1 (x) b lie in Bob
    if legs is None:
        _require_one_ambient(ctx, "ambient", "alice", "bob", "teleported")
        teleported, shifted = _shift_stacks(ctx.shift_pairs)
        if np.any(ctx.bob.membership_residual(shifted) > tol.bound(la.frobenius_norms(shifted))):
            raise PreconditionError("the shifted elements must lie in Bob's algebra")
    rep = Report()
    gap = _commutation_gap(ctx.alice, ctx.bob) if legs is None else 0.0
    commute = rep.add("alice_bob_commute", gap, tol.bound(1.0) * 10)
    if strict and not commute.passed:
        raise SchemeError(f"structural clause failed: alice_bob_commute ({commute.residual:.2e})")

    if legs is None:
        res = _dense_residuals(scheme, teleported, shifted, commute.passed)
    else:
        res = _leg_residuals(legs)
    norm = _resource_norm(scheme, legs)
    for name, threshold in (
        ("povm_sums_to_identity", tol.bound(1.0) * max(1, scheme.outcomes)),
        ("povm_positive", tol.bound(1.0)),
        ("povm_in_alice_algebra", tol.bound(1.0) * _algebra_dim(ctx, "alice", legs)),
        ("resource_positive", tol.bound(norm)),
        ("resource_normalised", tol.bound(1.0)),
        ("resource_commutes_with_teleported", tol.bound(norm) * 10),
        ("channels_completely_positive", tol.bound(1.0)),
        ("channels_unital", tol.bound(1.0)),
    ):
        rep.add(name, res[name], threshold)

    bimod = res["bimodule"]
    if not commute.passed:
        # the clause is stated for commuting Alice and Bob only
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
        shared = float(np.max(_frame_distance(ctx.alice, np.stack(ctx.bob.central_projections))))
        normalising = max(_normalising_residual(ctx.alice, ch) for ch in scheme.channels)
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
    rep.add("channels_preserve_bob", res["channels_preserve_bob"], tol.bound(1.0) * _algebra_dim(ctx, "bob", legs))
    rep.add_flag("one_way_locc", True, detail="implied by POVM/bimodule/invariance structure")

    if strict:
        for check in rep.failures():
            raise SchemeError(f"structural clause failed: {check.name} ({check.residual:.2e})")

    rep.add("teleportation_identity", res["teleportation_identity"], tol.bound(1.0) * max(1, scheme.outcomes))
    return rep


def _resource_norm(scheme: TeleportationScheme, legs: _Legs | None) -> float:
    """||omega||, read off the legs when the scheme is judged on them."""
    return float(np.linalg.norm(scheme.omega)) if legs is None else legs.resource_norm


def _dense_residuals(
    scheme: TeleportationScheme, teleported: np.ndarray, shifted: np.ndarray, commute: bool
) -> dict[str, float]:
    """The residuals of :func:`verify_scheme` read off the dense pieces, by
    check name, with the raw bimodule residual under ``bimodule`` (infinite
    unless Alice and Bob ``commute``); ``teleported`` and ``shifted`` stack
    the shift pairs, and the shifted elements lie in Bob."""
    ctx = scheme.context
    dim = ctx.ambient.ambient_dim
    povm, omega = np.stack(scheme.povm), scheme.omega
    res = {"povm_sums_to_identity": la.frobenius_distance(sum(povm), la.eye(dim))}
    vals = np.linalg.eigvalsh((povm + la.dagger(povm)) / 2)
    res["povm_positive"] = max(
        float(np.max(la.frobenius_norms(povm - la.dagger(povm)))), max(0.0, -float(vals.min()))
    )
    res["povm_in_alice_algebra"] = float(np.max(_frame_distance(ctx.alice, povm)))
    vals = np.linalg.eigvalsh((omega + la.dagger(omega)) / 2)
    res["resource_positive"] = la.frobenius_distance(omega, la.dagger(omega)) + max(0.0, -float(vals.min()))
    res["resource_normalised"] = abs(ctx.trace(omega) - 1.0)
    res["resource_commutes_with_teleported"] = _frame_distance(ctx.teleported, omega, commutant=True)

    ucp = unital = 0.0
    for ch in scheme.channels:
        ucp = max(ucp, ch.cp_residual())
        unital = max(unital, la.frobenius_distance(ch(la.eye(dim)), la.eye(dim)))
    res["channels_completely_positive"], res["channels_unital"] = ucp, unital
    res["bimodule"] = _bimodule_residual(ctx.alice, scheme.channels) if commute else float("inf")

    # T_i(s) is read off the images of Bob's basis at the coordinates of s
    bob, coords = ctx.bob.basis, ctx.bob.coords(shifted)
    total = np.zeros(shifted.shape, dtype=complex)
    preserve = 0.0
    for i, ch in enumerate(scheme.channels):
        images = ch(bob)
        preserve = max(preserve, float(np.max(ctx.bob.membership_residual(images))))
        if i < scheme.outcomes:
            moved = (coords @ images.reshape(len(bob), -1)).reshape(shifted.shape)
            total += scheme.povm[i] @ moved @ omega
    res["channels_preserve_bob"] = preserve
    got = ctx.expectation(total)
    res["teleportation_identity"] = max(la.frobenius_distance(g, a) for g, a in zip(got, teleported))
    return res


def _leg_residuals(legs: _Legs) -> dict[str, float]:
    """The residuals of :func:`verify_scheme` read off the legs, laid out as
    by :func:`_dense_residuals`.

    An n^2 or n leg identity contributes the factor sqrt(n) or n to a norm.
    ``povm_in_alice_algebra``, the distance of the resource to the
    teleported commutant and the bimodule residual are the remainders
    themselves, since f_i (x) 1 lies in Alice, 1 (x) w in
    (N' (x) 1 (x) 1)' and 1 (x) u_i in Alice'.  The identity is
    sum_i Tr_12((f_i (x) 1)(1 (x) 1 (x) u_i b u_i*)(1 (x) w)) / n^2 over the
    basis b of N', projected onto N' (the expectation of the normalised
    trace), as one einsum.
    """
    nprime, f, w, u = legs.nprime, legs.povm, legs.resource, legs.units
    n = nprime.ambient_dim
    root = math.sqrt(n)

    def lowest(x: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh((x + la.dagger(x)) / 2).min(axis=-1)

    res = {"povm_sums_to_identity": root * la.frobenius_distance(f.sum(axis=0), la.eye(n * n))}
    res["povm_positive"] = max(
        float(np.max(root * la.frobenius_norms(f - la.dagger(f)))), max(0.0, -float(np.min(lowest(f))))
    )
    res["povm_in_alice_algebra"] = float(np.max(legs.povm_gaps))
    res["resource_positive"] = root * la.frobenius_distance(w, la.dagger(w)) + max(0.0, -float(lowest(w)))
    res["resource_normalised"] = abs(np.trace(w) / (n * n) - 1.0)
    res["resource_commutes_with_teleported"] = legs.resource_gap

    eye = la.eye(n)
    res["channels_completely_positive"] = float(np.max(n * la.frobenius_norms(la.dagger(u) @ u - eye)))
    res["channels_unital"] = float(np.max(n * la.frobenius_norms(u @ la.dagger(u) - eye)))
    res["bimodule"] = float(np.max(legs.unit_gaps))

    # Bob's basis is 1 (x) b / n over the basis b of N'
    bs = nprime.basis
    moved = u[:, None] @ bs @ la.dagger(u)[:, None]
    res["channels_preserve_bob"] = float(np.max(nprime.membership_residual(moved)))

    k = min(len(f), len(u))
    y = np.einsum(
        "iapxq,ibcd,qdpc->bax", f[:k].reshape(k, n, n, n, n), moved[:k], w.reshape(n, n, n, n), optimize=True
    ) / (n * n)
    res["teleportation_identity"] = float(np.max(n * la.frobenius_norms(nprime.project(y) - bs)))
    return res


def _normalising_residual(alice: StarAlgebra, ch: Superoperator) -> float:
    """How far ``ch`` maps Alice out of Alice.  Ad v, a *-automorphism, maps
    Alice into Alice exactly when it maps her column units f_a0 there
    (:func:`_generators`), so a channel with a witness is tested on them,
    others on Alice's basis; each distance is divided by its unit's norm."""
    units = alice.basis if ch.ad_unitary is None else _generators(alice)
    return float(np.max(_frame_distance(alice, ch(units)) / la.frobenius_norms(units)))


def _bimodule_residual(alice: StarAlgebra, channels: list[Superoperator]) -> float:
    """The largest distance to Alice' of a channel's Kraus range, read for
    every channel in Alice's frame coordinates as one stack: dist(v, Alice')
    for Ad v, else ||(1 - P_Alice') C||_F / sqrt(n) on the columns of the
    Choi matrix C that ``cp_residual`` has built.  On a full ambient the two
    agree for the rank-one Choi matrix of Ad v; each is zero exactly when
    the Kraus operators lie in Alice'; 0 for no channel."""
    if not channels:
        return 0.0
    n = alice.ambient_dim
    # the Choi column (j, b) is the operator C[(i, a), (j, b)] indexed [a, i]
    ranges = [
        ch.ad_unitary[None] if ch.ad_unitary is not None
        else np.swapaxes(ch.choi.T.reshape(-1, n, n), -1, -2) / np.sqrt(n)
        for ch in channels
    ]
    gaps = _frame_distance(alice, np.concatenate(ranges), commutant=True)
    ends = np.cumsum([len(r) for r in ranges])[:-1]
    return max(float(np.linalg.norm(g)) for g in np.split(gaps, ends))


def classify(scheme: TeleportationScheme) -> SchemeFlags:
    """Tightness, unbiasedness, faithfulness and minimality flags, at ``scheme.tol``.

    Works through g_i = E(omega F_i): by traciality and the bimodule
    property, tr(F_i rho omega) = tr(rho g_i) for every density rho in the
    teleported algebra, so "for all densities" becomes one operator test
    per outcome.  ``density_reduction_cross_check`` re-checks the reduction
    on every density at once, from rows written with cyclicity alone
    (:func:`_cross_check_rows`, :func:`_density_bound`); nothing is
    sampled, so the flags do not depend on any seed.  The
    non-faithfulness witness is the first outcome whose lowest eigenvalue
    is within ``tol.abs`` of the minimum.

    A scheme that :func:`verify_scheme` judges on its legs is classified on
    them too (:func:`_leg_flag_residuals`): g_i, both minimality distances
    and the cross-check rows are read on n x n or n^2 x n^2 matrices.  Every
    other scheme is classified on its dense pieces
    (:func:`_dense_flag_residuals`).
    """
    return _classify(scheme)[0]


def _classify(scheme: TeleportationScheme) -> tuple[SchemeFlags, _Legs | None]:
    """:func:`classify`, and what :func:`_pieces` read of the scheme for it
    (:func:`_read_legs`), which the extraction reads again."""
    tol = scheme.tol
    rep = Report()
    d = scheme.outcomes
    pieces, legs = _read_legs(scheme)
    dim = _algebra_dim(scheme.context, "teleported", legs)
    tight = dim == d
    rep.add_flag("tight", True, detail=f"outcomes {d}, dim {dim}, flag {tight}")

    read = _dense_flag_residuals(scheme) if legs is None else _leg_flag_residuals(legs)
    unb_res, lows, minimal_omega, minimal_povm, (alg, rows) = read
    unbiased = unb_res <= tol.bound(1.0) * 10
    rep.add_flag("unbiased", True, detail=f"residual {unb_res:.2e}, flag {unbiased}")

    lows = [float(low) for low in lows]
    faithful = min(lows) > tol.abs
    witness = None
    if not unbiased:
        # the most starved outcome, the first of those within tol.abs of the
        # minimum so that rounding cannot pick among ties; a zero here
        # exhibits a density the outcome can never see
        i = next(i for i, low in enumerate(lows) if low <= min(lows) + tol.abs)
        witness = {"outcome": i, "probability": lows[i]}
    rep.add_flag("faithful", True, detail=f"flag {faithful}")

    minimal = minimal_omega <= tol.bound(_resource_norm(scheme, legs)) * 10 and minimal_povm <= tol.bound(1.0) * 10
    rep.add_flag(
        "minimal",
        True,
        detail=f"omega residual {minimal_omega:.2e}, povm residual {minimal_povm:.2e}, flag {minimal}",
    )

    # independent cross-check of the reduction, over every density at once
    lhs_rows, rhs_rows, norm_row = rows
    gaps = [lhs_rows - rhs_rows] + ([lhs_rows - norm_row / d] if unbiased else [])
    cross = _density_bound(alg, np.concatenate(gaps), norm_row)
    rep.add("density_reduction_cross_check", cross, tol.bound(1.0) * 100)

    flags = SchemeFlags(
        tight=tight,
        unbiased=unbiased,
        unbiased_value=1.0 / d if unbiased else None,
        faithful=faithful,
        minimal=minimal,
        witness=witness,
        report=rep,
    )
    return flags, pieces


def _dense_flag_residuals(scheme: TeleportationScheme) -> tuple:
    """What :func:`classify` reads, off the dense pieces: the unbiasedness
    residual max_i ||g_i - 1/d||, the lowest eigenvalue of each g_i, the
    distances of the resource to Mirror v Bob and of the POVM to
    Teleported v Mirror (both in frame coordinates, no dense basis of a
    joint algebra), and the cross-check as (algebra, rows)."""
    tol, ctx = scheme.tol, scheme.context
    _require_one_ambient(ctx, "ambient", "bob", "teleported", "mirror")
    povm = np.stack(scheme.povm)
    gs = ctx.expectation(scheme.omega @ povm)
    unb_res = float(np.max(la.frobenius_norms(gs - ctx.teleported.unit / scheme.outcomes)))
    lows = np.linalg.eigvalsh((gs + la.dagger(gs)) / 2).min(axis=-1)
    mirror_bob = StarAlgebra.commuting_product(ctx.mirror, ctx.bob, tol)
    minimal_omega = _frame_distance(mirror_bob, scheme.omega)
    pair = StarAlgebra.commuting_product(ctx.teleported, ctx.mirror, tol)
    minimal_povm = float(np.max(_frame_distance(pair, povm)))
    return unb_res, lows, minimal_omega, minimal_povm, (ctx.teleported, _cross_check_rows(scheme, gs))


def _leg_flag_residuals(legs: _Legs) -> tuple:
    """What :func:`classify` reads, laid out as by :func:`_dense_flag_residuals`,
    off the legs.  On the legs Tr_12(omega F_i) / n^2 is
    h_i = Tr_1((1 (x) z) f_i) / n^2 with z = Tr_2(w), and
    E(omega F_i) = P_N'(h_i) (x) 1 (x) 1, P_N' the HS projection.
    Mirror v Bob is 1 (x) N' (x) N' and Teleported v Mirror is
    N' (x) N' (x) 1.  The cross-check rows are those of
    :func:`_cross_check_rows` on N', whose corners are the teleported
    algebra's."""
    nprime, f, w = legs.nprime, legs.povm, legs.resource
    n, d = nprime.ambient_dim, len(f)
    z = np.einsum("icjc->ij", w.reshape(n, n, n, n))
    h = np.einsum("iaqxp,pq->iax", f.reshape(-1, n, n, n, n), z) / (n * n)
    gs = nprime.project(h)
    unb_res = float(np.max(n * la.frobenius_norms(gs - la.eye(n) / d)))
    lows = np.linalg.eigvalsh((gs + la.dagger(gs)) / 2).min(axis=-1)
    pair, root = StarAlgebra.tensor(nprime, nprime), math.sqrt(n)
    minimal_omega = root * _frame_distance(pair, w)
    minimal_povm = float(np.max(root * _frame_distance(pair, f)))
    rows = _corner_rows(nprime, np.concatenate([h, gs, la.eye(n)[None]]) / n, d)
    return unb_res, lows, minimal_omega, minimal_povm, (nprime, rows)


def _cross_check_rows(
    scheme: TeleportationScheme, gs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows whose products with the corners of rho list tau(F_i rho omega),
    tau(rho g_i) and tau(rho), for rho in the teleported algebra.

    Only cyclicity of Tr and the block form rho = sum_j W_j (c_j (x) 1) W_j*
    are used, not the reduction under test: with D the trace density,
    tau(F rho omega) = Tr((omega D F) rho), tau(rho g) = Tr((g D) rho) and
    tau(rho) = Tr(D rho), and Tr(X rho) = sum_j m_j <Xbar_j^T, c_j>
    entrywise, Xbar_j the corners of X (:func:`_corner_rows`).
    """
    ctx = scheme.context
    density = ctx.trace.density
    xs = np.stack(
        [scheme.omega @ density @ f for f in scheme.povm] + list(gs @ density) + [density]
    )
    return _corner_rows(ctx.teleported, xs, scheme.outcomes)


def _corner_rows(alg: StarAlgebra, xs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per matrix X of ``xs`` the row m_j Xbar_j^T over the blocks j of ``alg``,
    Xbar_j its corners, each raveled row-major and concatenated block by
    block; split as the first k rows, the next k and the last."""
    rows = np.concatenate(
        [
            m * np.swapaxes(c, -1, -2).reshape(len(xs), -1)
            for (_, m), c in zip(alg.blocks, _corners(alg, xs))
        ],
        axis=1,
    )
    return rows[:k], rows[k : 2 * k], rows[2 * k]


def _density_bound(alg: StarAlgebra, rows: np.ndarray, norm_row: np.ndarray) -> float:
    """The largest |row . c| over the rows and the densities of ``alg``, rows
    laid out as by :func:`_cross_check_rows`.  On block j a row holds
    m_j Dbar_j^T and ``norm_row`` m_j t_j 1 (the trace density is central),
    and sum_j m_j t_j Tr(c_j) = 1 with c_j >= 0, so the largest value is
    max_j ||Dbar_j||_2 / t_j (attained for Hermitian Dbar_j), zero exactly
    when every row vanishes."""
    worst, start = 0.0, 0
    for d, _ in alg.blocks:
        norms = np.linalg.norm(rows[:, start : start + d * d].reshape(-1, d, d), ord=2, axis=(-2, -1))
        worst = max(worst, float(np.max(norms)) / norm_row[start].real)
        start += d * d
    return worst


# ---------------------------------------------------------------------------
# Constructor 1: the tensor-picture scheme for M_n, the tight scheme of C ⊆ M_n.
# ---------------------------------------------------------------------------


def standard_scheme(n: int, basis: PimsnerPopaBasis | None = None) -> TeleportationScheme:
    """Teleportation of M_n across M_n (x) M_n (x) M_n from a unitary basis.

    ``basis`` defaults to the clock-and-shift family; it must be a unitary
    orthonormal basis of M_n over the scalars, which completeness forces to
    have n^2 elements.  This is Werner's tensor-picture scheme: the tight
    scheme of C ⊆ M_n with u = z = 1, built on the tower that verifies the
    basis (:func:`bases._require_normaliser_basis`), at the tolerance of
    ``basis.inclusion``.  The commutant-trace gate holds there by its own
    formula, 1 * n^2 = n * n.
    """
    if basis is None:
        basis = weyl_basis(n)
    inc = basis.inclusion
    if not (inc.small.dim == 1 and inc.big.ambient_dim == n and inc.big.dim == n * n):
        raise PreconditionError("standard scheme needs a basis of M_n over the scalars")
    return _tight_scheme(basic_construction(inc), basis, None, None)


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
    return TeleportationContext(
        ambient=t.level2,
        trace=t.trace2,
        alice=t.m1_rep,
        bob=t.mirror2,
        teleported=teleported,
        mirror=mirror,
        shift_pairs=_ShiftPairs(t.rel_comm, lift, t.shift),
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
    conjugate by the shifted block unitaries.  ``tol`` is the tolerance of
    that inclusion, which the scheme records, and so of its tower and of
    every verdict on the scheme.
    """
    inc = markov_inclusion(StarAlgebra.trivial(m.ambient_dim), m, tol)
    t = iterate(basic_construction(inc))
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
    return TeleportationScheme(ctx, omega, povm, channels, inclusion=inc)


# ---------------------------------------------------------------------------
# Constructor 3: the unbiased scheme from a unitary normaliser basis.
# ---------------------------------------------------------------------------


def _periodicity(
    t: Tower, basis: PimsnerPopaBasis
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """The periodicity map phi: M_d(M) -> M2 of ``basis``, which passes
    :func:`bases._require_normaliser_basis` on ``t``, as heads_a = pi(u_a)* e1
    and lift(y) = [M:N] sum_b pi1(y_b) e2 pi1(e1 pi(u_b)): pi1 is multiplicative,
    so phi(x) = lift(y) with y_b = sum_a heads_a pi(x_ab).  With e2 = P P*, lift
    is one (D1, d r) @ (d r, D1) product of :meth:`GnsSpace.act` stacks on P."""
    _require_normaliser_basis(t, basis)
    iterate(t)
    heads = la.dagger(t.gns.left(np.stack(basis.elements))) @ t.jones1
    gns1, p = t.gns1, t.levels[2].jones_range

    def ranged(y: np.ndarray) -> np.ndarray:
        return gns1.act(y, p).transpose(1, 0, 2).reshape(gns1.dim, -1)

    right = la.dagger(ranged(heads))
    return heads, lambda y: t.index * ranged(y) @ right


def correction_unitaries(t: Tower, basis: PimsnerPopaBasis) -> tuple[list[np.ndarray], Report]:
    """Unitaries v_i in M2 implementing shift(u_i x u_i*) = v_i shift(x) v_i*.

    v_i is the periodicity map (:func:`_periodicity`) of the diagonal block
    matrix u_i (x) 1_d; its multiplicativity and unitality are re-verified
    as part of the report, at ``t.tol``, on random arguments drawn from a
    fixed internal seed, so the report does not depend on any global seed.
    The basis must pass :func:`bases._require_normaliser_basis` on ``t``.
    """
    tol = t.tol
    heads, lift = _periodicity(t, basis)
    us = np.array(basis.elements)
    pi = t.gns.left
    vs = [lift(heads @ u) for u in pi(us)]
    d = basis.size

    def phi(blockmat: np.ndarray) -> np.ndarray:
        return lift(np.einsum("aij,abjk->bik", heads, pi(blockmat)))

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
    # Ad v_i o shift and shift o Ad u_i are *-homomorphisms, so they agree once they
    # agree on the column units of N' ∩ M, shifted once and conjugated one u_i at a time
    rc = _generators(t.rel_comm)
    shifted = t.shift(rc)
    rep.add(
        "corrections_conjugate_shift",
        max(
            float(la.frobenius_norms(v @ shifted @ la.dagger(v) - t.shift(u @ rc @ la.dagger(u))).max())
            for u, v in zip(us, vs)
        ),
        tol.bound(1.0) * d,
    )
    rng = la.rng_from(DEFAULT_SEED)
    n = t.inclusion.big.ambient_dim
    xs, ys = (t.inclusion.big.random_hermitian(rng, d * d).reshape(d, d, n, n) for _ in range(2))
    prod = np.einsum("acij,cbjk->abik", xs, ys)
    phi_x, phi_y = phi(xs), phi(ys)
    rep.add(
        "periodicity_map_multiplicative",
        la.frobenius_distance(phi_x @ phi_y, phi(prod)),
        tol.bound(float(np.linalg.norm(phi_x) * np.linalg.norm(phi_y))) * 10,
    )
    rep.add(
        "periodicity_map_unital",
        la.frobenius_distance(lift(heads), la.eye(t.gns1.dim)),
        tol.bound(1.0) * d,
    )
    return vs, rep


def unbiased_scheme(t: Tower, basis: PimsnerPopaBasis) -> TeleportationScheme:
    """Unbiased scheme for N' ∩ M relative to M1 and M1' ∩ M2.

    The resource is [M:N] e_M, the POVM is the projection family
    {u_i* e_N u_i} lifted to level two, and the corrections conjugate by
    the v_i = phi(u_i (x) 1) of :func:`correction_unitaries`; Alice's
    outcome distribution is uniform for every input density.

    The corrections normalise Alice's algebra, but when it shares central
    projections with Bob's (e.g. the diagonals inside M_n) no correction
    can fix Alice pointwise; :func:`verify_scheme` certifies the attainable
    locality and records the obstruction.

    The construction takes no tolerance; the scheme records ``t.inclusion``
    and is judged at ``t.tol``.  The basis must pass
    :func:`bases._require_normaliser_basis` on ``t``.
    """
    heads, lift = _periodicity(t, basis)
    ctx = _tower_context(t)
    omega = t.index * t.jones2
    reps = t.gns.left(np.stack(basis.elements))
    povm = list(t.gns1.left(heads @ reps))
    channels = [Superoperator.conjugation(lift(heads @ r), ctx.ambient) for r in reps]
    return TeleportationScheme(ctx, omega, povm, channels, inclusion=t.inclusion)


# ---------------------------------------------------------------------------
# Rigidity: tight schemes on M_n (x) M_n (x) N' and their extraction.
# ---------------------------------------------------------------------------


def commutant_trace_is_markov(inc: Inclusion) -> tuple[bool, Report]:
    """Whether tau_n restricted to N' is the Markov trace of scalars ⊆ N'.

    Holds exactly when n_j / m_j = n / dim N' for every block of N; when it
    does, both normalised one-leg partial traces of the Jones projection
    equal 1/[M_n : N], which is re-checked numerically at ``inc.tol``.
    """
    tol = inc.tol
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


def _commutant_trace_flag(inc: Inclusion) -> bool:
    """The flag of :func:`commutant_trace_is_markov`, which depends on the
    inclusion alone, so it is kept on the inclusion, as its index is."""
    if "_commutant_trace_markov" not in vars(inc):
        inc._commutant_trace_markov = commutant_trace_is_markov(inc)[0]
    return inc._commutant_trace_markov


def _tripartite_context(inc: Inclusion) -> TeleportationContext:
    """The context of the tight schemes of ``inc`` on M_n (x) M_n (x) N'.  It
    builds the ambient algebra M_n (x) M_n (x) N', its normalised trace,
    Alice M_n (x) M_n (x) 1, Bob 1 (x) 1 (x) N', the teleported algebra
    N' (x) 1 (x) 1, the mirror 1 (x) N' (x) 1 and the expectation onto the
    teleported algebra each on its first read, all at the ambient n^3, and
    forms its shift pairs when they are read (:class:`_ShiftPairs`).  A
    scheme judged on its legs reads none of them.  The context records the
    inclusion, which :func:`_on_tripartite_context` reads."""
    n = inc.big.ambient_dim
    nprime = inc.small.commutant
    full, triv = StarAlgebra.full(n), StarAlgebra.trivial(n)
    one = la.eye(n)
    makers = {
        "ambient": lambda ctx: StarAlgebra.tensor(full, full, nprime),
        "trace": lambda ctx: Trace.normalized(ctx.ambient),
        "alice": lambda ctx: StarAlgebra.tensor(full, full, triv),
        "bob": lambda ctx: StarAlgebra.tensor(triv, triv, nprime),
        "teleported": lambda ctx: StarAlgebra.tensor(nprime, triv, triv),
        "mirror": lambda ctx: StarAlgebra.tensor(triv, nprime, triv),
        "expectation": _expectation,
    }
    pairs = _ShiftPairs(nprime, lambda b: la.kron(b, one, one), lambda b: la.kron(one, one, b))
    ctx = TeleportationContext.__new__(TeleportationContext)
    vars(ctx).update(_makers=makers, shift_pairs=pairs, _built_for=inc)
    return ctx


def tight_scheme_from_basis(
    inc: Inclusion,
    basis: PimsnerPopaBasis,
    u: np.ndarray | None = None,
    z: np.ndarray | None = None,
) -> TeleportationScheme:
    """Tight scheme for N' on M_n (x) M_n (x) N' from (basis, u, z) data.

    ``basis`` must be a unitary orthonormal normaliser basis of M_n over N
    that passes :func:`bases._require_normaliser_basis` on the tower of
    ``inc``, ``u`` a normaliser unitary and ``z`` a positive invertible
    central element of N with tau(z) = 1.  The commutant-trace gate must
    pass.  Every check runs at ``inc.tol``.
    """
    if not _commutant_trace_flag(inc):
        raise HypothesisError("tau restricted to N' is not the Markov trace of C ⊆ N'")
    return _tight_scheme(basic_construction(inc), basis, u, z)


def _tight_scheme(
    t: Tower, basis: PimsnerPopaBasis, u: np.ndarray | None, z: np.ndarray | None
) -> TeleportationScheme:
    """:func:`tight_scheme_from_basis` on the level-one tower of an inclusion
    that has passed the commutant-trace gate.  The scheme keeps the tower,
    which :func:`extract_tight_scheme` reuses, and is stored by its legs
    (:class:`_Deferred`): w, the f_i and the basis elements u_i."""
    inc, tol = t.inclusion, t.tol
    n = inc.big.ambient_dim
    _require_normaliser_basis(t, basis)
    # the identity normalises every N, so only a given u is tested
    if u is not None and not normalizer_check(t, u):
        raise PreconditionError("u must normalise N")
    u = la.eye(n) if u is None else np.asarray(u, dtype=complex)
    z = la.eye(n) if z is None else np.asarray(z, dtype=complex)
    if inc.small.center.membership_residual(z) > tol.bound(float(np.linalg.norm(z))) * 10:
        raise PreconditionError("z must be central in N")
    zvals = np.linalg.eigvalsh((z + la.dagger(z)) / 2)
    if zvals.min() <= tol.abs or abs(inc.trace(z) - 1.0) > tol.bound(1.0):
        raise PreconditionError("z must be positive invertible with tau(z) = 1")

    e = concrete_jones_projection(inc.small)
    elements = np.stack(basis.elements)
    legs = {
        "omega": _tight_resource(inc, e, u, z)[None],
        "povm": _entangled_projections(e, elements, u),
        "channels": elements,
    }
    return TeleportationScheme._from_legs(
        legs, context=_tripartite_context(inc), inclusion=inc, leg_dims=(n, n, n), tower=t
    )


def _tight_resource(inc: Inclusion, e: np.ndarray, u: np.ndarray, z: np.ndarray) -> np.ndarray:
    """[M_n : N] d e d* with d = 1 (x) sqrt(z) u: the resource of the tight
    scheme on its last two legs, for e the concrete Jones projection of N."""
    dress = la.kron(la.eye(len(u)), la.matrix_sqrt(z, inc.tol) @ u)
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
    once as one stacked call and split (:func:`_split`) into the n x n legs
    r_a, 1 (x) r_a the HS projection of T(1 (x) a) onto 1 (x) M_n, and the
    norms of what that projection leaves out.  No stack of full images
    outlives its channel; the parts are stacked over channels,
    (k, dim N', n, n) and (k, dim N')."""
    n = nprime.ambient_dim
    lifted = la.kron(la.eye(n * n), nprime.basis)
    parts, outside = zip(*(_split(ch(lifted), n * n, n, first=False) for ch in channels))
    return np.stack(parts), np.stack(outside)


def _leg_unitaries(p: np.ndarray, bs: np.ndarray, names: list[str], dim: int, tol: Tolerance) -> np.ndarray:
    """Per projection b of the stack ``bs``, the polar part of a generic
    invertible X with (X (x) 1) e = b (X (x) 1) on C^n (x) C^n, for e the
    Jones projection of N and p the isometry onto its range (:func:`_ranges`).

    Omega = vec(1) / sqrt(n) lies in the range of e, so a solution has
    vec(X) = sqrt(n) b (X (x) 1) Omega in the range of b: the candidates are
    the r columns of an isometry Q onto that range (:func:`_ranges`), read
    as n x n matrices X_t.  An X in their span C solves exactly when
    X N ⊆ C and X_t* X ∈ N for every t, the parts (1 - b)(X (x) 1) e and
    b (X (x) 1)(1 - e), so each outcome is a system in its r unknowns, and
    the outcomes of each rank are solved by one batched SVD; r = 0 leaves no
    candidate.  A solution space not of dimension ``dim`` raises
    :class:`ExtractionError` with its ``names`` entry.  X is
    :func:`la.generic_invertible` at the fixed seed ``DEFAULT_SEED + i`` of
    outcome i, so it depends on the space alone; every outcome is drawn at
    once (:func:`la.generic_invertibles`)."""
    n = math.isqrt(len(p))
    ranges = _ranges(bs)
    ys = p.T.reshape(-1, n, n)  # an HS-orthonormal basis of N
    spaces: list = [[]] * len(bs)
    for rank in {q.shape[1] for q in ranges} - {0}:
        group = [i for i, q in enumerate(ranges) if q.shape[1] == rank]
        qs = np.stack([ranges[i] for i in group])
        xs = np.swapaxes(qs, 1, 2).reshape(len(group), rank, n, n)
        # column t: the parts of X_t Y_j off C and of X_s* X_t off N, over j and s
        moved = (xs[:, :, None] @ ys).reshape(len(group), -1, n * n)
        moved -= moved @ qs.conj() @ np.swapaxes(qs, 1, 2)
        back = (la.dagger(xs)[:, None] @ xs[:, :, None]).reshape(len(group), -1, n * n)
        back -= back @ p.conj() @ p.T
        parts = [x.reshape(len(group), rank, -1, n * n).transpose(0, 2, 3, 1) for x in (moved, back)]
        systems = np.concatenate(parts, axis=1).reshape(len(group), -1, rank)
        for i, q, sols in zip(group, qs, la.nullspaces(systems, tol)):
            spaces[i] = [(q @ c).reshape(n, n) for c in sols]
    for name, sols in zip(names, spaces):
        if len(sols) != dim:
            raise ExtractionError(f"{name}: intertwiner space has dimension {len(sols)}, expected {dim}")
    onbs = np.reshape(spaces, (len(bs), dim, n, n))
    cands = la.generic_invertibles(onbs, [DEFAULT_SEED + i for i in range(len(bs))])
    for name, cand in zip(names, cands):
        if cand is None:
            raise ExtractionError(f"{name}: no invertible intertwiner")
    return la.polar_unitary(np.stack(cands))


def _ranges(xs: np.ndarray) -> list[np.ndarray]:
    """Per projection x of the stack ``xs``, an isometry onto its range: its
    eigenvectors of eigenvalue above 1/2.  A tight scheme's POVM legs are
    projections; for any other x the round trip of extraction decides."""
    vals, vecs = np.linalg.eigh((xs + la.dagger(xs)) / 2)
    return [v[:, w > 0.5] for w, v in zip(vals, vecs)]


def extract_tight_scheme(
    scheme: TeleportationScheme,
) -> tuple[PimsnerPopaBasis, np.ndarray, np.ndarray, Report]:
    """Recover (basis, u, z) from a tight, minimal, faithful scheme for N'.

    z is the one-leg slice of the resource, e the Jones projection of N, and
    every solve reads the X with (X (x) 1) e = b (X (x) 1) off the range of
    b (:func:`_leg_unitaries`).  N is transpose-closed, so the undressed
    resource (1 (x) u) e (1 (x) u*) with its legs swapped is
    (u (x) 1) e (u* (x) 1), whose X form u N: u is the polar part of a
    generic one, fixed up to a unitary of N on the right.  The corrections
    are read off the POVM: the X with b = f_i form u_i* u N, so with x_i the
    polar part of a generic invertible one, u_i = u x_i* is fixed up to a
    unitary of N on the left, which leaves Ad(1 (x) 1 (x) u_i) on N' as it
    is.  The triple depends on the scheme alone, not on rounding.  The
    contract is the round trip: the resource, the POVM and the corrections
    rebuilt from the triple must reproduce the scheme's; only there is a
    channel compared with Ad(1 (x) 1 (x) u_i), on Bob's basis 1 (x) b / n,
    and a failure names the channels over the bound.  The extracted family
    must pass :func:`bases._require_normaliser_basis`.

    Everything runs on ``scheme.inclusion`` at its tolerance, the round-trip
    bounds included.  The scheme's level-one tower is reused.  The scheme
    is classified on every call, so replaced pieces are judged as they
    stand.  Every piece is read once, by the :func:`_pieces` call of that
    classification (:func:`_classify`), and the norms the
    bounds scale with are read off the legs (:attr:`_Legs.resource_norm`,
    :attr:`_Legs.povm_norms`), so a stored scheme builds no dense piece.
    The rebuilt resource and POVM lie in leg form, HS-orthogonal to each
    remainder, so
    ||1 (x) x - omega||^2 = n ||x - w||^2 + r^2, and likewise for each F_i.
    A channel's part on Bob's basis 1 (x) b / n is u_i b u_i* / n, read off
    its witness v_i, when every witness is 1 (x) u_i up to rounding
    (:func:`_witnesses_on_legs`).  Otherwise each channel is applied to the
    lifted basis of N' (:func:`_far_leg_images`), and its distance is the
    Pythagorean sum of the leg part and what the leg leaves out.
    """
    inc = scheme.inclusion
    if inc is None or scheme.leg_dims is None:
        raise PreconditionError("extraction needs the tripartite inclusion data")
    tol, n = inc.tol, inc.big.ambient_dim
    if scheme.leg_dims != (n, n, n):
        raise PreconditionError("extraction expects three legs of matching dimension")
    if _count(scheme, "channels") != scheme.outcomes:
        raise PreconditionError("extraction expects one correction channel per outcome")
    small = inc.small
    # the transpose is a *-anti-automorphism: N is closed under it once its column units are
    flipped = np.swapaxes(_generators(small), -1, -2)
    if np.max(small.membership_residual(flipped)) > tol.bound(1.0) * 10:
        raise HypothesisError("N must be transpose-closed (block-adapted position)")
    if not _commutant_trace_flag(inc):
        raise HypothesisError("commutant trace gate fails")
    flags, legs = _classify(scheme)
    if not (flags.tight and flags.minimal and flags.faithful):
        raise PreconditionError("extraction requires a tight, minimal, faithful scheme")

    rep = Report()
    omega_small = legs.resource
    rep.add("resource_has_trivial_first_leg", legs.resource_gap, tol.bound(legs.resource_norm))
    z = la.partial_trace(omega_small, [n, n], {0}, normalise=True)
    z = (z + la.dagger(z)) / 2
    rep.add("central_slice_in_centre", small.center.membership_residual(z), tol.bound(1.0) * 10)
    zvals = np.linalg.eigvalsh(z)
    rep.add_flag("central_slice_invertible", bool(zvals.min() > 1e-8), detail=f"min eig {zvals.min():.2e}")
    rep.add("central_slice_normalised", abs(np.trace(z).real / n - 1.0), tol.bound(1.0) * 10)
    if not rep.passed:
        raise ExtractionError("resource does not have the rigid form")

    e = concrete_jones_projection(small)
    t = scheme.tower
    if t is None or t.inclusion is not inc:
        t = basic_construction(inc)

    # dressing unitary from the undressed resource (1 (x) u) e (1 (x) u*), legs swapped
    dress_inv = la.kron(la.eye(n), np.linalg.inv(la.matrix_sqrt(z, tol)))
    undressed = dress_inv @ omega_small @ dress_inv / inc.index
    swapped = undressed.reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(n * n, n * n)
    p = _ranges(e[None])[0]  # the range of e, shared by both solves
    u = _leg_unitaries(p, swapped[None], ["dressing"], small.dim, tol)[0]
    rebuilt_small = _tight_resource(inc, e, u, z)
    rep.add(
        "resource_round_trip",
        la.frobenius_distance(rebuilt_small, omega_small),
        tol.bound(float(np.linalg.norm(omega_small))) * 10,
    )

    # correction unitaries from the POVM, every outcome at once
    for i, (norm, gap) in enumerate(zip(legs.povm_norms, legs.povm_gaps)):
        rep.add(f"povm_{i}_has_trivial_third_leg", float(gap), tol.bound(float(norm)))
    outcomes = [f"outcome {i}" for i in range(scheme.outcomes)]
    units = u @ la.dagger(_leg_unitaries(p, legs.povm, outcomes, small.dim, tol))

    basis = PimsnerPopaBasis(inc, list(units))
    try:
        _require_normaliser_basis(t, basis)
    except PreconditionError as exc:
        raise ExtractionError("extracted family is not an orthonormal normaliser basis") from exc
    rep.merge(basis.report, prefix="extracted_basis.")

    # the round trip rebuilds operators only and compares them in the scheme's context
    trip, root, bs = tol.bound(1.0) * 5, math.sqrt(n), legs.nprime.basis
    projections = _entangled_projections(e, units, u)
    resource = math.hypot(root * la.frobenius_distance(rebuilt_small, omega_small), legs.resource_gap)
    povm_gaps = np.hypot(root * la.frobenius_norms(projections - legs.povm), legs.povm_gaps)
    moved = units[:, None] @ bs @ la.dagger(units)[:, None]
    if _witnesses_on_legs(legs):
        parts = legs.units[:, None] @ bs @ la.dagger(legs.units)[:, None]
        gaps = la.frobenius_norms(parts - moved)
    else:
        parts, outside = _far_leg_images(scheme.channels, legs.nprime)
        gaps = np.hypot(la.frobenius_norms(parts - moved), outside / n)
    gaps = np.max(gaps, axis=1)
    rep.add("round_trip_resource", resource, trip * max(1.0, legs.resource_norm))
    rep.add("round_trip_povm", float(np.max(povm_gaps)), trip)
    rep.add("round_trip_channels", float(np.max(gaps)), trip)
    if not rep.passed:
        failed = ", ".join(c.name for c in rep.failures())
        over = ", ".join(str(i) for i in np.flatnonzero(gaps > trip))
        raise ExtractionError(f"round trip failed: {failed}" + (f" (channels {over})" if over else ""))
    return basis, u, z, rep
