import numpy as np
import pytest

from opteleport import linalg as la
from opteleport.algebra import StarAlgebra
from opteleport.bases import homogeneous_block_basis, shift_basis, verify_basis, weyl_basis
from opteleport.errors import CertificateError, ColouringError, PreconditionError
from opteleport.inclusion import diagonal_in_full, markov_inclusion, trivial_in_full
from opteleport.qgraph import (
    ChromaticBounds,
    Colouring,
    QuantumGraph,
    basis_colouring,
    basis_lower_bound,
    chromatic_bounds,
    factor_colouring,
    factor_frame,
    factor_lower_bound,
    gns_graph,
    graphs_from_inclusion,
    normaliser_basis_for,
    traceless_part,
    verify_colouring,
)

from opteleport.tower import basic_construction

from conftest import get_tower, record_thresholds


def tensor_factor_inclusion():
    nil = np.array([[0, 1], [0, 0]], dtype=complex)
    small = StarAlgebra.from_generators([np.kron(np.eye(2, dtype=complex), nil)], 4)
    return markov_inclusion(small, StarAlgebra.full(4))


def test_graphs_from_inclusion_invariants():
    for inc in (trivial_in_full(2), diagonal_in_full(2), tensor_factor_inclusion()):
        g1, g2 = graphs_from_inclusion(inc)
        assert g1.verify().passed, g1.label
        assert g2.verify().passed, g2.label


def test_graph_verify_reports_the_commutant_bimodule_check_only():
    for inc in (trivial_in_full(2), diagonal_in_full(2), tensor_factor_inclusion()):
        for g in graphs_from_inclusion(inc):
            assert [c.name for c in g.verify().checks] == ["commutant_bimodule"], g.label
            assert g.ambient_dim == inc.big.ambient_dim


def test_commutant_bimodule_fails_when_the_system_misses_the_commutant():
    # M = D_2 is its own commutant, and the scalars hold neither diagonal unit
    g = QuantumGraph(StarAlgebra.trivial(2), StarAlgebra.diagonal(2))
    rep = g.verify()
    assert not rep.passed
    assert abs(rep.checks[0].residual - np.sqrt(0.5)) < 1e-12
    with pytest.raises(PreconditionError):
        traceless_part(g)


def test_graph_verify_requires_a_common_ambient():
    g = QuantumGraph(StarAlgebra.full(2), StarAlgebra.full(3))
    with pytest.raises(PreconditionError):
        g.verify()
    with pytest.raises(AttributeError):
        g.ambient_dim = 2


def gram_traceless_part(g):
    """Reference: S ∩ (M')^perp from the null space of the cross Gram matrix
    Tr(c_k* s_l) of the bases of M' and S."""
    s, comm = g.system.basis, g.algebra.commutant.basis
    n2 = g.ambient_dim**2
    cross = np.conj(comm.reshape(-1, n2)) @ s.reshape(-1, n2).T
    mats = [np.tensordot(v, s, axes=(0, 0)) for v in la.nullspace(cross)]
    return la.span_onb(mats) if mats else np.zeros((0, g.ambient_dim, g.ambient_dim))


def test_traceless_part_matches_the_gram_reference():
    graphs = [
        g
        for inc in (trivial_in_full(2), diagonal_in_full(2), tensor_factor_inclusion())
        for g in graphs_from_inclusion(inc)
    ]
    graphs.append(gns_graph(get_tower("diagonal_in_full_2", two_levels=False)))

    def projection(onb):
        flat = onb.reshape(len(onb), -1)
        return flat.T @ flat.conj()

    for g in graphs:
        got, want = traceless_part(g), gram_traceless_part(g)
        assert got.shape == want.shape, g.label
        assert np.max(np.abs(projection(got) - projection(want))) < 1e-12, g.label


def test_graph_for_equal_inclusion():
    alg = StarAlgebra.full(2)
    inc = markov_inclusion(alg, alg)
    g1, _ = graphs_from_inclusion(inc)
    assert g1.verify().passed
    assert traceless_part(g1).shape[0] == 0  # S = M' = everything relevant


def test_traceless_part_is_expectation_kernel():
    # for the GNS graph of the diagonals, the traceless slice of M against
    # N is the off-diagonal part: dimension 2 out of 4
    t = get_tower("diagonal_in_full_2", two_levels=False)
    g = gns_graph(t)
    part = traceless_part(g)
    assert part.shape[0] == 2
    # the compression by the Jones projection kills exactly this slice
    for x in part:
        assert np.linalg.norm(t.jones1 @ x @ t.jones1) < 1e-9


def test_traceless_part_trivial_when_system_is_commutant():
    inc = trivial_in_full(2)
    _, g2 = graphs_from_inclusion(inc)  # system N' = M_2 over M = M_2
    # here M' = scalars so the traceless part is everything orthogonal to 1
    part = traceless_part(g2)
    assert part.shape[0] == 3


def test_factor_frame_tensor_case():
    inc = tensor_factor_inclusion()
    frame = factor_frame(inc)
    assert frame.d == 2
    assert frame.block_sizes == [2]
    assert frame.index == 4 == int(round(inc.index))


def test_factor_colouring_tensor_case():
    inc = tensor_factor_inclusion()
    col = factor_colouring(inc)
    assert col.colours == 4
    assert col.aux_dim == 2
    _, g2 = graphs_from_inclusion(inc)
    rep = verify_colouring(g2, col)
    assert rep.passed, [c.name for c in rep.failures()]
    assert rep.max_residual < 1e-9


def test_factor_colouring_scalar_case_recovers_pauli_pvm():
    inc = trivial_in_full(2)
    col = factor_colouring(inc)
    assert col.colours == 4 and col.aux_dim == 2
    _, g2 = graphs_from_inclusion(inc)
    assert verify_colouring(g2, col).passed


def test_factor_colouring_mixed_blocks():
    # two blocks of sizes 1 and 2 over the scalars: c = 1 + 4, l = lcm = 2
    inc = markov_inclusion(StarAlgebra.trivial(3), StarAlgebra.block_diagonal([(1, 1), (2, 1)]))
    col = factor_colouring(inc)
    assert col.colours == 5 and col.aux_dim == 2
    _, g2 = graphs_from_inclusion(inc)
    rep = verify_colouring(g2, col)
    assert rep.passed
    assert factor_lower_bound(inc, col).passed


def test_factor_colouring_requires_factor():
    inc = diagonal_in_full(2)
    with pytest.raises(PreconditionError):
        factor_colouring(inc)


def test_single_colour_fails_on_nontrivial_graph():
    inc = trivial_in_full(2)
    _, g2 = graphs_from_inclusion(inc)
    col = Colouring(1, [np.eye(2 * 1, dtype=complex)])
    rep = verify_colouring(g2, col)
    assert not rep.passed
    assert not rep.checks[-1].passed  # annihilation clause


@pytest.mark.parametrize("n", range(1, 6))
def test_the_normaliser_basis_of_the_scalars_is_the_weyl_basis(n):
    # C is a factor: the commutant-factor construction gives the clock-and-shift family bit for bit
    inc = trivial_in_full(n)
    got = normaliser_basis_for(inc)
    assert got.inclusion is inc
    assert np.array_equal(np.stack(got.elements), np.stack(weyl_basis(n).elements))


def test_broken_pvm_raises():
    inc = trivial_in_full(2)
    _, g2 = graphs_from_inclusion(inc)
    col = Colouring(1, [0.5 * np.eye(2, dtype=complex), 0.5 * np.eye(2, dtype=complex)])
    with pytest.raises(ColouringError):
        verify_colouring(g2, col)


def test_three_colour_attempts_fail_for_index_four():
    # the certificate says no 3-colouring can exist; natural 3-colour PVM
    # attempts indeed violate the annihilation clause
    inc = tensor_factor_inclusion()
    _, g2 = graphs_from_inclusion(inc)
    rng = np.random.default_rng(7)
    for _ in range(3):
        h = la.random_hermitian(8, rng)
        h = 0.5 * (h + la.dagger(h))
        vals, vecs = np.linalg.eigh(h)
        groups = [vecs[:, :3], vecs[:, 3:6], vecs[:, 6:]]
        col = Colouring(2, [g @ la.dagger(g) for g in groups])
        rep = verify_colouring(g2, col)
        assert not rep.passed


def test_basis_colouring_cases():
    for key, make, want in (
        ("diagonal_in_full_2", lambda: shift_basis(2), 2),
        ("diagonal_in_full_3", lambda: shift_basis(3), 3),
        ("trivial_in_full_2", lambda: weyl_basis(2), 4),
        ("homogeneous_2_2", None, 2),
    ):
        t = get_tower(key, two_levels=False)
        if make is None:
            from opteleport.bases import homogeneous_block_basis

            b = homogeneous_block_basis(2, 2)
        else:
            b = make()
        b.inclusion = t.inclusion
        verify_basis(t, b)
        col = basis_colouring(t, b)
        assert col.colours == want
        g = gns_graph(t)
        rep = verify_colouring(g, col)
        assert rep.passed, (key, [c.name for c in rep.failures()])
        cert = basis_lower_bound(t, b, col)
        assert cert.passed, (key, [c.name for c in cert.failures()])


def test_chromatic_bounds_factor_cases():
    assert chromatic_bounds(tensor_factor_inclusion()).lower == 4
    b = chromatic_bounds(tensor_factor_inclusion())
    assert (b.lower, b.upper) == (4, 4) and b.tight
    for n in (2, 3):
        bn = chromatic_bounds(trivial_in_full(n))
        assert (bn.lower, bn.upper) == (n * n, n * n)
        assert len(bn.certificates) == 2  # both theorem families apply


def test_chromatic_bounds_local_cases():
    for k in (2, 3):
        b = chromatic_bounds(diagonal_in_full(k))
        assert (b.lower, b.upper) == (k, k)
        assert b.certificates[0]["kind"] == "local"


def test_chromatic_bounds_uncovered_case():
    inc = markov_inclusion(StarAlgebra.block_diagonal([(1, 1), (2, 1)]), StarAlgebra.full(3))
    b = chromatic_bounds(inc)
    assert b.upper is None and b.lower == 1
    assert b.warnings
    assert not b.tight


def test_certificate_reports_record_residuals():
    inc = trivial_in_full(2)
    b = chromatic_bounds(inc)
    for cert in b.certificates:
        assert cert["lower_bound"] == 4
        assert cert["colouring_report"].max_residual < 1e-9
        assert cert["certificate_report"].max_residual < 1e-9


def test_traceless_dimension_factor_graph():
    # (N', M) for the tensor-factor inclusion: S = N' = M_2 (x) 1 has
    # traceless slice of dimension dim N' - dim(M' intersect N') = 4 - 1
    inc = tensor_factor_inclusion()
    _, g2 = graphs_from_inclusion(inc)
    assert traceless_part(g2).shape[0] == 3


def test_commuting_product_matches_tensor():
    a = StarAlgebra.tensor(StarAlgebra.full(2), StarAlgebra.trivial(2))
    b = StarAlgebra.tensor(StarAlgebra.trivial(2), StarAlgebra.diagonal(2))
    prod = StarAlgebra.commuting_product(a, b)
    assert prod.dim == 8
    want = StarAlgebra.tensor(StarAlgebra.full(2), StarAlgebra.diagonal(2))
    assert prod.same_span(want)


def test_chromatic_bounds_subsystem_code_both_routes():
    # with the commutant-factor basis available, the tensor-factor
    # inclusion now carries both certificate families
    bounds = chromatic_bounds(tensor_factor_inclusion())
    assert (bounds.lower, bounds.upper) == (4, 4)
    kinds = sorted(c["kind"] for c in bounds.certificates)
    assert kinds == ["local", "quantum (finite-dimensional auxiliary)"]


def _factor_certificate(projections):
    inc = tensor_factor_inclusion()
    col = factor_colouring(inc)
    return factor_lower_bound(inc, Colouring(col.aux_dim, projections(col.projections)))


def _basis_certificate(projections):
    t = get_tower("diagonal_in_full_3", two_levels=False)
    b = shift_basis(3)
    b.inclusion = t.inclusion
    verify_basis(t, b)
    col = basis_colouring(t, b)
    return basis_lower_bound(t, b, Colouring(1, projections(col.projections)))


@pytest.mark.parametrize("certificate", [_factor_certificate, _basis_certificate])
def test_certificate_sum_fails_without_one_colour(certificate):
    # the remaining R_a are projections, but they no longer add up to [M:N] 1
    assert certificate(list).passed
    with pytest.raises(CertificateError, match=r"\(certificate_sum\)"):
        certificate(lambda ps: ps[1:])


@pytest.mark.parametrize("certificate", [_factor_certificate, _basis_certificate])
def test_certificate_projections_fails_on_a_scaled_colour(certificate):
    with pytest.raises(CertificateError, match="certificate_projections"):
        certificate(lambda ps: [0.9 * ps[0], *ps[1:]])


def test_basis_colouring_matches_the_per_element_loop():
    # the projections u_i* e_N u_i come from one stack; the loop is the reference
    t = get_tower("homogeneous_2_2", two_levels=False)
    b = homogeneous_block_basis(2, 2)
    b.inclusion = t.inclusion
    verify_basis(t, b)
    pi, e1 = t.gns.left, t.jones1
    want = [la.dagger(pi(u)) @ e1 @ pi(u) for u in b.elements]
    got = basis_colouring(t, b).projections
    assert len(got) == len(want)
    assert max(np.max(np.abs(p - w)) for p, w in zip(got, want)) < 1e-14


def test_graph_verdicts_read_the_tolerance_of_the_inclusion(monkeypatch):
    tol = la.Tolerance(abs=1e-6, rel=1e-6)
    inc = markov_inclusion(StarAlgebra.trivial(2), StarAlgebra.full(2), tol)
    col = factor_colouring(inc)
    _, g2 = graphs_from_inclusion(inc)
    seen = record_thresholds(monkeypatch)
    assert g2.verify().passed
    assert seen["commutant_bimodule"] == tol.bound(1.0) * g2.system.dim
    seen.clear()
    assert verify_colouring(g2, col).passed
    assert seen["commutant_bimodule"] == tol.bound(1.0) * g2.system.dim
    assert seen["pvm_resolves_identity"] == tol.bound(1.0) * col.colours
    assert g2.tol == gns_graph(basic_construction(inc)).tol == tol


def test_chromatic_bounds_warns_when_the_gate_refuses_the_basis(monkeypatch):
    from opteleport import qgraph
    from opteleport.bases import PimsnerPopaBasis

    # the three shifts of M_3 as a family for C ⊆ M_3: flags hold, completeness fails
    monkeypatch.setattr(
        qgraph, "normaliser_basis_for", lambda inc: PimsnerPopaBasis(inc, shift_basis(3).elements)
    )
    b = chromatic_bounds(trivial_in_full(3))
    assert [c["kind"] for c in b.certificates] == ["quantum (finite-dimensional auxiliary)"]
    assert (b.lower, b.upper) == (9, 9)
    assert len(b.warnings) == 1
    assert "refused" in b.warnings[0] and "no local certificate" in b.warnings[0]


def _per_matrix_colouring_residuals(g, col):
    """pvm_projections_orthogonal and annihilates_traceless_part, one matrix at a time."""
    ps = col.projections
    pvm = 0.0
    for i, p in enumerate(ps):
        pvm = max(pvm, la.frobenius_distance(p, la.dagger(p)), la.frobenius_distance(p @ p, p))
        for q in ps[i + 1 :]:
            pvm = max(pvm, float(np.linalg.norm(p @ q)))
    worst = 0.0
    for x in traceless_part(g):
        lifted = la.kron(x, la.eye(col.aux_dim))
        for p in ps:
            worst = max(worst, float(np.linalg.norm(p @ lifted @ p)))
    return pvm, worst


def test_stacked_colouring_checks_match_the_per_matrix_loops():
    inc = trivial_in_full(3)
    t = basic_construction(inc)
    b = weyl_basis(3)
    b.inclusion = inc
    _, g2 = graphs_from_inclusion(inc)
    for g, col in ((g2, factor_colouring(inc)), (gns_graph(t), basis_colouring(t, b))):
        rep = verify_colouring(g, col)
        residuals = {c.name: c.residual for c in rep.checks}
        pvm, worst = _per_matrix_colouring_residuals(g, col)
        assert residuals["pvm_projections_orthogonal"] == pvm
        assert residuals["annihilates_traceless_part"] == worst
        assert [c.name for c in rep.checks] == [
            "pvm_projections_orthogonal",
            "pvm_resolves_identity",
            "pvm_in_algebra_tensor_aux",
            "annihilates_traceless_part",
        ]


def test_verify_colouring_reports_zero_on_an_empty_traceless_part():
    # N = M: S = M', so the traceless part is empty and nothing can fail to vanish on it
    inc = markov_inclusion(StarAlgebra.full(2), StarAlgebra.full(2))
    _, g2 = graphs_from_inclusion(inc)
    rep = verify_colouring(g2, Colouring(1, [np.eye(2, dtype=complex)]))
    assert rep.passed and rep.checks[-1].residual == 0.0
