import io
import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "opteleport.cli"]


def run_cli(*args, stdin=None):
    return subprocess.run(
        CLI + list(args), input=stdin, capture_output=True, text=True, timeout=300
    )


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def scalar_m2(tmp_path):
    return write_spec(
        tmp_path, "c2.json", {"ambient_dim": 2, "N_blocks": [[1, 2]], "trace": "markov"}
    )


@pytest.fixture
def diag_m2(tmp_path):
    return write_spec(
        tmp_path, "d2.json", {"ambient_dim": 2, "N_blocks": [[1, 1], [1, 1]]}
    )


def test_inclusion_info_scalar(scalar_m2):
    proc = run_cli("inclusion-info", scalar_m2)
    assert proc.returncode == 0
    cert = json.loads(proc.stdout)
    assert cert["passed"]
    assert cert["certificate"]["index"] == 4.0
    assert cert["certificate"]["inclusion_matrix"] == [[2]]


def test_inclusion_info_diagonal(diag_m2):
    cert = json.loads(run_cli("inclusion-info", diag_m2).stdout)
    assert cert["certificate"]["index"] == 2.0
    assert cert["certificate"]["markov_weights"] == [0.5]


def test_inclusion_info_reads_stdin(scalar_m2):
    with open(scalar_m2) as fh:
        doc = fh.read()
    proc = run_cli("inclusion-info", stdin=doc)
    assert proc.returncode == 0


def test_malformed_json_exits_2():
    proc = run_cli("inclusion-info", stdin="not json at all")
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_bad_layout_exits_2(tmp_path):
    path = write_spec(tmp_path, "bad.json", {"ambient_dim": 3, "N_blocks": [[1, 1]]})
    proc = run_cli("inclusion-info", path)
    assert proc.returncode == 2


DIRECT_SUM = ["teleport", "--scheme", "direct-sum"]
WERNER_DOC = {"ambient_dim": 2, "N_blocks": [[1, 1], [1, 1]]}


@pytest.mark.parametrize(
    "argv, doc, params",
    [
        (DIRECT_SUM, {}, None),
        (DIRECT_SUM, [1], None),
        (DIRECT_SUM, {"N_blocks": [["a", 1]]}, None),
        (DIRECT_SUM, [[1, 1], [-1, 2]], None),
        (DIRECT_SUM, {"N_blocks": [[1, 1], [-1, 2]]}, None),
        (DIRECT_SUM, {"N_blocks": [[0, 1]]}, None),
        (["inclusion-info"], {"ambient_dim": 2, "N_blocks": [[1, 2]], "trace": ["x", 1]}, None),
        (["teleport", "--scheme", "werner"], WERNER_DOC, {"z_weights": ["a", 1]}),
        (["teleport", "--scheme", "werner"], WERNER_DOC, [1, 2]),
        (["inclusion-info"], {"ambient_dim": 2, "N_blocks": [[1, 2]], "embedding": {"explicit": 5}}, None),
    ],
    ids=[
        "direct-sum-empty-object",
        "direct-sum-list-document",
        "direct-sum-non-numeric-block",
        "direct-sum-block-list-document",
        "direct-sum-negative-block",
        "direct-sum-zero-block",
        "non-numeric-trace",
        "non-numeric-z-weights",
        "params-not-an-object",
        "explicit-not-a-list",
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, argv, doc, params):
    # exit 1 is reserved for a failed check; a bad document is an input error
    from opteleport import cli

    args = [*argv, write_spec(tmp_path, "doc.json", doc)]
    if params is not None:
        args += ["--params", write_spec(tmp_path, "params.json", params)]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Markov" not in err


@pytest.mark.parametrize(
    "argv, doc",
    [(DIRECT_SUM, {"N_blocks": []}), (["inclusion-info"], {"ambient_dim": 2, "N_blocks": []})],
    ids=["direct-sum", "inclusion-info"],
)
def test_empty_block_list_is_named(tmp_path, capsys, argv, doc):
    from opteleport import cli

    assert cli.main([*argv, write_spec(tmp_path, "doc.json", doc)]) == 2
    assert capsys.readouterr().err.startswith("error: N_blocks is empty")


def test_explicit_generator_with_nan_exits_2(tmp_path, capsys):
    # json reads NaN; the generator is refused with a typed error, not a traceback
    from opteleport import cli

    nan = [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    doc = {"ambient_dim": 2, "N_blocks": [[1, 1], [1, 1]], "embedding": {"explicit": [nan]}}
    assert cli.main(["inclusion-info", write_spec(tmp_path, "nan.json", doc)]) == 2
    assert capsys.readouterr().err.startswith("error: matrix has NaN or Inf entries")


def test_explicit_embedding(tmp_path):
    e00 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    path = write_spec(
        tmp_path,
        "explicit.json",
        {
            "ambient_dim": 2,
            "N_blocks": [[1, 1], [1, 1]],
            "embedding": {"explicit": [e00]},
        },
    )
    cert = json.loads(run_cli("inclusion-info", path).stdout)
    assert cert["certificate"]["index"] == 2.0


def test_basis_weyl_n3(tmp_path):
    path = write_spec(tmp_path, "c3.json", {"ambient_dim": 3, "N_blocks": [[1, 3]]})
    cert = json.loads(run_cli("basis", path, "--family", "weyl").stdout)
    assert cert["passed"]
    assert cert["certificate"]["size"] == 9
    assert cert["certificate"]["orthonormal"] and cert["certificate"]["unitary"]


def test_basis_characters_not_unitary(diag_m2):
    cert = json.loads(run_cli("basis", diag_m2, "--family", "characters").stdout)
    assert cert["passed"]
    assert cert["certificate"]["orthonormal"] and not cert["certificate"]["unitary"]


def test_basis_explicit_non_basis_fails(diag_m2, tmp_path):
    ident = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    elements = tmp_path / "elements.json"
    elements.write_text(json.dumps([ident]))
    proc = run_cli("basis", diag_m2, "--elements", str(elements))
    assert proc.returncode == 1  # completeness fails, reported not raised
    cert = json.loads(proc.stdout)
    assert not cert["passed"]


def test_basis_family_mismatch_exits_2(diag_m2):
    assert run_cli("basis", diag_m2, "--family", "weyl").returncode == 2


def test_teleport_standard(scalar_m2):
    cert = json.loads(run_cli("teleport", scalar_m2, "--scheme", "standard").stdout)
    assert cert["passed"]
    d = cert["certificate"]
    assert d["tight"] and d["unbiased"] and d["faithful"] and d["minimal"]
    assert d["unbiased_value"] == 0.25


def test_teleport_direct_sum_witness(tmp_path):
    path = write_spec(tmp_path, "m.json", {"ambient_dim": 3, "N_blocks": [[1, 1], [2, 1]]})
    cert = json.loads(run_cli("teleport", path, "--scheme", "direct-sum").stdout)
    assert cert["passed"]
    d = cert["certificate"]
    assert d["outcomes"] == 5 and d["tight"] and not d["unbiased"]
    assert abs(d["witness"]["probability"]) < 1e-10


def test_teleport_unbiased(diag_m2):
    cert = json.loads(run_cli("teleport", diag_m2, "--scheme", "unbiased").stdout)
    assert cert["passed"]
    assert cert["certificate"]["unbiased_value"] == 0.5


def test_teleport_werner_extract(diag_m2, tmp_path):
    params = tmp_path / "params.json"
    u_shift = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    params.write_text(json.dumps({"u": u_shift, "z_weights": [1.2, 0.8]}))
    proc = run_cli(
        "teleport", diag_m2, "--scheme", "werner", "--params", str(params), "--extract"
    )
    assert proc.returncode == 0
    cert = json.loads(proc.stdout)
    assert cert["passed"]
    assert cert["certificate"]["extracted"]["basis_size"] == 2
    names = [c["name"] for c in cert["checks"]]
    assert "extract.round_trip_resource" in names


@pytest.mark.parametrize("scheme", ["unbiased", "direct-sum"])
def test_teleport_extract_rejected_before_construction(diag_m2, scheme, monkeypatch, capsys):
    from opteleport import cli

    def unreachable(*args, **kwargs):
        raise AssertionError("scheme was built before --extract was rejected")

    for name in ("verify_scheme", "unbiased_scheme", "direct_sum_scheme", "basic_construction"):
        monkeypatch.setattr(cli, name, unreachable)
    assert cli.main(["teleport", diag_m2, "--scheme", scheme, "--extract"]) == 2
    assert "--extract applies to standard and werner schemes" in capsys.readouterr().err


def test_graph_bounds_scalar(scalar_m2):
    cert = json.loads(run_cli("graph", scalar_m2, "--mode", "bounds").stdout)
    assert cert["passed"]
    assert cert["certificate"]["lower"] == 4 and cert["certificate"]["upper"] == 4


def test_graph_colour_basis(diag_m2):
    cert = json.loads(run_cli("graph", diag_m2, "--mode", "colour-basis").stdout)
    assert cert["passed"]
    assert cert["certificate"]["colours"] == 2


def test_graph_uncovered_gap(tmp_path):
    path = write_spec(tmp_path, "u.json", {"ambient_dim": 3, "N_blocks": [[1, 1], [2, 1]]})
    proc = run_cli("graph", path, "--mode", "bounds")
    cert = json.loads(proc.stdout)
    assert cert["certificate"]["upper"] is None
    assert cert["certificate"]["warnings"]
    assert proc.returncode == 1  # bounds_available check fails


def test_certificates_byte_identical(scalar_m2, diag_m2, tmp_path):
    commands = [
        ("inclusion-info", scalar_m2),
        ("basis", diag_m2, "--family", "shifts"),
        ("teleport", diag_m2, "--scheme", "unbiased"),
        ("graph", scalar_m2, "--mode", "bounds"),
    ]
    for cmd in commands:
        one = run_cli("--seed", "42", *cmd).stdout
        two = run_cli("--seed", "42", *cmd).stdout
        assert one == two, cmd


def test_seed_recorded(scalar_m2):
    cert = json.loads(run_cli("--seed", "7", "inclusion-info", scalar_m2).stdout)
    assert cert["seed"] == 7


def run_in_process(monkeypatch, capsys, argv, doc):
    """``cli.main`` in this process with ``doc`` on stdin; (exit code, stdout)."""
    from opteleport import cli

    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code = cli.main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "family, blocks", [("weyl", [[1, 2]]), ("shifts", [[1, 1], [1, 1]]), ("characters", [[1, 1], [1, 1]])]
)
def test_a_basis_family_is_built_on_the_parsed_inclusion(monkeypatch, capsys, family, blocks):
    from opteleport.inclusion import Inclusion

    init, made = Inclusion.__init__, []

    def counting(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Inclusion, "__init__", counting)
    argv = ["basis", "-", "--family", family]
    code, out = run_in_process(monkeypatch, capsys, argv, {"ambient_dim": 2, "N_blocks": blocks})
    assert code == 0 and json.loads(out)["passed"]
    assert len(made) == 1


def test_a_family_name_outside_the_table_is_refused():
    from opteleport.cli import InputError, _basis_for_family
    from opteleport.inclusion import diagonal_in_full, trivial_in_full

    with pytest.raises(InputError, match="unknown family 'character'"):
        _basis_for_family(diagonal_in_full(2), "character")
    with pytest.raises(InputError, match="shift family needs N = diagonals"):
        _basis_for_family(trivial_in_full(2), "shifts")


def test_seed_reaches_only_inclusion_info(monkeypatch, capsys):
    # teleport certificates sample nothing, so two seeds differ only in the
    # recorded seed; no call writes the process-global sampling seed
    from opteleport import linalg as la

    before = la.rng_from(None).random()
    doc = {"ambient_dim": 2, "N_blocks": [[1, 2]]}
    certs = []
    for seed in ("1", "2"):
        code, out = run_in_process(monkeypatch, capsys, ["--seed", seed, "teleport", "-", "--scheme", "standard"], doc)
        assert code == 0
        certs.append(json.loads(out))
    assert [c.pop("seed") for c in certs] == [1, 2]
    assert certs[0] == certs[1]
    assert run_in_process(monkeypatch, capsys, ["--seed", "7", "inclusion-info", "-"], doc)[0] == 0
    assert la.rng_from(None).random() == before


def test_main_builds_its_parsers_once(monkeypatch, capsys):
    import argparse

    from opteleport import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser()
    per_build = len(built)
    assert per_build > 1  # the top-level parser and one per command
    assert cli.build_parser() is not cli.build_parser()
    built.clear()
    doc = {"ambient_dim": 2, "N_blocks": [[1, 2]]}
    for _ in range(2):
        assert run_in_process(monkeypatch, capsys, ["inclusion-info", "-"], doc)[0] == 0
    assert len(built) <= per_build  # none once an earlier call has built the parser


def test_flags_do_not_leak_between_in_process_calls(monkeypatch, capsys):
    scalar = {"ambient_dim": 2, "N_blocks": [[1, 2]]}
    calls = [
        (["teleport", "-", "--scheme", "werner", "--extract"], WERNER_DOC),
        (["--tol", "1e-6", "--seed", "7", "teleport", "-", "--scheme", "standard"], scalar),
        (["teleport", "-"], scalar),
    ]
    for argv, doc in calls:
        code, out = run_in_process(monkeypatch, capsys, argv, doc)
        proc = run_cli(*argv, stdin=json.dumps(doc))
        assert (code, out) == (proc.returncode, proc.stdout), argv
    cert = json.loads(out)
    assert cert["seed"] == 42 and cert["tolerance"] == {"abs": 1e-9, "rel": 1e-9}
    assert "extracted" not in cert["certificate"]


def test_werner_builds_one_tower(monkeypatch, capsys):
    from opteleport import tower

    built = []
    init = tower.Tower.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(tower.Tower, "__init__", counting)
    argv = ["teleport", "-", "--scheme", "werner", "--extract"]
    code, out = run_in_process(monkeypatch, capsys, argv, WERNER_DOC)
    assert code == 0 and json.loads(out)["passed"]
    assert len(built) == 1


def test_unbiased_scheme_corrections_are_those_of_correction_unitaries():
    import numpy as np

    from opteleport.bases import verify_basis
    from opteleport.inclusion import diagonal_in_full
    from opteleport.qgraph import normaliser_basis_for
    from opteleport.teleport import correction_unitaries, unbiased_scheme
    from opteleport.tower import basic_construction

    def verified():
        inc = diagonal_in_full(3)
        t, b = basic_construction(inc), normaliser_basis_for(inc)
        verify_basis(t, b)
        return t, b

    scheme = unbiased_scheme(*verified())
    vs, rep = correction_unitaries(*verified())
    assert rep.passed
    assert len(scheme.channels) == len(vs)
    for channel, v in zip(scheme.channels, vs):
        assert np.array_equal(channel.ad_unitary, v)


def test_basis_builds_its_tower_at_the_given_tolerance(monkeypatch, capsys):
    from opteleport import cli
    from opteleport.linalg import Tolerance

    build = cli.basic_construction
    built = []

    def recording(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "basic_construction", recording)
    argv = ["--tol", "1e-6", "basis", "-", "--family", "shifts"]
    code, out = run_in_process(monkeypatch, capsys, argv, {"ambient_dim": 2, "N_blocks": [[1, 1], [1, 1]]})
    assert code == 0 and json.loads(out)["passed"]
    assert [t.tol for t in built] == [Tolerance(1e-6, 1e-6)]


def _noisy_diagonal_doc():
    """D_3 ⊆ M_3 given by its three minimal projections, each with 1e-7 of
    Hermitian noise: too rough for discovery at 1e-9, fine at 1e-4."""
    import numpy as np

    from opteleport.cli import encode_matrix

    rng = np.random.default_rng(7)
    gens = []
    for k in range(3):
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        gens.append(np.diag(np.eye(3)[k]) + 1e-7 * (h + h.conj().T))
    embedding = {"explicit": [encode_matrix(g) for g in gens]}
    return {"ambient_dim": 3, "N_blocks": [[1, 1]] * 3, "embedding": embedding}


def test_tol_reaches_structure_discovery(monkeypatch, capsys):
    doc = _noisy_diagonal_doc()
    code, out = run_in_process(monkeypatch, capsys, ["--tol", "1e-4", "inclusion-info", "-"], doc)
    cert = json.loads(out)
    assert code == 0 and cert["passed"]
    assert cert["certificate"]["N_blocks"] == [[1, 1]] * 3
    assert run_in_process(monkeypatch, capsys, ["inclusion-info", "-"], doc)[0] == 2


def test_standard_scheme_builds_its_one_tower_at_the_given_tolerance(monkeypatch, capsys):
    from opteleport import tower
    from opteleport.linalg import Tolerance

    built = []
    init = tower.Tower.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.tol)

    monkeypatch.setattr(tower.Tower, "__init__", recording)
    argv = ["--tol", "1e-6", "teleport", "-", "--scheme", "standard"]
    code, out = run_in_process(monkeypatch, capsys, argv, {"ambient_dim": 2, "N_blocks": [[1, 2]]})
    assert code == 0 and json.loads(out)["passed"]
    assert built == [Tolerance(1e-6, 1e-6)]


@pytest.mark.parametrize("value", ["0", "-1e-9", "nan", "inf"])
def test_bad_tol_is_an_input_error(value, monkeypatch, capsys):
    from opteleport import cli

    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"ambient_dim": 2, "N_blocks": [[1, 2]]})))
    assert cli.main([f"--tol={value}", "inclusion-info", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: --tol {float(value)}: Tolerance needs finite")


def test_werner_extraction_on_the_noisy_document_holds_at_its_tolerance(monkeypatch, capsys):
    argv = ["--tol", "1e-4", "teleport", "-", "--scheme", "werner", "--extract"]
    code, out = run_in_process(monkeypatch, capsys, argv, _noisy_diagonal_doc())
    cert = json.loads(out)
    assert code == 0 and cert["passed"]
    assert cert["certificate"]["extracted"]["basis_size"] == 3


@pytest.mark.parametrize("trace", ["markov", [0.5]])
def test_inclusion_info_builds_the_markov_trace_once(monkeypatch, capsys, trace):
    # the parser builds the Markov trace a "markov" document asks for, and
    # inclusion-info reads its weights; explicit weights leave it to inclusion-info
    from opteleport import cli

    doc = {"ambient_dim": 2, "N_blocks": [[1, 1], [1, 1]], "trace": trace}
    seen, markov = [], cli.markov_trace
    monkeypatch.setattr(cli, "markov_trace", lambda *args: seen.append(args) or markov(*args))
    code, out = run_in_process(monkeypatch, capsys, ["inclusion-info", "-"], doc)
    assert code == 0 and json.loads(out)["certificate"]["markov_weights"] == [0.5]
    assert len(seen) == 1
