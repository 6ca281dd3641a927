"""Self-test of the benchmark: names match BENCHMARK.json, counts repeat exactly.

Run from the repository root with ``python3 -m pytest perfbench -q``.  The
traced passes take about two minutes on a 2-core machine.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import COUNT_METRICS, END_TO_END_UNITS, PER_LAYER, layer_unit  # noqa: E402

EXACT = COUNT_METRICS + ["linalg.span_onb.rank_ratio", "tracing.spans"]


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result(*args: str) -> dict:
    proc = run(ROOT, *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_and_units_match_benchmark_json():
    bench = benchmark_json()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, layer_unit(name)) for name in PER_LAYER
    ]


@pytest.mark.parametrize("workload", ["ladder", "tower", "teleport"])
def test_traced_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", "1")
    first, second = result(*args), result(*args)
    for line in (first, second):
        assert line["correct"] and line["failed"] == 0
        assert list(line["metrics"]) == PER_LAYER
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_untraced_run_prints_end_to_end_metrics():
    line = result("--workload", "ladder", "--seed", "7", "--seconds", "0", "--trace", "0")
    assert line["correct"] and line["attempted"] >= 1
    assert {name: m["unit"] for name, m in line["metrics"].items()} == END_TO_END_UNITS


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(str(tmp_path), "--workload", "ladder", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
