"""Certificate benchmark for opteleport.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ladder|tower|teleport|all \\
        --seed N --seconds S --trace 0|1

Each workload runs in fresh child processes, one at a time, with the BLAS
pool fixed at one thread.  Every certificate is checked against its
expected facts.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it give the environment and every metric by name and unit.
The exit code is 0 only when every certificate was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the checkout clean

from metrics import END_TO_END_UNITS, INFO_UNITS, PER_LAYER, layer_unit

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ["ladder", "tower", "teleport"]

# An untraced run measures in MEASURE_CHILDREN fresh processes, each for an
# equal share of --seconds (at least one cycle).  Set-up is sampled once per
# process and reported as the median.  Splitting the timed phase over
# processes averages out effects that last a whole process, such as memory
# layout.
MEASURE_CHILDREN = 3
# Every child of one run must end within this many seconds of the run's start.
RUN_DEADLINE_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # String hashing order moves allocation order, and with it peak RSS of
    # teleport between 610, 628 and 646 MB; a fixed seed keeps it at one.
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_child(args: argparse.Namespace, workload: str, seconds: float, deadline: float) -> dict:
    cmd = [
        sys.executable,
        CHILD,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(args.trace),
        "--spawned-at", repr(time.monotonic()),
    ]
    proc = subprocess.run(
        cmd,
        stdout=subprocess.PIPE,
        env=child_env(),
        timeout=max(1.0, deadline - time.monotonic()),
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pass_metrics(passes: list[dict]) -> dict:
    """Throughput and latency over the timed passes of one or more processes.

    The end-to-end figures use latencies scaled to reference seconds (see
    calibrate.py); the ``wall_`` figures are the same from raw wall time.
    """
    raw = [x for p in passes for x in p["latencies_s"]]
    scaled = [x * f for p in passes for x, f in zip(p["latencies_s"], p["scales"])]
    good = len(raw) - sum(p["failed"] for p in passes)
    return {
        "certs_per_s": good / sum(scaled),
        "cert_p50_ms": 1e3 * statistics.median(scaled),
        "cert_p90_ms": 1e3 * percentile(scaled, 90),
        "failed_frac": 1 - good / len(raw),
        "wall_certs_per_s": good / sum(raw),
        "wall_cert_p50_ms": 1e3 * statistics.median(raw),
    }


def run_workload(args: argparse.Namespace, workload: str) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    if args.trace:
        children = [run_child(args, workload, args.seconds, deadline)]
    else:
        children = [
            run_child(args, workload, args.seconds / MEASURE_CHILDREN, deadline)
            for _ in range(MEASURE_CHILDREN)
        ]
    passes = [child["untraced"] for child in children]
    metrics = pass_metrics(passes)
    metrics["setup_s"] = statistics.median(child["setup_s"] for child in children)
    metrics["wall_setup_s"] = statistics.median(child["setup_wall_s"] for child in children)
    metrics["peak_rss_mb"] = max(child["peak_rss_mb"] for child in children)
    record = {
        "workload": workload,
        "seed": args.seed,
        "environment": children[0]["environment"],
        "cycles": [p["cycles"] for p in passes],
        "certificates_per_cycle": children[0]["certificates_per_cycle"],
        "setup_samples_s": [child["setup_s"] for child in children],
        "attempted": sum(len(p["latencies_s"]) for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": [problem for child in children for problem in child["problems"]],
        "metrics": metrics,
    }
    if args.trace:
        traced = children[0]["traced"]
        record["attempted"] += len(traced["latencies_s"])
        record["failed"] += traced["failed"]
        record["layers"] = children[0]["layers"]
        record["layers"]["tracing.overhead_certs_per_s"] = (
            metrics["certs_per_s"] - pass_metrics([traced])["certs_per_s"]
        )
        record["count_mismatches"] = children[0]["count_mismatches"]

    print(f"# {workload}: environment {json.dumps(record['environment'], sort_keys=True)}")
    print(
        f"# {workload}: seed {args.seed}, timed cycles {record['cycles']} of "
        f"{record['certificates_per_cycle']} certificates in {len(children)} process(es), "
        f"{record['attempted']} attempted, {record['failed']} failed"
    )
    for problem in record["problems"]:
        print(f"# {workload}: FAILED {problem}")
    for name, unit in {**END_TO_END_UNITS, **INFO_UNITS}.items():
        print(f"# {workload}: {name} = {metrics[name]:.6g} {unit}")
    if args.trace:
        for name, value in record["layers"].items():
            print(f"# {workload}: {name} = {value:.6g} {layer_unit(name)}")
        for name in record["count_mismatches"]:
            print(f"# {workload}: WARNING {name} differs between traced cycles")

    out_dir = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"result-{workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def result_line(record: dict, trace: bool) -> dict:
    if trace:
        metrics = {name: {"value": record["layers"][name], "unit": layer_unit(name)} for name in PER_LAYER}
    else:
        metrics = {
            name: {"value": record["metrics"][name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "opteleport", "__init__.py")):
        print("error: run from the root of an opteleport checkout (src/opteleport missing)", file=sys.stderr)
        return 2
    lines = []
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        try:
            record = run_workload(args, workload)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        lines.append(result_line(record, bool(args.trace)))
    if args.workload == "all":
        for workload, line in zip(WORKLOADS, lines):
            print(f"# {workload}: {json.dumps(line)}")
        merged = {
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, line in zip(WORKLOADS, lines)
                for name, metric in line["metrics"].items()
            },
        }
        lines = [merged]
    print(json.dumps(lines[-1]))
    return 0 if lines[-1]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
