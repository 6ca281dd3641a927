"""One workload in a fresh process: set-up, warm-up, timed cycles, optional trace.

Started by ``run.py`` from the root of a checkout, with the BLAS pool fixed
at one thread.  Prints one JSON object on its last stdout line.

Set-up runs from process start (``--spawned-at``, a ``time.monotonic``
reading taken by the parent just before the spawn) to the start of the
timed phase: interpreter start, imports, input generation and one discarded
warm-up cycle, which absorbs lazy set-up and first-touch page faults.  Time
spent in reference samples (see calibrate.py) is left out of it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import opteleport  # noqa: E402
import workloads  # noqa: E402
from opteleport.linalg import set_default_seed  # noqa: E402
from metrics import COUNT_METRICS, PARTIAL_SELF_TIME_GROUPS, SHARED_SELF_TIME_GROUPS  # noqa: E402
from tracer import Tracer  # noqa: E402
from calibrate import REFERENCE_EVERY_S, REFERENCE_S, Reference, scale  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "opteleport": opteleport.__version__,
    }


def run_certificate(cert) -> tuple[float, list[str]]:
    start = time.perf_counter()
    try:
        problems = cert.run()
    except Exception as exc:  # a raising certificate is a failed one; keep measuring
        problems = [f"raised {type(exc).__name__}: {exc}"]
    return time.perf_counter() - start, problems


def timed_phase(certs, seconds: float | None, cycles: int | None, reference, tracer, log) -> dict:
    """Whole cycles until ``seconds`` have passed, or exactly ``cycles`` cycles.

    Reference samples bracket every stretch of certificates, so each latency
    gets the scale factor of the samples taken just before and after it.
    """
    latencies, scales, failed = [], [], 0
    pending: list[float] = []
    before = reference.sample()
    last_sample = start = time.perf_counter()
    done = 0
    while cycles is None or done < cycles:
        if tracer is not None:
            tracer.start_cycle()
        for i, cert in enumerate(certs):
            if tracer is not None:
                tracer.start_certificate(done * len(certs) + i)
            elapsed, problems = run_certificate(cert)
            if problems:
                failed += 1
                log.append(f"{cert.name}: {'; '.join(problems)}")
            pending.append(elapsed)
            if time.perf_counter() - last_sample >= REFERENCE_EVERY_S:
                after = reference.sample()
                latencies += pending
                scales += [scale(before, after)] * len(pending)
                pending, before, last_sample = [], after, time.perf_counter()
        done += 1
        if cycles is None and time.perf_counter() - start >= seconds:
            break
    if pending:
        latencies += pending
        scales += [scale(before, reference.sample())] * len(pending)
    return {"cycles": done, "latencies_s": latencies, "scales": scales, "failed": failed}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    source = os.path.realpath(opteleport.__file__)
    if not source.startswith(os.path.join(os.path.realpath(ROOT), "src") + os.sep):
        print(f"opteleport imported from {source}, not from this checkout", file=sys.stderr)
        return 2

    reference = Reference()
    first = reference.sample()
    set_default_seed(args.seed)
    certs = workloads.BUILDERS[args.workload](args.seed)
    # interpreter start, imports and input generation, less the first sample
    head = time.monotonic() - args.spawned_at - first
    warm = timed_phase(certs, None, 1, reference, None, [])  # warm-up, discarded
    record = {
        "setup_wall_s": head + sum(warm["latencies_s"]),
        "setup_s": head * REFERENCE_S / first
        + sum(x * f for x, f in zip(warm["latencies_s"], warm["scales"])),
    }
    log: list[str] = []
    record.update(
        environment=environment(),
        certificates_per_cycle=len(certs),
        untraced=timed_phase(certs, args.seconds, None, reference, None, log),
    )
    if args.trace:
        cycles = record["untraced"]["cycles"]
        tracer = Tracer()
        tracer.install()
        try:
            record["traced"] = timed_phase(certs, None, cycles, reference, tracer, log)
        finally:
            tracer.uninstall()
        record["layers"] = layer_metrics(tracer, cycles, len(certs))
        record["count_mismatches"] = [
            key for key in COUNT_METRICS if any(c[key] != tracer.cycles[0][key] for c in tracer.cycles)
        ]
        os.makedirs(OUT_DIR, exist_ok=True)
        names = [(i, f"cycle{i // len(certs)}.{certs[i % len(certs)].name}") for i in range(cycles * len(certs))]
        tracer.write_spans(
            os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json.gz"), names
        )
    record["problems"] = log[:20]
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(record))
    return 0


def layer_metrics(tracer: Tracer, cycles: int, per_cycle: int) -> dict:
    first = tracer.cycles[0]
    out: dict = {key: first[key] for key in COUNT_METRICS}
    rows = first["linalg.span_onb.rows"]
    out["linalg.span_onb.rank_ratio"] = first["linalg.span_onb.rank"] / rows if rows else 0.0
    out["tracing.spans"] = sum(1 for span in tracer.spans if span[4] < per_cycle)
    totals = tracer.self_seconds()
    for group in SHARED_SELF_TIME_GROUPS + PARTIAL_SELF_TIME_GROUPS:
        out[f"{group}.self_s"] = totals.get(group, 0.0) / cycles
    return out


if __name__ == "__main__":
    sys.exit(main())
