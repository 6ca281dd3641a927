"""Metric names and units shared by the benchmark's parent and child processes."""

LAYERS = ["linalg", "algebra", "inclusion", "tower", "bases", "teleport", "qgraph", "cli", "reporting"]

END_TO_END_UNITS = {
    "certs_per_s": "1/s",
    "cert_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Printed for information only, not part of the result line: cert_p90_ms has
# at least ten samples beyond it on ladder alone, failed_frac reads 0 on
# every correct run (the result line carries attempted and failed instead),
# and the wall_ figures are the unscaled wall-time twins of the times above.
INFO_UNITS = {
    "cert_p90_ms": "ms",
    "failed_frac": "ratio",
    "wall_certs_per_s": "1/s",
    "wall_cert_p50_ms": "ms",
    "wall_setup_s": "s",
}

# Exact per-cycle counts from the traced run; they must repeat exactly.
COUNT_METRICS = [
    "linalg.span_onb.calls",
    "linalg.span_onb.svd_bytes",
    "linalg.product_span.calls",
    "linalg.span_coords.calls",
    "algebra.from_generators.calls",
    "algebra.basis_bytes",
    "algebra.basis_bytes_max",
    "algebra.trace.calls",
    "algebra.superoperator.calls",
    "tower.gns_left.calls",
    "tower.gns_dim_max",
    "bases.verify_basis.calls",
    "cli.bytes_out",
    "reporting.checks",
] + [f"{layer}.errors" for layer in LAYERS]

# Span groups whose self time every workload exercises.
SHARED_SELF_TIME_GROUPS = [
    "linalg.span_onb",
    "linalg.span_coords",
    "linalg.nullspace",
    "algebra.from_generators",
    "algebra.structure",
    "algebra.expectation",
    "algebra.superoperator",
    "inclusion.construct",
    "inclusion.markov_trace",
    "tower.level1",
    "tower.level2",
    "tower.verify",
    "tower.gns_build",
    "tower.gns_left",
]
# Span groups that some workload never calls.  Their self time reads exactly
# 0 s there on every run, so they are printed and kept in the span file but
# left out of the result line.
PARTIAL_SELF_TIME_GROUPS = [
    "linalg.product_span",
    "linalg.partial_trace",
    "bases.construct",
    "bases.verify_basis",
    "teleport.construct",
    "teleport.verify_scheme",
    "teleport.classify",
    "teleport.extract",
    "qgraph.chromatic_bounds",
    "qgraph.colouring",
    "cli.main",
]

PER_LAYER = (
    COUNT_METRICS
    + ["linalg.span_onb.rank_ratio", "tracing.spans"]
    + [f"{group}.self_s" for group in SHARED_SELF_TIME_GROUPS]
    + ["tracing.overhead_certs_per_s"]
)


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(("_bytes", "_bytes_max", ".bytes_out")):
        return "bytes"
    if name.endswith("rank_ratio"):
        return "ratio"
    if name.endswith("certs_per_s"):
        return "1/s"
    return "count"
