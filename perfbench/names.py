"""Metric names and units the benchmark reports (mirrored in BENCHMARK.json).

End-to-end metrics are defined on every workload; each workload runs
FreeBS and FreeRS through its own driver (numpy kernel, Spark batch job,
Structured Streaming query). Per-layer metrics are printed on every
traced run; a layer the workload does not run reads 0.
"""
from __future__ import annotations

from perfbench.telemetry import SPARK_FIELDS

WORKLOADS = ("kernel", "spark-batch", "stream")

END_TO_END = {
    "setup_s": "s",
    "ops_ok_frac": "fraction",
    "peak_rss_mb": "MB",
    "freebs_edges_per_s": "1/s",
    "freers_edges_per_s": "1/s",
    "pass_s": "s",
}

DATASETS = ("flickr", "twitter")
ESTIMATORS = ("freebs", "freers")
SPARK_JOBS = ("freebs", "freers", "cse", "vhll")
STREAM_QUERIES = ("freebs", "freers", "hllpp")
STREAM_FIELDS = {
    "add_batch_ms": "ms",
    "wal_commit_ms": "ms",
    "commit_offsets_ms": "ms",
    "query_planning_ms": "ms",
    "state_commit_ms": "ms",
    "state_update_ms": "ms",
    "state_bytes": "bytes",
    "state_rows": "count",
    "state_store_instances": "count",
    "output_rows": "count",
    "python_run_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    u = {
        "datasets.generate_stream_s": "s",
        "source.write_stream_batches_s": "s",
        "hashing.h_star_s": "s",
        "hashing.rho_star_s": "s",
    }
    for e in ESTIMATORS:
        for d in DATASETS:
            u[f"core.{e}_trace_s.{d}"] = "s"
            u[f"core.{e}_events.{d}"] = "count"
            u[f"core.{e}_accept_ratio.{d}"] = "ratio"
            u[f"core.{e}_q_final.{d}"] = "ratio"
    u["analysis.estimates_at_checkpoints_s"] = "s"
    u["analysis.checkpoint_rows_scanned"] = "count"
    for e in ESTIMATORS:
        u[f"core.{e}_spark_trace_s"] = "s"
    for j in SPARK_JOBS:
        for f, unit in SPARK_FIELDS.items():
            u[f"spark.{j}.{f}"] = unit
    for q in STREAM_QUERIES:
        for f, unit in STREAM_FIELDS.items():
            u[f"stream.{q}.{f}"] = unit
    u["tracing.pass_s"] = "s"
    return u
