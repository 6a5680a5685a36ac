"""Readers for Spark's public telemetry: the event log and query progress.

Both parsers are pure functions over decoded JSON, so they are tested on
small recorded samples (``perfbench/tests/data``).

* :func:`read_event_log` / :func:`spark_op_metrics` /
  :func:`timed_op_metrics` — the
  ``spark.eventLog.*`` JSON-lines log, aggregated per benchmark
  operation. An operation is tagged by the local property
  :data:`OP_PROPERTY`, which Spark copies into every job it starts
  (streaming micro-batch jobs inherit it from the thread that started
  the query).
* :func:`progress_rows` — ``StreamingQuery.recentProgress`` entries, one
  row per non-empty micro-batch.
"""
from __future__ import annotations

import json
import statistics
import subprocess
from collections import defaultdict
from pathlib import Path
from typing import Iterable, Iterator

OP_PROPERTY = "perfbench.op"

# per-operation fields aggregated from the event log, with their units
SPARK_FIELDS = {
    "wall_s": "s",
    "executor_run_s": "s",
    "python_run_s": "s",
    "python_bytes_sent": "bytes",
    "shuffle_bytes_written": "bytes",
    "shuffle_records_written": "count",
    "sort_s": "s",
    "max_task_s": "s",
    "tasks": "count",
    "gc_s": "s",
}

# SQL accumulables read from each TaskEnd: name -> (field, scale to unit)
_ACCUMULABLES = {
    "time to run Python workers": ("python_run_s", 1e-3),
    "data sent to Python workers": ("python_bytes_sent", 1.0),
    "sort time": ("sort_s", 1e-3),
}

# per-micro-batch fields read from a progress entry: field -> Spark name
_DURATIONS = {
    "trigger_ms": "triggerExecution",
    "add_batch_ms": "addBatch",
    "wal_commit_ms": "walCommit",
    "commit_offsets_ms": "commitOffsets",
    "query_planning_ms": "queryPlanning",
}
_STATE = {
    "state_commit_ms": "commitTimeMs",
    "state_update_ms": "allUpdatesTimeMs",
    "state_bytes": "memoryUsedBytes",
    "state_rows": "numRowsTotal",
    "state_store_instances": "numStateStoreInstances",
}


def _log_files(path: Path) -> list[Path]:
    """Event-log files under ``path`` (a file, or a rolling-log directory)."""
    if path.is_file():
        return [path]
    return sorted(
        p
        for p in path.rglob("*")
        if p.is_file()
        and (p.name.startswith("events_") or p.name.startswith("local-"))
        and not p.name.endswith(".crc")
    )


def _lines(path: Path) -> Iterator[str]:
    if path.suffix == ".zst":
        # the Python zstandard module is not assumed; the zstd CLI is
        out = subprocess.run(
            ["zstd", "-dc", str(path)], check=True, capture_output=True, text=True
        ).stdout
        yield from out.splitlines()
    else:
        with open(path, encoding="utf-8") as f:
            yield from f


def read_event_log(path: str | Path) -> list[dict]:
    """Decoded events of every log file under ``path``, in file order."""
    events = []
    for f in _log_files(Path(path)):
        for line in _lines(f):
            if line.strip():
                events.append(json.loads(line))
    return events


def spark_op_metrics(
    events: Iterable[dict], prop: str = OP_PROPERTY
) -> dict[str, dict[str, float]]:
    """Per-operation totals of :data:`SPARK_FIELDS` from decoded events.

    Jobs are attributed by their ``prop`` local property; tasks by the
    stage ids their job announced. ``wall_s`` sums job durations
    (submission to completion); ``max_task_s`` is the longest task.
    Jobs without the property are ignored.
    """
    stage_op: dict[int, str] = {}
    job_op: dict[int, tuple[str, int]] = {}
    out: dict[str, dict[str, float]] = {}

    def row(op: str) -> dict[str, float]:
        return out.setdefault(op, dict.fromkeys(SPARK_FIELDS, 0.0))

    for e in events:
        kind = e.get("Event")
        if kind == "SparkListenerJobStart":
            op = (e.get("Properties") or {}).get(prop)
            if op is None:
                continue
            row(op)
            job_op[e["Job ID"]] = (op, e["Submission Time"])
            for s in e.get("Stage IDs", []):
                stage_op[s] = op
        elif kind == "SparkListenerJobEnd" and e["Job ID"] in job_op:
            op, start = job_op[e["Job ID"]]
            row(op)["wall_s"] += (e["Completion Time"] - start) / 1000.0
        elif kind == "SparkListenerTaskEnd" and e.get("Stage ID") in stage_op:
            m = row(stage_op[e["Stage ID"]])
            info = e.get("Task Info") or {}
            tm = e.get("Task Metrics") or {}
            sw = tm.get("Shuffle Write Metrics") or {}
            m["tasks"] += 1
            m["executor_run_s"] += tm.get("Executor Run Time", 0) / 1000.0
            m["gc_s"] += tm.get("JVM GC Time", 0) / 1000.0
            m["shuffle_bytes_written"] += sw.get("Shuffle Bytes Written", 0)
            m["shuffle_records_written"] += sw.get("Shuffle Records Written", 0)
            if "Finish Time" in info and "Launch Time" in info:
                task_s = (info["Finish Time"] - info["Launch Time"]) / 1000.0
                m["max_task_s"] = max(m["max_task_s"], task_s)
            for acc in info.get("Accumulables", []):
                hit = _ACCUMULABLES.get(acc.get("Name"))
                if hit is not None:
                    field, scale = hit
                    m[field] += float(acc.get("Update", 0)) * scale
    return out


def timed_op_metrics(
    events: Iterable[dict], ops: Iterable[str]
) -> dict[str, dict[str, tuple[float, int]]]:
    """Per operation in ``ops``: each field's median over its timed runs.

    Runs are tagged ``<op>#<pass>``; pass 0 is the warm-up and is left
    out. Values are ``(median, number of runs)``.
    """
    runs = defaultdict(list)
    for tag, fields in spark_op_metrics(events).items():
        op, _, i = tag.rpartition("#")
        if op in ops and i != "0":
            runs[op].append(fields)
    return {
        op: {f: (statistics.median(r[f] for r in rows), len(rows)) for f in SPARK_FIELDS}
        for op, rows in runs.items()
    }


def progress_rows(progress: Iterable[dict]) -> list[dict[str, float]]:
    """One row per non-empty micro-batch: phase durations (ms), state
    store figures and ``input_rows``.

    State-operator fields are summed over the query's stateful operators.
    Missing durations read as 0 (Spark omits phases that did not run).
    """
    rows = []
    for p in progress:
        n = p.get("numInputRows") or 0
        if n <= 0:
            continue
        d = p.get("durationMs") or {}
        ops = p.get("stateOperators") or []
        r = {k: float(d.get(v, 0)) for k, v in _DURATIONS.items()}
        r.update({k: float(sum(o.get(v, 0) for o in ops)) for k, v in _STATE.items()})
        r["input_rows"] = float(n)
        rows.append(r)
    return rows
