"""Event-log and query-progress parsers, on small recorded samples."""
import json
import shutil
import subprocess
from pathlib import Path

import pytest

from perfbench.telemetry import (
    SPARK_FIELDS,
    progress_rows,
    read_event_log,
    spark_op_metrics,
    timed_op_metrics,
)

DATA = Path(__file__).parent / "data"


def test_event_log_sample_aggregates_per_operation():
    events = read_event_log(DATA / "events_sample.jsonl")
    assert len(events) == 5
    m = spark_op_metrics(events)
    assert set(m) == {"hllpp#1"}
    got = m["hllpp#1"]
    assert set(got) == set(SPARK_FIELDS)
    assert got["tasks"] == 3
    assert got["wall_s"] == pytest.approx(9.329)
    assert got["executor_run_s"] == pytest.approx(0.895)
    assert got["python_run_s"] == pytest.approx(0.590)
    assert got["max_task_s"] == pytest.approx(0.478)
    assert got["shuffle_bytes_written"] == 73755
    assert got["shuffle_records_written"] == 5000
    assert got["gc_s"] == 0 and got["sort_s"] == 0 and got["python_bytes_sent"] == 0


def _task(stage, run_ms, acc):
    return {
        "Event": "SparkListenerTaskEnd",
        "Stage ID": stage,
        "Task Info": {
            "Launch Time": 0,
            "Finish Time": run_ms,
            "Accumulables": [{"Name": k, "Update": str(v)} for k, v in acc.items()],
        },
        "Task Metrics": {"Executor Run Time": run_ms, "JVM GC Time": 5},
    }


def test_untagged_jobs_are_ignored_and_units_scaled():
    events = [
        {"Event": "SparkListenerJobStart", "Job ID": 0, "Submission Time": 0,
         "Stage IDs": [0], "Properties": {}},
        {"Event": "SparkListenerJobStart", "Job ID": 1, "Submission Time": 1000,
         "Stage IDs": [1, 2], "Properties": {"perfbench.op": "cse#2"}},
        _task(0, 9999, {"time to run Python workers": 9999}),
        _task(1, 200, {"data sent to Python workers": 4096, "sort time": 30}),
        _task(2, 100, {"time to run Python workers": 80, "unrelated": 7}),
        {"Event": "SparkListenerJobEnd", "Job ID": 1, "Completion Time": 3500},
        {"Event": "SparkListenerJobEnd", "Job ID": 0, "Completion Time": 99999},
    ]
    m = spark_op_metrics(events)
    assert set(m) == {"cse#2"}
    got = m["cse#2"]
    assert got["wall_s"] == pytest.approx(2.5)
    assert got["tasks"] == 2
    assert got["python_bytes_sent"] == 4096
    assert got["sort_s"] == pytest.approx(0.030)
    assert got["python_run_s"] == pytest.approx(0.080)
    assert got["max_task_s"] == pytest.approx(0.2)
    assert got["gc_s"] == pytest.approx(0.010)


def test_rolling_log_directory_and_zstd_file(tmp_path):
    if shutil.which("zstd") is None:
        pytest.skip("zstd CLI not installed")
    d = tmp_path / "eventlog_v2_local-1"
    d.mkdir()
    shutil.copy(DATA / "events_sample.jsonl", d / "events_1_local-1")
    subprocess.run(["zstd", "-q", str(d / "events_1_local-1"), "-o", str(d / "events_2_local-1.zst")],
                   check=True)
    (d / "appstatus_local-1").write_text("")
    events = read_event_log(tmp_path)
    assert len(events) == 10
    assert spark_op_metrics(events)["hllpp#1"]["tasks"] == 6


def test_progress_sample_rows():
    progress = json.loads((DATA / "progress_sample.json").read_text())
    rows = progress_rows(progress)
    assert len(rows) == sum(1 for p in progress if p["numInputRows"] > 0)
    r = rows[0]
    p = next(p for p in progress if p["numInputRows"] > 0)
    st = p["stateOperators"][0]
    assert r["trigger_ms"] == p["durationMs"]["triggerExecution"]
    assert r["add_batch_ms"] == p["durationMs"]["addBatch"]
    assert r["state_commit_ms"] == st["commitTimeMs"]
    assert r["state_rows"] == st["numRowsTotal"]
    assert r["state_store_instances"] == 64
    assert r["input_rows"] == p["numInputRows"]


def test_progress_skips_empty_batches_and_missing_phases():
    rows = progress_rows([
        {"numInputRows": 0, "durationMs": {"triggerExecution": 5}},
        {"numInputRows": 10, "durationMs": {"triggerExecution": 7}},
    ])
    assert len(rows) == 1
    assert rows[0]["trigger_ms"] == 7 and rows[0]["add_batch_ms"] == 0
    assert rows[0]["state_rows"] == 0


def _tagged_job(job, tag, start, end, run_ms):
    return [
        {"Event": "SparkListenerJobStart", "Job ID": job, "Submission Time": start,
         "Stage IDs": [job], "Properties": {"perfbench.op": tag}},
        _task(job, run_ms, {}),
        {"Event": "SparkListenerJobEnd", "Job ID": job, "Completion Time": end},
    ]


def test_timed_op_metrics_skip_warm_up_and_take_medians():
    events = (
        _tagged_job(0, "freebs#0", 0, 9000, 900)  # warm-up
        + _tagged_job(1, "freebs#1", 0, 1000, 100)
        + _tagged_job(2, "freebs#2", 0, 3000, 300)
        + _tagged_job(3, "freebs#3", 0, 2000, 200)
        + _tagged_job(4, "other#1", 0, 5000, 500)
    )
    got = timed_op_metrics(events, ["freebs"])
    assert set(got) == {"freebs"}
    assert got["freebs"]["wall_s"] == (pytest.approx(2.0), 3)
    assert got["freebs"]["max_task_s"] == (pytest.approx(0.2), 3)
    assert got["freebs"]["tasks"] == (1, 3)
