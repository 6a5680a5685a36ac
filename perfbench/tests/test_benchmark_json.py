"""BENCHMARK.json names exactly the metrics the benchmark prints."""
import json
from pathlib import Path

from perfbench.names import END_TO_END, WORKLOADS, per_layer_units

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer_units()


def test_workloads_match():
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS
