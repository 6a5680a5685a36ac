"""What every workload shares: set-up timing, samples, metrics, memory."""
from __future__ import annotations

import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

from perfbench.checks import Ledger
from perfbench.session import stop_spark
from perfbench.stats import summarize

SKETCH_SEED = 0  # hash seed of every sketch; the workload seed drives the data
W = 5  # FreeRS/vHLL register width: M_bits / W registers share the memory


class Workload:
    """One closed-loop workload: ``setup()``, then ``run_pass()`` repeatedly.

    Subclasses fill ``self.config`` (datasets, M values) and time their
    operations through ``self.ledger``; set-up steps that belong to a
    layer are timed into ``self.layer_samples``.
    """

    def __init__(self, seed: int, trace: bool, out: Path):
        self.seed = seed
        self.trace = trace
        self.out = out
        self.ledger = Ledger()
        self.layer_samples: dict[str, list[float]] = defaultdict(list)
        self.config: dict[str, Any] = {"seed": seed, "sketch_seed": SKETCH_SEED}
        self.spark = None  # set by the workloads that start Spark
        self.jvm_pid: int | None = None

    # -- to implement ---------------------------------------------------
    def setup(self) -> None:
        """Inputs, references, engine start and one untimed warm-up pass."""
        raise NotImplementedError

    def run_pass(self, i: int, keep: bool = True) -> None:
        """One closed-loop pass; ``keep=False`` is the untimed warm-up."""
        raise NotImplementedError

    def has_pass(self) -> bool:
        """Whether inputs remain for another pass."""
        return True

    def throughput(self) -> dict[str, float]:
        """``freebs_edges_per_s`` and ``freers_edges_per_s``."""
        raise NotImplementedError

    def pass_ops(self) -> list[str]:
        """Ledger operation names that make up one pass."""
        raise NotImplementedError

    def collect_layers(self) -> dict[str, tuple[float, int]]:
        """Per-layer values ``name -> (value, sample count)``, traced runs only."""
        return {}

    def close(self) -> None:
        """Stop Spark, if started, and wait for its processes to exit."""
        if self.spark is not None:
            self.record_jvm_peak()
            stop_spark(self.spark)
            self.spark = None

    # -- shared ---------------------------------------------------------
    def phase(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run a set-up phase and record its time in the config block."""
        t0 = time.perf_counter()
        result = fn()
        self.config.setdefault("setup_phases_s", {})[name] = time.perf_counter() - t0
        return result

    def timed_setup(self, layer: str, fn: Callable[[], Any]) -> Any:
        """Run a set-up step and record its time as a layer sample."""
        t0 = time.perf_counter()
        result = fn()
        self.layer_samples[layer].append(time.perf_counter() - t0)
        return result

    def median(self, op: str) -> float:
        samples = self.ledger.samples.get(op)
        if not samples:
            raise RuntimeError(f"no successful sample of {op}")
        return statistics.median(samples)

    def pass_s(self) -> float:
        """Median time of one pass: the sum of its operations' medians."""
        return sum(self.median(op) for op in self.pass_ops())

    def record_jvm_peak(self) -> None:
        """Read the Spark JVM's peak RSS; call while the JVM still runs."""
        if self.jvm_pid is not None:
            self.config["jvm_peak_rss_mb"] = _vm_hwm_kb(self.jvm_pid) / 1024.0

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the benchmark (driver) process.

        The Spark JVM's peak is reported in the config block only: its
        heap grows with GC timing, so it varies by 10% between runs.
        """
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def op_summaries(self) -> dict[str, dict]:
        return {op: summarize(s) for op, s in sorted(self.ledger.samples.items())}

    def ops_layer(self, ops: list[str]) -> tuple[float, int]:
        """Sum of operations' median times, with the smallest sample count."""
        return (
            sum(self.median(op) for op in ops),
            min(len(self.ledger.samples[op]) for op in ops),
        )

    def setup_layers(self) -> dict[str, tuple[float, int]]:
        """Set-up layers: total time over their calls, with the call count."""
        return {k: (sum(v), len(v)) for k, v in self.layer_samples.items() if v}


def _vm_hwm_kb(pid: int) -> int:
    """``VmHWM`` (peak RSS) of a process, from ``/proc``; 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0
