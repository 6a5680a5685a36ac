"""``spark-batch``: the Spark DataFrame drivers on the cached flickr stand-in.

Each pass runs ``freebs_spark``, ``freers_spark``, ``cse_spark(m=1024)``
and ``vhll_spark(m=1024)`` and collects each job's per-user estimates.
The DataFrame is cached in 16 partitions; the warm-up pass fills the cache.

References, computed once in set-up: FreeBS/FreeRS estimates must equal
the numpy trace sums (rtol 1e-9); CSE/vHLL estimates must equal the
sequential sketches' ``end_state_estimates`` (rtol 1e-12, as in the
test suite). The sequential sketches are given their final array
directly: that state is order-independent (a union of set bits, an
elementwise max of registers), so it is the state a full ``run`` ends in.

Traced runs also time ``freebs_spark_trace``/``freers_spark_trace``
(event count and contribution total checked against numpy) and read the
per-job layer metrics from the Spark event log.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pandas as pd
from pyspark.sql import functions as F

from perfbench.base import SKETCH_SEED, W, Workload
from perfbench.checks import assert_same_estimates
from perfbench.names import ESTIMATORS, SPARK_JOBS
from perfbench.session import session_conf, start_spark
from perfbench.telemetry import OP_PROPERTY, read_event_log, timed_op_metrics
from repro.baselines import CseSketch, VhllSketch, cse_spark, vhll_spark
from repro.baselines.estimators import pow2_neg_table
from repro.core import (
    freebs_spark,
    freebs_spark_trace,
    freebs_trace,
    freers_spark,
    freers_spark_trace,
    freers_trace,
)
from repro.datasets import CATALOG, generate_stream
from repro.hashing import f_user, h_item, rho_item

DATASET = "flickr"
PARTITIONS = 16
VIRTUAL_M = 1024  # CSE/vHLL virtual sketch size
RTOL = {"freebs": 1e-9, "freers": 1e-9, "cse": 1e-12, "vhll": 1e-12}


def cse_reference(users, items, M: int, m: int) -> pd.Series:
    sk = CseSketch(M=M, m=m, seed=SKETCH_SEED)
    pos = f_user(users, h_item(items, m, seed=SKETCH_SEED), M, seed=SKETCH_SEED)
    sk.A[pos] = True
    sk.U = int(M - sk.A.sum())
    return sk.end_state_estimates(np.unique(users))


def vhll_reference(users, items, M: int, m: int) -> pd.Series:
    sk = VhllSketch(M=M, m=m, w=W, seed=SKETCH_SEED)
    pos = f_user(users, h_item(items, m, seed=SKETCH_SEED), M, seed=SKETCH_SEED)
    rho = rho_item(items, cap=sk.cap, seed=SKETCH_SEED).astype(np.uint8)
    np.maximum.at(sk.R, pos, rho)
    sk.global_hsum = float(pow2_neg_table(sk.cap)[sk.R].sum())
    sk.global_zeros = int((sk.R == 0).sum())
    return sk.end_state_estimates(np.unique(users))


class SparkBatch(Workload):
    def setup(self) -> None:
        spec = CATALOG[DATASET]
        pdf = self.timed_setup(
            "datasets.generate_stream_s", lambda: generate_stream(spec, seed=self.seed)
        )
        users = pdf["user"].to_numpy(np.int64)
        items = pdf["item"].to_numpy(np.int64)
        self.n = len(pdf)
        M = spec.M_bits
        self.M = {"freebs": M, "freers": M // W, "cse": M, "vhll": M // W}
        conf = session_conf(self.out / "tmp", self.out / "eventlog" if self.trace else None)
        self.config.update(
            {
                "spark_conf": conf,
                f"dataset.{DATASET}": {"edges": self.n, "partitions": PARTITIONS},
                "M": self.M,
                "virtual_m": VIRTUAL_M,
            }
        )
        # the references are computed while Spark starts
        with ThreadPoolExecutor(max_workers=1) as pool:
            refs = pool.submit(self._references, users, items)
            self.spark, self.jvm_pid = self.phase("spark_start", lambda: start_spark(conf))
            self.df = self.spark.createDataFrame(pdf).repartition(PARTITIONS).cache()
            self.phase("references_wait", refs.result)
        self.jobs = {
            "freebs": lambda: freebs_spark(self.df, self.M["freebs"], seed=SKETCH_SEED),
            "freers": lambda: freers_spark(self.df, self.M["freers"], seed=SKETCH_SEED, w=W),
            "cse": lambda: cse_spark(self.df, self.M["cse"], VIRTUAL_M, seed=SKETCH_SEED),
            "vhll": lambda: vhll_spark(self.df, self.M["vhll"], VIRTUAL_M, w=W, seed=SKETCH_SEED),
        }
        self.phase("warm_up", lambda: self.run_pass(0, keep=False))

    def _references(self, users: np.ndarray, items: np.ndarray) -> None:
        traces = {
            "freebs": freebs_trace(users, items, self.M["freebs"], seed=SKETCH_SEED),
            "freers": freers_trace(users, items, self.M["freers"], seed=SKETCH_SEED),
        }
        self.trace_totals = {e: (len(t), float(t["contrib"].sum())) for e, t in traces.items()}
        self.ref = {e: t.groupby("user")["contrib"].sum() for e, t in traces.items()}
        self.ref["cse"] = cse_reference(users, items, self.M["cse"], VIRTUAL_M)
        self.ref["vhll"] = vhll_reference(users, items, self.M["vhll"], VIRTUAL_M)

    def _tag(self, op: str, i: int) -> None:
        self.spark.sparkContext.setLocalProperty(OP_PROPERTY, f"{op}#{i}")

    def _check_estimates(self, j: str, got: pd.DataFrame) -> None:
        assert_same_estimates(got.set_index("user")["estimate"], self.ref[j], rtol=RTOL[j])

    def _check_trace_total(self, e: str, row) -> None:
        events, total = self.trace_totals[e]
        if row["events"] != events:
            raise AssertionError(f"{row['events']} events, expected {events}")
        np.testing.assert_allclose(row["total"], total, rtol=1e-9)

    def _trace_total(self, e: str):
        fn = freebs_spark_trace if e == "freebs" else freers_spark_trace
        return (
            fn(self.df, self.M[e], seed=SKETCH_SEED)
            .agg(F.count("*").alias("events"), F.sum("contrib").alias("total"))
            .collect()[0]
        )

    def run_pass(self, i: int, keep: bool = True) -> None:
        for j in SPARK_JOBS:
            self._tag(j, i)
            self.ledger.timed(
                j,
                lambda: self.jobs[j]().toPandas(),
                lambda got: self._check_estimates(j, got),
                keep=keep,
            )
        if self.trace:
            for e in ESTIMATORS:
                self._tag(f"{e}_trace", i)
                self.ledger.timed(
                    f"{e}_trace",
                    lambda: self._trace_total(e),
                    lambda row: self._check_trace_total(e, row),
                    keep=keep,
                )
        self.spark.sparkContext.setLocalProperty(OP_PROPERTY, None)

    def pass_ops(self) -> list[str]:
        return list(SPARK_JOBS)

    def throughput(self) -> dict[str, float]:
        return {f"{e}_edges_per_s": self.n / self.median(e) for e in ESTIMATORS}

    def collect_layers(self) -> dict[str, tuple[float, int]]:
        out = {}
        for e in ESTIMATORS:
            out[f"core.{e}_spark_trace_s"] = self.ops_layer([f"{e}_trace"])
        jobs = timed_op_metrics(read_event_log(self.out / "eventlog"), SPARK_JOBS)
        for j, fields in jobs.items():
            out.update({f"spark.{j}.{f}": v for f, v in fields.items()})
        return out
