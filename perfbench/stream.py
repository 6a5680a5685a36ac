"""``stream``: the Structured Streaming drivers on flickr micro-batches.

A prefix of the flickr stand-in is written with ``write_stream_batches``
as parquet files of ``BATCH_EDGES`` edges, one staging directory per
query. Three queries replay it with ``maxFilesPerTrigger=1``:
``freebs_stateful`` and ``freers_stateful`` (one group key holding the
whole sketch) and ``hllpp_stateful`` (one small state per user). Each
operation moves the next file into a query's source directory and runs
that query with ``availableNow`` from its checkpoint, so it processes
exactly one micro-batch and its state carries over. Each query reads its
own copy of the batches in order; a pass feeds each query its next batch.

The untimed warm-up is one FreeBS micro-batch: it starts the Python
workers and loads the stateful-operator code, which is most of a first
batch's extra cost. A first FreeRS or HLL++ batch after it costs about
what later batches cost, and a whole warm-up pass would add ~16 s of
set-up to every run.

References: FreeBS/FreeRS output rows of a batch must equal the numpy
trace rows of that batch's edges (same ``t`` and user, contributions at
rtol 1e-9); HLL++ output must hold exactly the batch's users with the
estimates ``HllPerUser`` has after the batch (rtol 1e-9).
"""
from __future__ import annotations

import json
import os
import statistics
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pandas as pd

from perfbench.base import SKETCH_SEED, W, Workload
from perfbench.checks import assert_same_estimates, assert_same_trace
from perfbench.names import ESTIMATORS, STREAM_FIELDS, STREAM_QUERIES
from perfbench.session import session_conf, start_spark
from perfbench.telemetry import OP_PROPERTY, progress_rows, read_event_log, timed_op_metrics
from repro.baselines import HllPerUser
from repro.core import freebs_trace, freers_trace
from repro.datasets import CATALOG, generate_stream
from repro.streaming import (
    freebs_stateful,
    freers_stateful,
    hllpp_stateful,
    read_edge_stream,
    write_stream_batches,
)

DATASET = "flickr"
BATCH_EDGES = 5_000
N_BATCHES = 12  # per query; bounds the number of passes
M_BITS = 1 << 20  # streaming-demo size; FreeRS uses M_BITS // W registers
HLL_M = 64  # registers per user (6-bit)
MODES = {"freebs": "append", "freers": "append", "hllpp": "update"}


class Stream(Workload):
    def setup(self) -> None:
        spec = CATALOG[DATASET]
        full = self.timed_setup(
            "datasets.generate_stream_s", lambda: generate_stream(spec, seed=self.seed)
        )
        self.edges = full.head(N_BATCHES * BATCH_EDGES).reset_index(drop=True)
        self.M = {"freebs": M_BITS, "freers": M_BITS // W}
        stage = self.out / "stage"
        self.staged = {
            q: self.timed_setup(
                "source.write_stream_batches_s",
                lambda: write_stream_batches(self.edges, stage / q, N_BATCHES),
            )
            for q in STREAM_QUERIES
        }
        self.sources = {q: self.out / "source" / q for q in STREAM_QUERIES}
        for d in self.sources.values():
            d.mkdir(parents=True)
        conf = session_conf(self.out / "tmp", self.out / "eventlog" if self.trace else None)
        self.config.update(
            {
                "spark_conf": conf,
                f"dataset.{DATASET}": {
                    "edges": len(self.edges),
                    "batch_edges": BATCH_EDGES,
                    "batches": N_BATCHES,
                },
                "M": {**self.M, "hllpp_m_per_user": HLL_M},
            }
        )
        self.next_batch = dict.fromkeys(STREAM_QUERIES, 0)
        self.progress: dict[str, list[dict]] = {q: [] for q in STREAM_QUERIES}
        self.output_rows: dict[str, list[int]] = {q: [] for q in STREAM_QUERIES}
        # the references are computed while Spark starts
        with ThreadPoolExecutor(max_workers=1) as pool:
            refs = pool.submit(self._references)
            self.spark, self.jvm_pid = self.phase("spark_start", lambda: start_spark(conf))
            self.phase("references_wait", refs.result)
        self.queries = {
            "freebs": lambda df: freebs_stateful(df, self.M["freebs"], seed=SKETCH_SEED),
            "freers": lambda df: freers_stateful(df, self.M["freers"], seed=SKETCH_SEED, w=W),
            "hllpp": lambda df: hllpp_stateful(df, m=HLL_M, seed=SKETCH_SEED),
        }
        self.phase("warm_up", lambda: self._step("freebs", 0, keep=False))

    def _references(self) -> None:
        users = self.edges["user"].to_numpy(np.int64)
        items = self.edges["item"].to_numpy(np.int64)
        self.traces = {
            "freebs": freebs_trace(users, items, self.M["freebs"], seed=SKETCH_SEED),
            "freers": freers_trace(users, items, self.M["freers"], seed=SKETCH_SEED, w=W),
        }
        bounds = [(b + 1) * BATCH_EDGES for b in range(N_BATCHES)]
        snaps = HllPerUser(m=HLL_M, seed=SKETCH_SEED).run(users, items, checkpoints=bounds)
        self.hll_snaps = {b: pd.Series(snaps[hi], dtype=np.float64) for b, hi in enumerate(bounds)}

    def has_pass(self) -> bool:
        return max(self.next_batch.values()) < N_BATCHES

    def _micro_batch(self, q: str, b: int, tag: str) -> tuple[list[pd.DataFrame], list[dict]]:
        """Feed batch ``b`` to query ``q`` and run it: output frames, progress.

        ``tag`` marks the batch's Spark jobs for the event log.
        """
        staged = self.staged[q][b]
        os.replace(staged, self.sources[q] / staged.name)
        frames: list[pd.DataFrame] = []

        def collect(df, batch_id):
            # runs on the callback thread: tag the job that computes the batch
            df.sparkSession.sparkContext.setLocalProperty(OP_PROPERTY, tag)
            frames.append(df.toPandas())

        self.spark.sparkContext.setLocalProperty(OP_PROPERTY, tag)
        query = (
            self.queries[q](read_edge_stream(self.spark, self.sources[q]))
            .writeStream.foreachBatch(collect)
            .outputMode(MODES[q])
            .option("checkpointLocation", str(self.out / "checkpoint" / q))
            .trigger(availableNow=True)
            .start()
        )
        query.awaitTermination()
        if query.exception() is not None:
            raise RuntimeError(str(query.exception()))
        return frames, [json.loads(p.json) for p in query.recentProgress]

    def _check(self, q: str, b: int, frames: list[pd.DataFrame]) -> None:
        got = pd.concat(frames, ignore_index=True) if frames else pd.DataFrame()
        lo, hi = b * BATCH_EDGES, (b + 1) * BATCH_EDGES
        if q in ESTIMATORS:
            ref = self.traces[q]
            assert_same_trace(got, ref[(ref["t"] >= lo) & (ref["t"] < hi)], rtol=1e-9)
        else:
            touched = np.unique(self.edges["user"].to_numpy()[lo:hi])
            want = self.hll_snaps[b].reindex(touched)
            assert_same_estimates(got.set_index("user")["estimate"], want, rtol=1e-9)

    def _step(self, q: str, i: int, keep: bool = True) -> None:
        """Run query ``q`` on its next batch as one timed, checked operation."""
        b = self.next_batch[q]
        self.next_batch[q] += 1
        result = self.ledger.timed(
            q,
            lambda: self._micro_batch(q, b, tag=f"{q}#{i}"),
            lambda r: self._check(q, b, r[0]),
            keep=keep,
        )
        self.spark.sparkContext.setLocalProperty(OP_PROPERTY, None)
        if result is not None and keep:
            frames, progress = result
            self.progress[q].extend(progress)
            self.output_rows[q].append(sum(len(f) for f in frames))

    def run_pass(self, i: int, keep: bool = True) -> None:
        for q in STREAM_QUERIES:
            self._step(q, i, keep)

    def pass_ops(self) -> list[str]:
        return list(STREAM_QUERIES)

    def batch_ms(self, q: str) -> float:
        """Median ``triggerExecution`` of the query's timed non-empty batches."""
        return statistics.median(r["trigger_ms"] for r in progress_rows(self.progress[q]))

    def throughput(self) -> dict[str, float]:
        return {f"{e}_edges_per_s": BATCH_EDGES / (self.batch_ms(e) / 1000.0) for e in ESTIMATORS}

    def collect_layers(self) -> dict[str, tuple[float, int]]:
        (self.out / "progress.json").write_text(json.dumps(self.progress, indent=1))
        out = {}
        for q in STREAM_QUERIES:
            rows = progress_rows(self.progress[q])
            for f in STREAM_FIELDS:
                if rows and f in rows[0]:
                    out[f"stream.{q}.{f}"] = (statistics.median(r[f] for r in rows), len(rows))
            if self.output_rows[q]:
                out[f"stream.{q}.output_rows"] = (
                    statistics.median(self.output_rows[q]),
                    len(self.output_rows[q]),
                )
        jobs = timed_op_metrics(read_event_log(self.out / "eventlog"), STREAM_QUERIES)
        for q, fields in jobs.items():
            out[f"stream.{q}.python_run_s"] = fields["python_run_s"]
        return out
