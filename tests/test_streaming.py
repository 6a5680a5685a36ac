"""Structured Streaming stateful implementations vs batch (exactness).

A streaming run over N micro-batches must produce exactly the same
trace/estimates as one batch pass — state (the shared array and its q
bookkeeping) carries across triggers and across query restarts.
"""
import os

import numpy as np
import pandas as pd
import pytest
from pyspark.errors import StreamingQueryException

from repro.baselines import HllPerUser
from repro.core.freebs import freebs_trace
from repro.core.freers import freers_trace
from repro.streaming import (
    freebs_stateful,
    freers_stateful,
    hllpp_stateful,
    per_user,
    read_edge_stream,
    run_available,
    shared_sketch,
    write_stream_batches,
)

PARTITIONS = "spark.sql.shuffle.partitions"


def _stream_pdf(n_users, n_items, n_edges, seed):
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "t": np.arange(n_edges, dtype=np.int64),
            "user": rng.integers(0, n_users, n_edges),
            "item": rng.integers(0, n_items, n_edges),
        }
    )


@pytest.fixture(scope="module")
def edges_pdf():
    return _stream_pdf(30, 500, 5000, 7)


def _assert_same_trace(got, want):
    assert np.array_equal(got["t"], want["t"])
    assert np.array_equal(got["user"], want["user"])
    # bit-exact: FreeBS adds M/m0 with an integer m0; FreeRS moves S by
    # 2^-ρ - 2^-prev with ρ <= 31, so every partial sum is a multiple
    # of 2^-31 below M·2^31 < 2^53 (M < 2^22) and micro-batch
    # boundaries cannot change a bit
    assert np.array_equal(got["contrib"], want["contrib"])


class TestSharedSketchStreaming:
    @pytest.mark.parametrize(
        "stateful, local, name",
        [
            (freebs_stateful, freebs_trace, "freebs_stream"),
            (freers_stateful, freers_trace, "freers_stream"),
        ],
    )
    def test_streaming_equals_batch(
        self, spark, tmp_path, edges_pdf, stateful, local, name
    ):
        M = 1024
        write_stream_batches(edges_pdf, tmp_path / name, n_batches=5)
        stream = read_edge_stream(spark, tmp_path / name)
        got = (
            run_available(
                stateful(stream, M), shared_sketch.OUTPUT_MODE, tmp_path / "checkpoint"
            )
            .sort_values("t")
            .reset_index(drop=True)
        )
        want = local(
            edges_pdf["user"].to_numpy(), edges_pdf["item"].to_numpy(), M
        )
        _assert_same_trace(got, want)

    def test_state_persists_across_many_batches(self, spark, tmp_path):
        # 1 batch vs 10 batches must agree: state round-trips exactly
        pdf = _stream_pdf(10, 200, 1200, 1)
        M = 256
        results = {}
        for n_batches in (1, 10):
            name = f"freebs_nb{n_batches}"
            write_stream_batches(pdf, tmp_path / name, n_batches=n_batches)
            results[n_batches] = (
                run_available(
                    freebs_stateful(read_edge_stream(spark, tmp_path / name), M),
                    shared_sketch.OUTPUT_MODE,
                    tmp_path / f"{name}_checkpoint",
                )
                .sort_values("t")
                .reset_index(drop=True)
            )
        pd.testing.assert_frame_equal(results[1], results[10])

    @pytest.mark.parametrize(
        "stateful, local", [(freebs_stateful, freebs_trace), (freers_stateful, freers_trace)]
    )
    def test_restart_on_the_checkpoint_equals_batch(
        self, spark, tmp_path, edges_pdf, stateful, local
    ):
        # a query stopped after batch 3 and started again on its checkpoint
        # continues the sketch; the session keeps its own partition count
        M = 1024
        staged = write_stream_batches(edges_pdf, tmp_path / "staged", n_batches=6)
        source, checkpoint = tmp_path / "source", tmp_path / "checkpoint"
        source.mkdir()
        session_partitions = spark.conf.get(PARTITIONS)
        slots = spark.sparkContext.defaultParallelism
        runs = []
        for files in (staged[:3], staged[3:], []):
            for f in files:
                os.replace(f, source / f.name)
            query = stateful(read_edge_stream(spark, source), M)
            runs.append(run_available(query, shared_sketch.OUTPUT_MODE, checkpoint))
            assert spark.conf.get(PARTITIONS) == session_partitions
            stores = [p for p in (checkpoint / "state" / "0").iterdir() if p.name.isdigit()]
            assert len(stores) == slots
        assert runs[2].empty and list(runs[2].columns) == ["t", "user", "contrib"]
        want = local(edges_pdf["user"].to_numpy(), edges_pdf["item"].to_numpy(), M)
        _assert_same_trace(pd.concat(runs[:2], ignore_index=True), want)


class TestInputContract:
    @pytest.mark.parametrize(
        "name, query",
        [
            ("freebs_null", lambda e: (freebs_stateful(e, 1024), shared_sketch.OUTPUT_MODE)),
            ("freers_null", lambda e: (freers_stateful(e, 256), shared_sketch.OUTPUT_MODE)),
            ("hllpp_null", lambda e: (hllpp_stateful(e, m=32), per_user.OUTPUT_MODE)),
        ],
    )
    def test_null_user_fails_the_query(self, spark, tmp_path, name, query):
        pdf = _stream_pdf(5, 50, 20, 0)
        pdf["user"] = pdf["user"].astype("Int64")
        pdf.loc[7, "user"] = pd.NA
        write_stream_batches(pdf, tmp_path / name, n_batches=1)
        message = "edges column 'user' has a null value"
        with pytest.raises(StreamingQueryException, match=message):
            run_available(
                *query(read_edge_stream(spark, tmp_path / name)), tmp_path / "checkpoint"
            )


class TestPerUserStreaming:
    def test_hllpp_streaming_matches_sequential(self, spark, tmp_path, edges_pdf):
        m = 32
        write_stream_batches(edges_pdf, tmp_path / "hllpp", n_batches=4)
        stream = read_edge_stream(spark, tmp_path / "hllpp")
        rows = run_available(
            hllpp_stateful(stream, m=m), per_user.OUTPUT_MODE, tmp_path / "checkpoint"
        )
        # one row per user per batch that touched it, in batch order: the
        # last is the current estimate (not the largest: HLL's switch from
        # linear counting to the raw estimate can lower an estimate)
        got = rows.groupby("user")["estimate"].last().sort_index()
        h = HllPerUser(m=m)
        h.run(edges_pdf["user"].to_numpy(), edges_pdf["item"].to_numpy())
        want = h.final_estimates().sort_index()
        np.testing.assert_allclose(got.to_numpy(), want.to_numpy(), rtol=1e-9)
        assert set(got.index) == set(want.index)
