"""Spark batch FreeBS/FreeRS must equal the local reference exactly.

Also ties the estimators to oracle-verified ground truth: the truth the
estimates are compared against is itself checked Spark-vs-DuckDB.
"""
import numpy as np
import pandas as pd
import pyspark.sql.functions as F
import pytest

from repro.core import (
    freebs_spark,
    freebs_spark_trace,
    freebs_trace,
    freers_spark,
    freers_spark_trace,
    freers_trace,
)
from repro.core.freebs import estimates_from_trace
from repro.oracle import assert_equivalent


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
def small(spark):
    pdf = _stream_pdf(40, 800, 6000, 0)
    return pdf, spark.createDataFrame(pdf).repartition(8)


class TestFreeBsSpark:
    @pytest.mark.parametrize("M", [256, 4096])
    def test_trace_matches_local(self, small, M):
        pdf, sdf = small
        got = (
            freebs_spark_trace(sdf, M)
            .toPandas()
            .sort_values("t")
            .reset_index(drop=True)
        )
        want = freebs_trace(pdf["user"].to_numpy(), pdf["item"].to_numpy(), M)
        assert np.array_equal(got["t"], want["t"])
        assert np.array_equal(got["user"], want["user"])
        # the ordered pass runs the numpy kernel: bit-exact
        assert np.array_equal(got["contrib"], want["contrib"])

    def test_estimates_match_local(self, small):
        pdf, sdf = small
        got = (
            freebs_spark(sdf, 1024)
            .toPandas()
            .set_index("user")["estimate"]
            .sort_index()
        )
        want = estimates_from_trace(
            freebs_trace(pdf["user"].to_numpy(), pdf["item"].to_numpy(), 1024)
        ).sort_index()
        np.testing.assert_allclose(got.to_numpy(), want.to_numpy(), rtol=1e-9)
        assert got.index.equals(want.index)


class TestFreeRsSpark:
    @pytest.mark.parametrize("M", [128, 2048])
    def test_trace_matches_local(self, small, M):
        pdf, sdf = small
        got = (
            freers_spark_trace(sdf, M)
            .toPandas()
            .sort_values("t")
            .reset_index(drop=True)
        )
        want = freers_trace(pdf["user"].to_numpy(), pdf["item"].to_numpy(), M)
        assert np.array_equal(got["t"], want["t"])
        assert np.array_equal(got["user"], want["user"])
        # the ordered pass runs the numpy kernel: bit-exact
        assert np.array_equal(got["contrib"], want["contrib"])

    def test_estimates_match_local(self, small):
        pdf, sdf = small
        got = (
            freers_spark(sdf, 512)
            .toPandas()
            .set_index("user")["estimate"]
            .sort_index()
        )
        want = (
            freers_trace(pdf["user"].to_numpy(), pdf["item"].to_numpy(), 512)
            .groupby("user")["contrib"]
            .sum()
            .sort_index()
        )
        np.testing.assert_allclose(got.to_numpy(), want.to_numpy(), rtol=1e-9)


class TestAgainstOracleTruth:
    def test_estimates_near_oracle_verified_truth(self, spark, small):
        pdf, sdf = small
        truth_df = sdf.groupBy("user").agg(
            F.countDistinct("item").alias("cardinality")
        )
        assert_equivalent(
            truth_df,
            "SELECT user, COUNT(DISTINCT item) AS cardinality "
            "FROM edges GROUP BY user",
            edges=pdf,
        )
        truth = truth_df.toPandas().set_index("user")["cardinality"]
        for fn, M in [(freebs_spark, 1 << 16), (freers_spark, 1 << 14)]:
            est = fn(sdf, M).toPandas().set_index("user")["estimate"]
            joined = pd.DataFrame({"n": truth, "e": est}).fillna(0.0)
            rel = (joined["e"] - joined["n"]) / joined["n"]
            # lightly-loaded array: estimates within a few percent
            assert abs(rel.mean()) < 0.05
            assert np.sqrt((rel**2).mean()) < 0.2
