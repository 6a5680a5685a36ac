"""Tests for the synthetic Table-I dataset stand-ins (repro.datasets)."""
import hashlib
import tracemalloc

import numpy as np
import pandas as pd
import pytest

from repro import datasets as D

SMALL = D.DatasetSpec("small", 100_000, 5_000, 1_000_000, 1 / 100)

# sha256 of each catalog stream's (t, user, item) int64 bytes, as the
# lexsort-based generator produced them: every paper gate, table and
# test reads these exact streams, so generation must not change a byte.
STREAM_SHA256 = {
    ("sanjose", 0): "376022dbed73547e232ae4c452a7a9ebed3b786a218f11329b252c54b54bc21e",
    ("sanjose", 1): "abb31f7ac36e813dae4361294bc8cbb6caa97eb3d4569e3a3563f21456784300",
    ("chicago", 0): "93a85059a5b111daf0df7edc29dcbb77b966a860ea84fb8abe49955972a77d60",
    ("chicago", 1): "e8b85160fad1dc577d26218ee8148bc24112dc0a45292502d4006901a5334f28",
    ("twitter", 0): "75bad33a2441311d25308e66729286d4dad732b6518ef18e8fd88ef8a893c223",
    ("twitter", 1): "31fffcccf7d85ba93e067c0bf4678c82ad9e1c023dd7ba8ac26a28856cf278de",
    ("flickr", 0): "3024150fa3c60365f7106953c120e41923b4d13015981eae7adbc20befa3b81e",
    ("flickr", 1): "f7cf1d863083b0d5da34bfaec2af0de248582a90a17154e8682f8b7772991250",
    ("orkut", 0): "1698588e75276cc23ecc5d2e70659266c0e1d927247d1ef5ba44dfb3976d8119",
    ("orkut", 1): "9d6becda2606159e1395a8c2ec95397b046d28ebd87717e0f1704838c7c6d431",
    ("livejournal", 0): "72ee4ea3fcd36bd76cfc7ba09608004def268c99bba5db10cc6520aaba194bfb",
    ("livejournal", 1): "82ba4ce65497bcde58ee8b00f8bb8233772a1a75a87d44a5d0cb284fc91e0e1c",
}


class TestSpecScaling:
    @pytest.mark.parametrize("name", list(D.CATALOG))
    def test_scaled_targets_positive(self, name):
        spec = D.CATALOG[name]
        assert spec.users > 1000
        assert 1 <= spec.max_card <= spec.total_card
        assert spec.total_card < 1_000_000  # minutes-scale budget

    @pytest.mark.parametrize("name", list(D.CATALOG))
    def test_load_factor_preserved(self, name):
        # M is chosen so n_total/M matches the paper's row exactly
        spec = D.CATALOG[name]
        ours = spec.total_card / spec.M_bits
        assert ours == pytest.approx(spec.paper_load_factor, rel=1e-6)

    def test_catalog_is_the_papers_table(self):
        assert set(D.CATALOG) == {
            "sanjose", "chicago", "twitter", "flickr", "orkut", "livejournal",
        }
        assert D.CATALOG["twitter"].paper_total_card == 1_468_365_182


class TestParetoCalibration:
    @pytest.mark.parametrize("name", list(D.CATALOG))
    def test_hits_targets(self, name):
        spec = D.CATALOG[name]
        cards = spec.cardinalities
        assert len(cards) == spec.users
        assert cards.max() == spec.max_card
        assert cards.min() >= 1
        # bisection should land within 2% of the target total
        assert abs(cards.sum() / spec.total_card - 1) < 0.02

    @pytest.mark.parametrize("name", list(D.CATALOG))
    def test_small_users_dominate(self, name):
        # real degree distributions: a large share of cardinality-1..2
        # users (this is what the Pareto body restores vs rank-size)
        cards = D.CATALOG[name].cardinalities
        assert (cards <= 2).mean() > 0.2

    def test_monotone_decreasing(self):
        cards = D._pareto_cardinalities(1000, 500, 1.7)
        assert (np.diff(cards) <= 0).all()

    def test_alpha_monotone_in_total(self):
        # heavier totals need flatter tails (smaller alpha)
        a_light = D._calibrate_alpha(10_000, 5_000, 30_000)
        a_heavy = D._calibrate_alpha(10_000, 5_000, 300_000)
        assert a_heavy < a_light


class TestGenerateStream:
    @pytest.fixture(scope="class")
    def stream(self):
        return D.generate_stream(SMALL, seed=3)

    def test_schema_and_arrival_index(self, stream):
        assert list(stream.columns) == ["t", "user", "item"]
        assert np.array_equal(stream["t"].to_numpy(), np.arange(len(stream)))

    def test_deterministic_in_seed(self):
        a = D.generate_stream(SMALL, seed=5)
        b = D.generate_stream(SMALL, seed=5)
        pd.testing.assert_frame_equal(a, b)
        c = D.generate_stream(SMALL, seed=6)
        assert not a["user"].equals(c["user"])

    def test_contains_duplicates(self, stream):
        # dup_factor 1.5 -> stream is ~1.5x the number of distinct pairs
        n_pairs = len(stream.drop_duplicates(["user", "item"]))
        assert 1.3 < len(stream) / n_pairs < 1.7

    def test_summary_matches_targets(self, stream):
        s = D.stream_summary(stream)
        assert abs(s["total_cardinality"] / SMALL.total_card - 1) < 0.05
        assert abs(s["max_cardinality"] / SMALL.max_card - 1) < 0.10
        assert s["users"] == pytest.approx(SMALL.users, rel=0.05)

    def test_heavy_tail_present(self, stream):
        truth = D.true_cardinalities(stream)
        # skew bounded by the spec: max/median ratio follows the target
        # ratio (50/…) rather than a uniform distribution's ~1
        assert truth.max() > 4 * truth.median()

    def test_heavy_tail_catalog_scale(self):
        # at catalog scale the tail is orders of magnitude above median
        truth = D.true_cardinalities(
            D.generate_stream(D.CATALOG["flickr"], seed=0)
        )
        assert truth.max() > 30 * truth.median()

    def test_items_shared_across_users(self, stream):
        # items come from a shared universe (real-graph property), so a
        # visible fraction recurs under multiple users
        per_item_users = stream.groupby("item")["user"].nunique()
        assert (per_item_users > 1).mean() > 0.05


class TestStreamLayout:
    @pytest.mark.parametrize("name,seed", list(STREAM_SHA256))
    def test_stream_bytes_pinned(self, name, seed):
        stream = D.generate_stream(D.CATALOG[name], seed)
        assert (stream.dtypes == np.int64).all()
        data = np.ascontiguousarray(stream.to_numpy()).tobytes()
        assert hashlib.sha256(data).hexdigest() == STREAM_SHA256[name, seed]

    def test_generation_memory_peak_bounded(self):
        # the frame is one int64 block filled in place: transient memory
        # stays below 1.5x the output on top of the output itself
        spec = D.CATALOG["flickr"]
        spec.cardinalities  # cached calibration, not part of generation
        tracemalloc.start()
        try:
            stream = D.generate_stream(spec, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * stream.memory_usage(index=False).sum()

    def test_packed_key_overflow_raises(self):
        # user * universe + item must fit 63 bits: 2 users x 2^61 items
        # do, 2 users x 2^62 items do not
        keys = D._distinct_pairs(np.array([1, 1]), 1 << 61, seed=0)
        assert len(keys) == 2 and keys[1] >> 61 == 1
        with pytest.raises(ValueError, match="63-bit"):
            D._distinct_pairs(np.array([1, 1]), 1 << 62, seed=0)


class TestTruthAgainstOracle:
    def test_true_cardinalities_match_duckdb(self, spark):
        """Ground truth is oracle-verified: Spark countDistinct == DuckDB."""
        import pyspark.sql.functions as F

        from repro.oracle import assert_equivalent

        stream = D.generate_stream(SMALL, seed=1).head(20_000)
        sdf = spark.createDataFrame(stream)
        got = sdf.groupBy("user").agg(
            F.countDistinct("item").alias("cardinality")
        )
        assert_equivalent(
            got,
            "SELECT user, COUNT(DISTINCT item) AS cardinality "
            "FROM edges GROUP BY user",
            edges=stream,
        )
        # and the pandas helper agrees with Spark
        truth = D.true_cardinalities(stream)
        got_pd = got.toPandas().set_index("user")["cardinality"].sort_index()
        assert got_pd.equals(truth.sort_index().astype(got_pd.dtype))
