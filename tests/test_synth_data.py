"""Tests for the provided TPC-H-lite generators + graph_stream bridge."""
import numpy as np
import pytest

from repro import synth_data as S


class TestTpchLite:
    def test_lineitem_schema_and_scale(self, spark):
        df = S.lineitem(spark, sf=0.001)
        assert df.count() == 6000
        assert {"l_orderkey", "l_partkey", "l_quantity"} <= set(df.columns)

    def test_orders_keys_dense(self, spark):
        df = S.orders(spark, sf=0.001).toPandas()
        assert df["o_orderkey"].is_unique
        assert df["o_orderkey"].min() == 1

    def test_deterministic_in_seed(self, spark):
        a = S.lineitem(spark, sf=0.0005, seed=3).toPandas()
        b = S.lineitem(spark, sf=0.0005, seed=3).toPandas()
        assert a.equals(b)


class TestGraphStream:
    def test_bridge_to_catalog(self, spark):
        df = S.graph_stream(spark, name="orkut", seed=0)
        assert df.columns == ["t", "user", "item"]
        n = df.count()
        from repro.datasets import CATALOG

        spec = CATALOG["orkut"]
        assert abs(n / (spec.total_card * spec.dup_factor) - 1) < 0.05

    def test_unknown_name_raises(self, spark):
        with pytest.raises(KeyError):
            S.graph_stream(spark, name="nope")
