"""The Spark batch drivers' shared plan: input contract, partitioning
invariance, empty input, and where Python runs.

All four drivers (FreeBS, FreeRS, CSE, vHLL) run Python only in the
``mapInPandas`` passes of ``repro.spark_passes`` and
``repro.baselines.virtual``, each with at most one task per core slot;
everything else is JVM work.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.errors import PythonException

from repro.baselines import cse_spark, vhll_spark
from repro.core import (
    freebs_spark,
    freebs_spark_trace,
    freebs_trace,
    freers_spark,
    freers_spark_trace,
    freers_trace,
)
from repro.spark_passes import estimates_from_trace

DRIVERS = {
    "freebs": lambda e: freebs_spark(e, 512),
    "freers": lambda e: freers_spark(e, 128),
    "cse": lambda e: cse_spark(e, 1 << 12, 64),
    "vhll": lambda e: vhll_spark(e, 1 << 10, 64),
}
TRACES = {
    "freebs": lambda e: freebs_spark_trace(e, 1 << 20),
    "freers": lambda e: freers_spark_trace(e, 1 << 20),
}
EDGE_SCHEMA = "t long, user long, item long"


def _stream_pdf(n_users, n_items, n_edges, seed):
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "t": np.arange(n_edges, dtype=np.int64),
            "user": rng.integers(0, n_users, n_edges),
            "item": rng.integers(0, n_items, n_edges),
        }
    )


def _estimates(df):
    return df.toPandas().set_index("user")["estimate"].sort_index()


class TestInputContract:
    @pytest.mark.parametrize("column", ["user", "item"])
    @pytest.mark.parametrize("name", DRIVERS)
    def test_null_is_rejected_naming_the_column(self, spark, name, column):
        bad = {"t": 1, "user": 3, "item": 4}
        bad[column] = None
        rows = [(0, 1, 2), tuple(bad.values()), (2, 5, 6)]
        edges = spark.createDataFrame(rows, EDGE_SCHEMA)
        message = f"ValueError: edges column '{column}' has a null value"
        with pytest.raises(PythonException, match=message):
            DRIVERS[name](edges).collect()

    @pytest.mark.parametrize("column", ["user", "item"])
    @pytest.mark.parametrize("trace", [freebs_trace, freers_trace])
    def test_numpy_trace_rejects_a_null_naming_the_column(self, trace, column):
        # a NaN cast to int64 would become a phantom user or item
        edges = {"user": np.array([1.0, 3.0, 5.0]), "item": np.array([2.0, 4.0, 6.0])}
        edges[column][1] = np.nan
        message = f"edges column '{column}' has a null value"
        with pytest.raises(ValueError, match=message):
            trace(edges["user"], edges["item"], 64)

    @pytest.mark.parametrize("name", TRACES)
    def test_events_sharing_t_are_rejected(self, spark, name):
        # two edges, two distinct bits/registers (M = 2^20): both are events
        edges = spark.createDataFrame([(7, 1, 2), (7, 3, 4)], EDGE_SCHEMA)
        with pytest.raises(PythonException, match="ValueError: two events share t=7"):
            TRACES[name](edges).collect()
        with pytest.raises(PythonException, match="ValueError: two events share t=7"):
            DRIVERS[name](edges).collect()

    @pytest.mark.parametrize("partitions", [1, 2, 3])
    @pytest.mark.parametrize("estimates", [freebs_spark, freers_spark])
    def test_edges_sharing_t_are_rejected_in_one_bit(
        self, spark, estimates, partitions
    ):
        # M = 1: the second edge is no event, whichever comes first
        edges = spark.createDataFrame([(7, 1, 2), (7, 3, 4)], EDGE_SCHEMA)
        with pytest.raises(PythonException, match="ValueError: two events share t=7"):
            estimates(edges.repartition(partitions), 1).collect()


class TestPartitioningInvariance:
    @pytest.mark.parametrize("name", DRIVERS)
    def test_same_estimates_on_1_3_and_13_partitions(self, spark, name):
        # below, at and above the core count of a 4-core host
        pdf = _stream_pdf(25, 400, 3000, 5)
        runs = [
            _estimates(DRIVERS[name](spark.createDataFrame(pdf).repartition(n)))
            for n in (1, 3, 13)
        ]
        assert len(runs[0]) == pdf["user"].nunique()
        for other in runs[1:]:
            pd.testing.assert_series_equal(runs[0], other, check_exact=True)

    @pytest.mark.parametrize(
        "estimates, trace", [(freebs_spark, freebs_trace), (freers_spark, freers_trace)]
    )
    def test_duplicate_only_stream_equals_numpy_on_1_3_and_13_partitions(
        self, spark, estimates, trace
    ):
        # one pair repeated into M = 8: every task has a local event,
        # only the earliest is an event of the stream
        pdf = pd.DataFrame({"t": np.arange(40), "user": 3, "item": 5})
        want = estimates_from_trace(
            trace(pdf["user"].to_numpy(), pdf["item"].to_numpy(), 8)
        )
        for n in (1, 3, 13):
            got = _estimates(estimates(spark.createDataFrame(pdf).repartition(n), 8))
            pd.testing.assert_series_equal(
                got, want, check_exact=True, check_names=False
            )


class TestEmptyInput:
    @pytest.mark.parametrize("name", DRIVERS)
    def test_estimates_are_empty(self, spark, name):
        got = DRIVERS[name](spark.createDataFrame([], EDGE_SCHEMA)).toPandas()
        assert list(got.columns) == ["user", "estimate"]
        assert got.empty

    @pytest.mark.parametrize("name", TRACES)
    def test_trace_is_empty(self, spark, name):
        got = TRACES[name](spark.createDataFrame([], EDGE_SCHEMA)).toPandas()
        assert list(got.columns) == ["t", "user", "contrib"]
        assert got.empty


def _plan(frame):
    """Physical plan before adaptive execution (its partitioning is known)."""
    plan = frame._jdf.queryExecution().executedPlan()
    if plan.getClass().getSimpleName() == "AdaptiveSparkPlanExec":
        plan = plan.inputPlan()
    return plan


class TestPlanGuard:
    @pytest.mark.parametrize("name", DRIVERS)
    def test_python_passes_have_at_most_one_task_per_core(
        self, spark, monkeypatch, name
    ):
        edges = spark.createDataFrame(_stream_pdf(20, 300, 2000, 3)).repartition(13)
        fed = []
        cls = type(edges)
        map_in_pandas = cls.mapInPandas

        def recording(self, *args, **kwargs):
            fed.append(self)
            return map_in_pandas(self, *args, **kwargs)

        monkeypatch.setattr(cls, "mapInPandas", recording)
        out = DRIVERS[name](edges)
        slots = spark.sparkContext.defaultParallelism
        # one pass over the edges, then one over events or distinct users
        assert len(fed) == 2
        for frame in [*fed, out]:
            assert "ArrowEvalPython" not in _plan(frame).toString()
        for frame in fed:
            assert _plan(frame).outputPartitioning().numPartitions() <= slots
