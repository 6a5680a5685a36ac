"""End-to-end tests for the jobs (small-scale invocations)."""
import sys

import pandas as pd
import pytest

sys.path.insert(0, "jobs")

from repro.analysis.harness import TABLE2_METHODS  # noqa: E402


class TestTable1Job:
    def test_runs_and_matches_targets(self, spark):
        from table1_datasets import table1

        rows = table1(spark, ["orkut"], seed=0)
        assert len(rows) == 1
        r = rows[0]
        assert abs(r["total_card"] / r["paper_total_card"] * 400 - 1) < 0.05
        assert r["users"] > 0 and r["max_card"] > 0


class TestTable2Job:
    def test_two_methods_one_dataset(self):
        from table2_superspreaders import table2

        df = table2(["sanjose"], methods=("freebs", "hllpp"))
        assert set(df["method"]) == {"freebs", "hllpp"}
        assert ((df["fnr"] >= 0) & (df["fnr"] <= 1)).all()
        assert ((df["fpr"] >= 0) & (df["fpr"] <= 1)).all()


class TestFig3Job:
    def test_runtime_table_shape(self):
        from fig3_runtime import fig3

        # at 2,000 edges most edges are a user's first arrival, whose
        # per-user hashing barely depends on m: only a wide m spread
        # makes the O(m) part dominate the timing noise
        df = fig3(n_edges=2000, ms=(64, 4096), methods=("freebs", "cse"))
        assert len(df) == 4
        piv = df.pivot(index="m", columns="method", values="ns_per_edge")
        # the O(m) method grows with m; O(1) method stays flat-ish
        assert piv.loc[4096, "cse"] > piv.loc[64, "cse"]


class TestFig6Job:
    def test_over_time_table(self):
        from fig6_superspreaders_over_time import fig6

        df = fig6(["orkut"], n_checkpoints=3)
        assert set(df["method"]) == set(TABLE2_METHODS)
        assert df.groupby("method")["t"].count().eq(3).all()


class TestJobMains:
    """The CLI wrappers run end-to-end (tiny configurations)."""

    def test_fig3_main(self, capsys):
        from fig3_runtime import main

        assert main(["--edges", "1000", "--ms", "64"]) == 0
        assert "Fig. 3" in capsys.readouterr().out

    def test_fig5_main(self, capsys):
        from fig5_rse import main

        assert main(["--datasets", "orkut"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out and "freebs" in out
