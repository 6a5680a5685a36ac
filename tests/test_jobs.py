"""End-to-end tests for the jobs (small-scale invocations)."""
import importlib
import sys

import pandas as pd
import pytest

sys.path.insert(0, "jobs")

from repro.analysis.harness import TABLE2_METHODS  # noqa: E402
from repro.datasets import CATALOG  # noqa: E402


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


# Tables in each job's shape that satisfy the paper's claims, each with
# a doctoring that must break one (FNR/FPR per method as in Table II).
RATES = {"freebs": 0.01, "freers": 0.02, "cse": 0.1, "vhll": 0.2, "hllpp": 0.05}
FIG3_NS = {  # ns/edge at m = 128 and 4096
    "freebs": (500, 510), "freers": (2000, 2000), "cse": (30000, 90000),
    "vhll": (40000, 100000), "hllpp": (9000, 26000), "lpc": (3500, 6300),
}
FIG5_RSE = {  # RSE in the buckets 1, 16, 256 and 8192 > m ln m
    "freebs": (0.5, 0.1, 0.02, 0.004), "freers": (1, 0.2, 0.05, 0.01),
    "cse": (8, 0.6, 0.06, 0.4), "vhll": (20, 1.3, 0.13, 0.08),
    "hllpp": (0.5, 0.2, 0.2, 0.15),
}


def _table1():
    spec = CATALOG["orkut"]
    return [{"dataset": "orkut", "users": spec.users, "total_card": spec.total_card}]


def _table2():
    rows = [{"method": k, "fnr": r, "fpr": r / 10} for k, r in RATES.items()]
    return pd.DataFrame(rows).assign(dataset="sanjose")


def _fig3():
    rows = [
        {"m": m, "method": k, "ns_per_edge": ns[i]}
        for k, ns in FIG3_NS.items()
        for i, m in enumerate((128, 4096))
    ]
    return pd.DataFrame(rows)


def _fig5():
    rows = [
        {"method": k, "bucket_lo": b, "rse": rse[i]}
        for k, rse in FIG5_RSE.items()
        for i, b in enumerate((1, 16, 256, 8192))
    ]
    return pd.DataFrame(rows).assign(dataset="orkut")


def _fig6():
    rows = [
        {"method": k, "t": t, "fnr": r, "fpr": r / 10}
        for t in (1, 2, 3, 4)
        for k, r in RATES.items()
    ]
    return pd.DataFrame(rows).assign(dataset="sanjose")


def _swap_freebs_and_cse(df):
    return df.assign(method=df["method"].replace({"freebs": "cse", "cse": "freebs"}))


def _flat_cse(df):
    return df.assign(ns_per_edge=df["ns_per_edge"].mask(df["method"] == "cse", 9e4))


def _vhll_beats_freebs_at_t2(df):
    at = (df["method"] == "vhll") & (df["t"] == 2)
    return df.assign(fnr=df["fnr"].mask(at, 0.0))


CLAIM_CASES = {
    "table1-total-3pct-off": (
        "table1_datasets", _table1,
        lambda rows: [{**rows[0], "total_card": int(rows[0]["total_card"] * 1.03)}],
    ),
    "table2-freebs-and-cse-swapped": (
        "table2_superspreaders", _table2, _swap_freebs_and_cse,
    ),
    "fig3-flat-cse": ("fig3_runtime", _fig3, _flat_cse),
    "fig5-no-bucket-past-m-ln-m": (
        "fig5_rse", _fig5, lambda df: df[df["bucket_lo"] < 8192],
    ),
    "fig6-vhll-beats-freebs-once": (
        "fig6_superspreaders_over_time", _fig6, _vhll_beats_freebs_at_t2,
    ),
    "fig6-empty": ("fig6_superspreaders_over_time", _fig6, lambda df: df.iloc[:0]),
}


@pytest.mark.parametrize("job,table,doctor", CLAIM_CASES.values(), ids=CLAIM_CASES)
def test_claims_pass_the_paper_shape_and_fail_a_doctored_table(job, table, doctor):
    violated_claims = importlib.import_module(job).violated_claims
    assert violated_claims(table()) == []
    assert violated_claims(doctor(table())) != []
