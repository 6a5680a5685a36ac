"""The paper-shape gate: every §V artifact, regenerated and checked.

One test per artifact runs its job (``jobs/``) on the job's default
configuration, saves the job's rendering to
``benchmarks/results/<artifact>.txt`` (EXPERIMENTS.md quotes these
files), and fails on any paper claim the job reports as violated.

Run: ``pytest benchmarks/ -q``
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "jobs"))

import fig3_runtime as fig3  # noqa: E402
import fig5_rse as fig5  # noqa: E402
import fig6_superspreaders_over_time as fig6  # noqa: E402
import table1_datasets as table1  # noqa: E402
import table2_superspreaders as table2  # noqa: E402

from benchmarks._results import save  # noqa: E402
from repro.datasets import CATALOG  # noqa: E402


def _gate(name, job, result):
    save(name, job.render(result))
    assert job.violated_claims(result) == []


def test_table1(spark):
    _gate("table1", table1, table1.table1(spark, list(CATALOG), seed=0))


def test_table2():
    _gate("table2", table2, table2.table2(list(CATALOG)))


def test_fig3():
    _gate("fig3_runtime", fig3, fig3.fig3())


def test_fig5():
    _gate("fig5_rse", fig5, fig5.fig5(list(fig5.DATASETS)))


def test_fig6():
    _gate("fig6_over_time", fig6, fig6.fig6(list(fig6.DATASETS)))
