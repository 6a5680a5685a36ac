"""Table II — super-spreader detection FNR/FPR on all datasets.

The paper's protocol (§V-F): Δ = ``harness.DELTA``, virtual-sketch size
m = ``harness.DEFAULT_M_VIRTUAL``, memory M preserving each dataset's
paper load factor (DESIGN.md §5), tracked per-edge counters for FreeBS,
FreeRS, CSE, vHLL, HLL++.

Run: ``python jobs/table2_superspreaders.py [--datasets a,b]``
"""
import argparse
import sys

import pandas as pd

from repro.analysis.harness import (
    DEFAULT_M_VIRTUAL,
    DELTA,
    TABLE2_METHODS,
    over_datasets,
    table2_rows,
)
from repro.datasets import CATALOG


def table2(names: list[str], seed: int = 0, methods=TABLE2_METHODS) -> pd.DataFrame:
    return over_datasets(table2_rows, names, seed, methods=methods)


def render(df: pd.DataFrame) -> str:
    piv = df.pivot(index="dataset", columns="method", values=["fnr", "fpr"])
    return (
        f"Table II — super-spreader detection (Δ={DELTA}, m={DEFAULT_M_VIRTUAL})\n"
        + piv.to_string(float_format="{:.2e}".format)
        + "\n\nthresholds/spreaders:\n"
        + df.groupby("dataset")[["threshold", "n_spreaders"]].first().to_string()
    )


def violated_claims(df: pd.DataFrame) -> list[str]:
    """The paper's claims the table breaks, one message each.

    Free* beat the sharing baselines (CSE, vHLL) on both metrics on every
    dataset, and FreeBS beats every baseline. (FreeRS vs HLL++ is
    regime-dependent at our scaled-down thresholds: the paper itself
    notes HLL++ is the strongest baseline at small cardinalities; see
    EXPERIMENTS.md § Table II.)
    """
    out = [] if len(df) else ["Table II: no rows"]
    for name, grp in df.groupby("dataset"):
        by = grp.set_index("method")
        for metric in ("fnr", "fpr"):
            v = by[metric]
            if not v[["freebs", "freers"]].max() <= v[["cse", "vhll"]].min() + 1e-12:
                out.append(f"{name}: Free* {metric} above CSE/vHLL")
            if not v["freebs"] <= v[["cse", "vhll", "hllpp"]].min() + 1e-12:
                out.append(f"{name}: FreeBS {metric} above a baseline")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--datasets", default=",".join(CATALOG))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    print(render(table2(args.datasets.split(","), seed=args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
