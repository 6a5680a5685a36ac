"""Fig. 6 (as a table) — super-spreader FNR/FPR over time t (sanjose).

The paper's protocol (§V-F): Δ = ``harness.DELTA``, m =
``harness.DEFAULT_M_VIRTUAL``, tracked counters; detection evaluated at
checkpoints spread over the stream. The paper plots sanjose;
``--datasets`` accepts any catalog name.

Run: ``python jobs/fig6_superspreaders_over_time.py``
"""
import argparse
import sys

import pandas as pd

from repro.analysis.harness import (
    DEFAULT_M_VIRTUAL,
    DELTA,
    fig6_over_time,
    over_datasets,
)

DATASETS = ("sanjose",)
FREE, BASELINES = ["freebs", "freers"], ["cse", "vhll", "hllpp"]


def fig6(names: list[str], n_checkpoints: int = 10, seed: int = 0) -> pd.DataFrame:
    return over_datasets(fig6_over_time, names, seed, n_checkpoints=n_checkpoints)


def render(df: pd.DataFrame) -> str:
    return "\n\n".join(
        f"Fig. 6 as table — {name}, Δ={DELTA}, m={DEFAULT_M_VIRTUAL}"
        + "".join(
            f"\n\n{metric.upper()}:\n"
            + grp.pivot(index="t", columns="method", values=metric).to_string(
                float_format="{:.2e}".format
            )
            for metric in ("fnr", "fpr")
        )
        for name, grp in df.groupby("dataset", sort=False)
    )


def violated_claims(df: pd.DataFrame) -> list[str]:
    """The paper's claims the table breaks, one message each.

    Free* detect at or below the baselines' FNR at every checkpoint, and
    at or below their FPR over the second half of the stream.
    """
    out = [] if len(df) else ["Fig. 6: no rows"]
    for name, grp in df.groupby("dataset"):
        for metric in ("fnr", "fpr"):
            piv = grp.pivot(index="t", columns="method", values=metric)
            if metric == "fpr":
                piv = piv.iloc[len(piv) // 2 :]
            ok = piv[FREE].max(axis=1) <= piv[BASELINES].min(axis=1) + 1e-12
            bad = piv.index[~ok]
            out += [f"{name}: Free* {metric} above a baseline at t={t}" for t in bad]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--datasets", default=",".join(DATASETS))
    ap.add_argument("--checkpoints", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    print(render(fig6(args.datasets.split(","), args.checkpoints, seed=args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
