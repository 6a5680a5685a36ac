"""Fig. 3 (as a table) — per-edge update runtime vs m for all methods.

The paper's protocol (§V-D): for each method, measure the time to
process one element *and refresh the arriving user's counter*, sweeping
the per-user (virtual) sketch size m. FreeBS/FreeRS are O(1) — flat in
m; CSE, vHLL, LPC, HLL++ enumerate m bits/registers per estimate —
linear in m. All six run in the same sequential Python harness, so the
relative shape (not absolute ns) is the reproduced quantity. Each
(method, m) cell is timed once in each of ``ROUNDS`` interleaved
rounds and reported as its median; in each round, every method is
warmed up by one untimed call before its cells.

Run: ``python jobs/fig3_runtime.py [--edges N] [--ms 128,512,...]``
"""
import argparse
import sys

import numpy as np
import pandas as pd

from repro.analysis.harness import ALL_METHODS, measure_update_ns
from repro.datasets import CATALOG, generate_stream

DEFAULT_MS = (128, 512, 2048, 4096)
ROUNDS = 3  # timed calls per cell; 3 keep the gate at 45-55 s on 4 cores
# the O(1) and the O(m) per-edge methods
FREE, LINEAR = ["freebs", "freers"], ["cse", "vhll", "lpc", "hllpp"]


def fig3(
    n_edges: int = 20_000,
    ms=DEFAULT_MS,
    methods=ALL_METHODS,
    seed: int = 0,
    dataset: str = "sanjose",
) -> pd.DataFrame:
    stream = generate_stream(CATALOG[dataset], seed=seed).head(n_edges)
    users = stream["user"].to_numpy()
    items = stream["item"].to_numpy()
    ns = {(method, m): [] for method in methods for m in ms}
    # every round times every cell, so a slowdown of the host hits all
    # cells alike and cannot pass for growth in m; the median per cell
    # drops a round that was slow for one cell alone
    for _ in range(ROUNDS):
        for method in methods:
            # a method's first call after another method's is ~1.7x slower
            # (FreeBS on this harness); one untimed call on the same edges,
            # allocating as the timed ones do, absorbs it (the recorded
            # quantity is steady-state ns/edge)
            measure_update_ns(method, users, items, m=ms[0], seed=seed)
            for m in ms:
                ns[method, m].append(measure_update_ns(method, users, items, m=m, seed=seed))
    return pd.DataFrame(
        [
            {"m": m, "method": method, "ns_per_edge": float(np.median(v))}
            for (method, m), v in ns.items()
        ]
    )


def _pivot(df: pd.DataFrame) -> pd.DataFrame:
    return df.pivot(index="m", columns="method", values="ns_per_edge")


def render(df: pd.DataFrame) -> str:
    return "Fig. 3 as table — ns per edge (update + estimate)\n" + (
        _pivot(df).round(0).to_string()
    )


def violated_claims(df: pd.DataFrame) -> list[str]:
    """The paper's claims the table breaks, one message each.

    At the largest m, Free* beat every O(m) method, by 10x for FreeBS
    against the shared-array baselines, and CSE beats vHLL (bit ops are
    cheaper than registers). From the smallest m to the largest, Free*
    stay flat while the O(m) methods grow (the exact slope is diluted by
    the per-edge constant of the Python harness, so direction and
    separation are checked, not the asymptotic factor).
    """
    if df.empty:
        return ["Fig. 3: no rows"]
    piv = _pivot(df)
    small, big = piv.iloc[0], piv.iloc[-1]
    holds = {f"{f} below every O(m) method": big[f] < big[LINEAR].min() for f in FREE}
    holds["CSE below vHLL"] = big["cse"] < big["vhll"]
    holds["FreeBS 10x below CSE/vHLL"] = 10 * big["freebs"] < big[["cse", "vhll"]].min()
    holds |= {f"{f} flat in m": piv[f].max() < 2 * piv[f].min() for f in FREE}
    holds |= {f"{b} grows 1.5x with m": big[b] > 1.5 * small[b] for b in LINEAR}
    return [f"fails: {claim}" for claim, ok in holds.items() if not ok]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--edges", type=int, default=20_000)
    ap.add_argument("--ms", default=",".join(map(str, DEFAULT_MS)))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    ms = tuple(int(x) for x in args.ms.split(","))
    print(render(fig3(args.edges, ms, seed=args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
