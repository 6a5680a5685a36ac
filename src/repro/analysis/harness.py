"""Shared evaluation harness for the paper's experiments (§V).

One entry point per experimental protocol, reused by ``jobs/`` and the
integration tests:

* :func:`run_tracked` — the paper's §V-B protocol: every method keeps a
  per-user counter updated on that user's arrivals; returns final
  counters (and optional checkpoint snapshots) for each method.
* :func:`table2_rows` — super-spreader FNR/FPR per method (Table II).
* :func:`fig5_rse` — RSE per cardinality bucket per method (Fig. 5).
* :func:`fig6_over_time` — FNR/FPR at checkpoints (Fig. 6).
* :func:`measure_update_ns` — mean per-edge update+estimate latency of
  a method's sequential loop (Fig. 3).
* :func:`over_datasets` — one of the above on each catalog dataset.

Memory accounting follows §V-B: under a budget of ``M_bits``, FreeBS
and CSE get ``M_bits`` bits; FreeRS and vHLL get ``M_bits/w`` w-bit
registers (w=5); LPC gets ``M_bits/|S|`` bits per user; HLL++ gets
``M_bits/(6|S|)`` 6-bit registers per user. The per-user counters all
methods need are excluded from the budget (as in the paper).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import pandas as pd

from repro.analysis.metrics import (
    detection_metrics,
    estimates_at_checkpoints,
    rse_by_bucket,
    truth_at_checkpoints,
)
from repro.baselines import CseSketch, HllPerUser, LpcPerUser, VhllSketch
from repro.baselines.estimators import TrackedCounters, user_series
from repro.core.freebs import estimates_from_trace, freebs_sequential, freebs_trace
from repro.core.freers import freers_sequential, freers_trace
from repro.datasets import CATALOG, generate_stream, true_cardinalities

REGISTER_WIDTH = 5  # w: bits per shared register (paper §V-B)
HLLPP_WIDTH = 6  # HLL++ registers are 6-bit (paper §V-B)
DEFAULT_M_VIRTUAL = 1024  # m for CSE/vHLL virtual sketches (paper §V-E)
DELTA = 5e-5  # super-spreader threshold, relative to n_total (paper §V-F)

ALL_METHODS = ("freebs", "freers", "cse", "vhll", "hllpp", "lpc")
TABLE2_METHODS = ("freebs", "freers", "cse", "vhll", "hllpp")  # §V-F set


def per_user_m(M_bits: int, n_users: int, width: int) -> int:
    """Per-user sketch size under the global budget (floor 4)."""
    return max(4, M_bits // (width * n_users))


# FreeBS/FreeRS: (vectorized trace, Algorithm 1/2 loop), each f(users,
# items, M, seed=)
FREE_METHODS = {
    "freebs": (freebs_trace, freebs_sequential),
    "freers": (
        partial(freers_trace, w=REGISTER_WIDTH),
        partial(freers_sequential, w=REGISTER_WIDTH),
    ),
}
# methods sharing M_bits/w registers; the other shared arrays hold M_bits bits
REGISTER_METHODS = ("freers", "vhll")
# per-user baselines and their bits per cell; their m is per_user_m in
# the §V-B protocol
PER_USER_WIDTH = {"hllpp": HLLPP_WIDTH, "lpc": 1}


def shared_size(method: str, M_bits: int, m: int) -> int:
    """Shared-array size of ``method`` under a budget of ``M_bits``:
    ``M_bits/w`` registers (at least ``m+1``) or ``M_bits`` bits."""
    if method in REGISTER_METHODS:
        return max(m + 1, M_bits // REGISTER_WIDTH)
    return M_bits


def make_sketch(method: str, M: int, m: int, seed: int = 0) -> TrackedCounters:
    """The tracked-counter sketch of a baseline; ``M`` sizes CSE/vHLL's
    shared array and ``m`` each (virtual) sketch."""
    makers = {
        "cse": lambda: CseSketch(M=M, m=m, seed=seed),
        "vhll": lambda: VhllSketch(M=M, m=m, w=REGISTER_WIDTH, seed=seed),
        "hllpp": lambda: HllPerUser(m=m, w=HLLPP_WIDTH, seed=seed),
        "lpc": lambda: LpcPerUser(m=m, seed=seed),
    }
    if method not in makers:
        raise ValueError(f"unknown method {method!r}")
    return makers[method]()


@dataclass
class TrackedResult:
    """Final tracked counters and optional checkpoint snapshots."""

    estimates: dict[str, pd.Series]
    snapshots: dict[str, dict[int, pd.Series]] = field(default_factory=dict)
    config: dict = field(default_factory=dict)


def run_tracked(
    stream: pd.DataFrame,
    M_bits: int,
    m: int = DEFAULT_M_VIRTUAL,
    methods: tuple[str, ...] = TABLE2_METHODS,
    checkpoints: list[int] | None = None,
    seed: int = 0,
) -> TrackedResult:
    """Run the §V-B tracked-counter protocol for the given methods."""
    users = stream["user"].to_numpy(np.int64)
    items = stream["item"].to_numpy(np.int64)
    n_users = int(stream["user"].nunique())
    M_regs = shared_size("freers", M_bits, m)
    cps = sorted(checkpoints or [])
    est: dict[str, pd.Series] = {}
    snaps: dict[str, dict[int, pd.Series]] = {}
    for method in methods:
        M = shared_size(method, M_bits, m)
        if method in FREE_METHODS:
            trace = FREE_METHODS[method][0](users, items, M, seed=seed)
            est[method] = estimates_from_trace(trace)
            if cps:
                snaps[method] = estimates_at_checkpoints(trace, cps)
            continue
        width = PER_USER_WIDTH.get(method)
        mu = per_user_m(M_bits, n_users, width) if width else m
        sk = make_sketch(method, M, mu, seed)
        s = sk.run(users, items, checkpoints=cps)
        est[method] = sk.final_estimates()
        if cps:
            snaps[method] = {cp: user_series(v) for cp, v in s.items()}
    return TrackedResult(
        estimates=est,
        snapshots=snaps,
        config={"M_bits": M_bits, "m": m, "M_regs": M_regs, "n_users": n_users},
    )


def table2_rows(
    stream: pd.DataFrame,
    M_bits: int,
    delta: float = DELTA,
    m: int = DEFAULT_M_VIRTUAL,
    methods: tuple[str, ...] = TABLE2_METHODS,
    seed: int = 0,
) -> pd.DataFrame:
    """Super-spreader FNR/FPR per method at end of stream (Table II)."""
    truth = true_cardinalities(stream)
    res = run_tracked(stream, M_bits, m=m, methods=methods, seed=seed)
    rows = []
    for method in methods:
        d = detection_metrics(res.estimates[method], truth, delta)
        rows.append({"method": method, **d})
    return pd.DataFrame(rows)


def fig5_rse(
    stream: pd.DataFrame,
    M_bits: int,
    m: int = DEFAULT_M_VIRTUAL,
    methods: tuple[str, ...] = TABLE2_METHODS,
    seed: int = 0,
) -> pd.DataFrame:
    """RSE per power-of-two cardinality bucket per method (Fig. 5)."""
    truth = true_cardinalities(stream)
    res = run_tracked(stream, M_bits, m=m, methods=methods, seed=seed)
    out = []
    for method in methods:
        b = rse_by_bucket(res.estimates[method], truth)
        b.insert(0, "method", method)
        out.append(b)
    return pd.concat(out, ignore_index=True)


def fig6_over_time(
    stream: pd.DataFrame,
    M_bits: int,
    delta: float = DELTA,
    n_checkpoints: int = 10,
    m: int = DEFAULT_M_VIRTUAL,
    methods: tuple[str, ...] = TABLE2_METHODS,
    seed: int = 0,
) -> pd.DataFrame:
    """FNR/FPR at evenly spaced checkpoints over the stream (Fig. 6)."""
    n = len(stream)
    cps = [int(n * (i + 1) / n_checkpoints) for i in range(n_checkpoints)]
    res = run_tracked(
        stream, M_bits, m=m, methods=methods, checkpoints=cps, seed=seed
    )
    truths = truth_at_checkpoints(stream, cps)
    rows = []
    for method in methods:
        for cp in cps:
            d = detection_metrics(
                res.snapshots[method].get(cp, pd.Series(dtype=float)),
                truths[cp],
                delta,
            )
            rows.append({"method": method, "t": cp, **d})
    return pd.DataFrame(rows)


def measure_update_ns(
    method: str,
    users: np.ndarray,
    items: np.ndarray,
    m: int,
    M_bits: int = 1 << 23,
    seed: int = 0,
) -> float:
    """Mean per-edge update+estimate time (ns) of the sequential loop.

    The Fig. 3 protocol: same harness for every method; for the O(m)
    methods the estimate step enumerates the m bits/registers of the
    arriving user's (virtual) sketch, as in the paper's implementations.
    FreeBS/FreeRS take no m (their O(1) loop is Algorithm 1/2).
    """
    M = shared_size(method, M_bits, m)
    start = time.perf_counter()
    if method in FREE_METHODS:
        FREE_METHODS[method][1](users, items, M, seed=seed)
    else:
        make_sketch(method, M, m, seed).run(
            users, items, enumerate_state=method in PER_USER_WIDTH
        )
    return (time.perf_counter() - start) / len(users) * 1e9


def over_datasets(fn, names, seed: int = 0, **kwargs) -> pd.DataFrame:
    """``fn(stream, M_bits, seed=seed, **kwargs)`` on each named catalog
    dataset's stream, stacked under a leading ``dataset`` column."""
    parts = []
    for name in names:
        spec = CATALOG[name]
        df = fn(generate_stream(spec, seed=seed), spec.M_bits, seed=seed, **kwargs)
        df.insert(0, "dataset", name)
        parts.append(df)
    return pd.concat(parts, ignore_index=True)
