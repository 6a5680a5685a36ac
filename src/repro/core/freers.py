"""FreeRS — parameter-free register sharing (paper §IV-B, Algorithm 2).

One shared register array ``R[0..M-1]`` of ``w``-bit registers. Each
edge hashes to register ``h*(e)`` with Geometric(1/2) rank ``ρ*(e)``;
if the register's value increases, the arriving user's estimate grows
by ``1/q_R`` with ``q_R = Σ_j 2^{-R[j]} / M`` evaluated on the
*pre-update* array (the formal definition and the unbiasedness proof;
Algorithm 2's pseudocode updates q first — see DESIGN.md §1 for why we
follow the theory). O(1) per edge via incremental maintenance of the
sum ``S = Σ_j 2^{-R[j]}``.

Exact distributed reformulation (DESIGN.md §2): register-change events
are running-max records within each register's sub-stream; each record
perturbs ``S`` by ``Δ = 2^-ρ − 2^-prev``; a cumulative sum of Δ in
arrival order recovers the pre-event ``S`` and hence the contribution
``M/S``. The numpy and Spark implementations share that last step
(:func:`record_contrib`).

On Spark, Python hashes the edges in one pass with one task per core
slot, the JVM finds the records (first arrival per register value, then
a running max per register over those candidates), and one ordered task
applies :func:`record_contrib` and sums per user
(:mod:`repro.spark_passes`).
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.hashing import h_star, rho_star
from repro.spark_passes import first_arrival, map_edges, ordered_pass


def freers_sequential(
    users: np.ndarray,
    items: np.ndarray,
    M: int,
    seed: int = 0,
    w: int = 5,
) -> pd.DataFrame:
    """Algorithm 2 verbatim (pre-update q): trace ``(t, user, contrib)``."""
    cap = (1 << w) - 1
    regs = h_star(users, items, M, seed=seed)
    rhos = rho_star(users, items, cap=cap, seed=seed)
    R = np.zeros(M, dtype=np.int64)
    S = float(M)
    ts, us, cs = [], [], []
    for t in range(len(users)):
        j, r = regs[t], rhos[t]
        if r > R[j]:
            cs.append(M / S)  # 1/q_R with q_R = S_pre / M
            ts.append(t)
            us.append(users[t])
            S += 2.0**-r - 2.0 ** -float(R[j])
            R[j] = r
    return pd.DataFrame(
        {"t": np.array(ts, dtype=np.int64), "user": np.array(us, dtype=np.int64), "contrib": cs}
    )


def record_contrib(rho: np.ndarray, prev: np.ndarray, M: int) -> np.ndarray:
    """Contributions ``M/S_pre`` of records in arrival order.

    Record i moves ``S`` by ``2^-rho[i] - 2^-prev[i]``; ``S_pre`` is
    ``M`` plus the sum of the earlier moves.
    """
    delta = 2.0**-rho.astype(np.float64) - 2.0**-prev.astype(np.float64)
    s_pre = float(M) + np.concatenate(([0.0], np.cumsum(delta)[:-1]))
    return M / s_pre


def freers_trace(
    users: np.ndarray,
    items: np.ndarray,
    M: int,
    seed: int = 0,
    w: int = 5,
) -> pd.DataFrame:
    """Exact vectorized FreeRS trace, identical to the sequential run.

    Per-register running maxima are computed with the segmented-cummax
    trick (offset each register's ranks by ``reg * 64`` — ranks are
    < 64 — take one global ``maximum.accumulate`` over the
    register-sorted order, subtract the offset back).
    """
    cap = (1 << w) - 1
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    regs = h_star(users, items, M, seed=seed)
    rhos = rho_star(users, items, cap=cap, seed=seed)

    order = np.argsort(regs, kind="stable")  # by register, arrival order kept
    reg_s, rho_s = regs[order], rhos[order]
    new_seg = np.ones(len(reg_s), dtype=bool)
    new_seg[1:] = reg_s[1:] != reg_s[:-1]
    seg_id = np.cumsum(new_seg) - 1
    offset = seg_id.astype(np.int64) * 64
    cummax = np.maximum.accumulate(offset + rho_s) - offset
    prev = np.zeros(len(reg_s), dtype=np.int64)
    prev[1:] = cummax[:-1]
    prev[new_seg] = 0  # register starts at 0
    is_record = rho_s > prev

    t_rec = order[is_record]
    rho_rec = rho_s[is_record]
    prev_rec = prev[is_record]
    by_t = np.argsort(t_rec, kind="stable")
    t_rec, rho_rec, prev_rec = t_rec[by_t], rho_rec[by_t], prev_rec[by_t]

    return pd.DataFrame(
        {
            "t": t_rec.astype(np.int64),
            "user": users[t_rec],
            "contrib": record_contrib(rho_rec, prev_rec, M),
        }
    )


def estimates_from_trace(trace: pd.DataFrame) -> pd.Series:
    """Final per-user estimates (index: user) from a trace."""
    return trace.groupby("user")["contrib"].sum()


def _record_events(edges: DataFrame, M: int, seed: int, w: int) -> DataFrame:
    """Register-change events ``(t, user, rho, prev)``.

    Python only hashes (:func:`map_edges`). In the JVM, a register's
    value ``ρ`` can first appear only at the earliest arrival carrying
    it, so ``groupBy(reg, rho)`` keeping the smallest ``t`` and its user
    leaves the candidates (at most ``cap`` per register); a running max
    over each register's candidates in ``t`` order gives ``prev`` and
    keeps the records ``ρ > prev``.
    """
    cap = (1 << w) - 1

    def ranks(batches: Iterator[list[np.ndarray]]) -> Iterator[pd.DataFrame]:
        for t, users, items in batches:
            yield pd.DataFrame(
                {
                    "t": t,
                    "user": users,
                    "reg": h_star(users, items, M, seed=seed),
                    "rho": rho_star(users, items, cap=cap, seed=seed),
                }
            )

    before = (
        Window.partitionBy("reg")
        .orderBy("t")
        .rowsBetween(Window.unboundedPreceding, -1)
    )
    return (
        map_edges(
            edges, ("t", "user", "item"), ranks, "t long, user long, reg long, rho long"
        )
        .repartition("reg")  # one shuffle serves both the dedupe and the window
        .groupBy("reg", "rho")
        .agg(*first_arrival())
        .withColumn("prev", F.coalesce(F.max("rho").over(before), F.lit(0)))
        .filter(F.col("rho") > F.col("prev"))
        .select("t", "user", "rho", "prev")
    )


def _contrib(M: int):
    return lambda ev: record_contrib(ev["rho"].to_numpy(), ev["prev"].to_numpy(), M)


def freers_spark_trace(
    edges: DataFrame, M: int, seed: int = 0, w: int = 5
) -> DataFrame:
    """FreeRS on Spark: trace DataFrame ``(t, user, contrib)``.

    Same input contract as :func:`repro.core.freebs.freebs_spark_trace`.
    One ordered task runs :func:`record_contrib` over the records, the
    same numpy kernel as :func:`freers_trace`, so the trace is
    bit-identical to it.
    """
    events = _record_events(edges, M, seed, w)
    return ordered_pass(events, _contrib(M), per_user=False)


def freers_spark(edges: DataFrame, M: int, seed: int = 0, w: int = 5) -> DataFrame:
    """FreeRS on Spark: final per-user estimates ``(user, estimate)``."""
    events = _record_events(edges, M, seed, w)
    return ordered_pass(events, _contrib(M), per_user=True)
