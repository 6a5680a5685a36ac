"""FreeBS — parameter-free bit sharing (paper §IV-A, Algorithm 1).

One shared bit array ``B[0..M-1]``. Each edge ``e=(s,d)`` hashes to one
bit ``h*(e)``; if that bit flips 0→1 the arriving user's estimate grows
by ``1/q_B`` where ``q_B = m0/M`` is the *pre-update* fraction of zero
bits (Horvitz–Thompson inverse inclusion probability). O(1) per edge.

Exact distributed reformulation (DESIGN.md §2): a bit flips exactly
once — at the earliest arrival hashing to it — and if flip events are
ranked ``k = 1, 2, …`` by arrival time, the k-th flip sees
``m0 = M-(k-1)`` zeros and therefore contributes ``M/(M-k+1)``. All
three implementations below compute exactly this; the numpy and Spark
ones share the :func:`flip_contrib` kernel.

On Spark, Python hashes the edges in one pass with one task per core
slot, a JVM ``groupBy(bit)`` keeps each bit's earliest arrival, and one
ordered task ranks those flip events and sums them per user
(:mod:`repro.spark_passes`).

The *trace* of a run is the DataFrame of accepted (bit-flipping) events
``(t, user, contrib)`` sorted by ``t``; a user's estimate at any time T
is the sum of its contributions with ``t <= T``, which is what makes
the anytime-available evaluation (Fig. 6) a cumulative sum.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.hashing import h_star
from repro.spark_passes import first_arrival, map_edges, ordered_pass


def freebs_sequential(
    users: np.ndarray, items: np.ndarray, M: int, seed: int = 0
) -> pd.DataFrame:
    """Algorithm 1 verbatim: one Python-loop pass over the stream.

    Returns the trace ``(t, user, contrib)``. Reference implementation —
    use :func:`freebs_trace` for anything larger than a test.
    """
    bits = h_star(users, items, M, seed=seed)
    B = np.zeros(M, dtype=bool)
    m0 = M
    ts, us, cs = [], [], []
    for t in range(len(users)):
        b = bits[t]
        if not B[b]:
            B[b] = True
            ts.append(t)
            us.append(users[t])
            cs.append(M / m0)
            m0 -= 1
    return pd.DataFrame(
        {"t": np.array(ts, dtype=np.int64), "user": np.array(us, dtype=np.int64), "contrib": cs}
    )


def flip_contrib(n_events: int, M: int) -> np.ndarray:
    """Contributions of the first ``n_events`` flips: ``M/m0``.

    Flip ``k`` (1-based) sees ``m0 = M-k+1`` zero bits; integer-valued
    floats, so the quotient equals ``M/(M-k+1)`` evaluated any other way.
    """
    m0 = np.arange(M, M - n_events, -1, dtype=np.float64)
    return np.divide(M, m0, out=m0)


def freebs_trace(
    users: np.ndarray, items: np.ndarray, M: int, seed: int = 0
) -> pd.DataFrame:
    """Exact vectorized FreeBS: trace ``(t, user, contrib)``.

    Equivalent to :func:`freebs_sequential` bit-for-bit (asserted by
    tests), at numpy speed.
    """
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    bits = h_star(users, items, M, seed=seed)
    # earliest arrival per distinct bit = flip event
    _, first_idx = np.unique(bits, return_index=True)
    first_idx.sort()  # events in arrival order
    return pd.DataFrame(
        {
            "t": first_idx.astype(np.int64),
            "user": users[first_idx],
            "contrib": flip_contrib(len(first_idx), M),
        }
    )


def estimates_from_trace(trace: pd.DataFrame) -> pd.Series:
    """Final per-user estimates (index: user) from a trace."""
    return trace.groupby("user")["contrib"].sum()


def _flip_events(edges: DataFrame, M: int, seed: int) -> DataFrame:
    """Flip events ``(t, user)``: the earliest arrival at each bit.

    Python only hashes (:func:`map_edges`); the dedupe is a JVM
    ``groupBy(bit)`` keeping the smallest ``t`` and its user.
    """

    def bits(batches: Iterator[list[np.ndarray]]) -> Iterator[pd.DataFrame]:
        for t, users, items in batches:
            yield pd.DataFrame(
                {"t": t, "user": users, "bit": h_star(users, items, M, seed=seed)}
            )

    return (
        map_edges(edges, ("t", "user", "item"), bits, "t long, user long, bit long")
        .groupBy("bit")
        .agg(*first_arrival())
        .select("t", "user")
    )


def freebs_spark_trace(edges: DataFrame, M: int, seed: int = 0) -> DataFrame:
    """FreeBS on Spark: trace DataFrame ``(t, user, contrib)``.

    ``edges`` must have columns ``t`` (unique arrival index), ``user``,
    ``item``, none of them null. The flip events are ranked and weighted
    by :func:`flip_contrib` in one ordered task, the same numpy kernel as
    :func:`freebs_trace`, so the trace is bit-identical to it. That task
    sees only events (at most M rows): the exact formulation's
    scalability boundary.
    """
    events = _flip_events(edges, M, seed)
    return ordered_pass(events, lambda ev: flip_contrib(len(ev), M), per_user=False)


def freebs_spark(edges: DataFrame, M: int, seed: int = 0) -> DataFrame:
    """FreeBS on Spark: final per-user estimates ``(user, estimate)``."""
    events = _flip_events(edges, M, seed)
    return ordered_pass(events, lambda ev: flip_contrib(len(ev), M), per_user=True)
