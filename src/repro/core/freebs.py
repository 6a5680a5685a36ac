"""FreeBS — parameter-free bit sharing (paper §IV-A, Algorithm 1).

One shared bit array ``B[0..M-1]``. Each edge ``e=(s,d)`` hashes to one
bit ``h*(e)``; if that bit flips 0→1 the arriving user's estimate grows
by ``1/q_B`` where ``q_B = m0/M`` is the *pre-update* fraction of zero
bits (Horvitz–Thompson inverse inclusion probability). O(1) per edge.

Exact distributed reformulation (DESIGN.md §2): a bit flips exactly
once — at the earliest arrival hashing to it — and if flip events are
ranked ``k = 1, 2, …`` by arrival time, the k-th flip sees
``m0 = M-(k-1)`` zeros and therefore contributes ``M/(M-k+1)``.
:func:`freebs_absorb` is that rule as one kernel over a state
``(B, m0)``, starting from :func:`freebs_empty`; the numpy trace, the
streaming query and both Spark passes run it.

On Spark, each hash-pass task (one per core slot) absorbs its own edges
and keeps its flips, and one ordered task absorbs the union of those
flips, ranks them and sums them per user (:mod:`repro.spark_passes`):
the earliest arrival at a bit is also the earliest in its task.

The *trace* of a run is the DataFrame of accepted (bit-flipping) events
``(t, user, contrib)`` sorted by ``t``; a user's estimate at any time T
is the sum of its contributions with ``t <= T``, which is what makes
the anytime-available evaluation (Fig. 6) a cumulative sum.
"""
from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.hashing import by_slot, h_star
from repro.spark_passes import (  # estimates_from_trace: re-exported
    absorb_passes,
    edge_column,
    estimates_from_trace,
)


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


def flip_contrib(n_events: int, M: int, m0: int) -> np.ndarray:
    """Contributions ``M/m0`` of the next ``n_events`` flips.

    The array has ``m0`` zero bits before the first of them, so flip
    ``k`` (1-based) sees ``m0-k+1``; integer-valued floats, so the
    quotient equals ``M/(m0-k+1)`` evaluated any other way.
    """
    zeros = np.arange(m0, m0 - n_events, -1, dtype=np.float64)
    return np.divide(M, zeros, out=zeros)


def freebs_empty(M: int) -> tuple[np.ndarray, int]:
    """The state ``(B, m0)`` of an empty array of ``M`` bits."""
    return np.zeros(M, dtype=bool), M


def freebs_absorb(
    state: tuple[np.ndarray, int],
    t: np.ndarray,
    users: np.ndarray,
    items: np.ndarray,
    seed: int = 0,
) -> tuple[pd.DataFrame, tuple[np.ndarray, int]]:
    """Absorb ``t``-sorted int64 edges into ``state = (B, m0)``.

    ``B`` is the bool bit array (``M = len(B)``, updated in place) and
    ``m0`` its zero count; a zero bit flips at the earliest arrival
    hashing to it, the head of the bit's run in
    :func:`~repro.hashing.by_slot`'s order; a mask scattered by arrival
    index lists the flips in arrival order. Returns the flips' trace
    ``(t, user, contrib)`` and the new state; chunks absorbed in turn
    give the one-shot trace.
    """
    B, m0 = state
    M = len(B)
    bit, arrival = by_slot(h_star(users, items, M, seed=seed))
    # the head of each bit's run is its earliest arrival; bits come
    # sorted, so B is read and written in address order
    head = np.empty(len(bit), dtype=bool)
    head[:1] = True
    np.not_equal(bit[1:], bit[:-1], out=head[1:])
    bit, arrival = bit[head], arrival[head]
    flip = np.zeros(len(head), dtype=bool)  # in arrival order
    flip[arrival[~B[bit]]] = True
    B[bit] = True
    del bit, arrival, head
    ev = np.flatnonzero(flip)
    trace = pd.DataFrame(
        {"t": t[ev], "user": users[ev], "contrib": flip_contrib(len(ev), M, m0)}
    )
    return trace, (B, m0 - len(ev))


def freebs_trace(
    users: np.ndarray, items: np.ndarray, M: int, seed: int = 0
) -> pd.DataFrame:
    """Exact vectorized FreeBS: trace ``(t, user, contrib)``.

    :func:`freebs_absorb` on an empty array; equivalent to
    :func:`freebs_sequential` bit-for-bit (asserted by tests), at numpy
    speed. A null user or item raises ``ValueError`` (:func:`edge_column`).
    """
    users = edge_column(users, "user")
    items = edge_column(items, "item")
    t = np.arange(len(users), dtype=np.int64)
    trace, _ = freebs_absorb(freebs_empty(M), t, users, items, seed)
    return trace


def freebs_spark_trace(edges: DataFrame, M: int, seed: int = 0) -> DataFrame:
    """FreeBS on Spark: trace DataFrame ``(t, user, contrib)``.

    ``edges`` must have columns ``t`` (unique arrival index), ``user``,
    ``item``, none of them null; a repeated ``t`` raises ``ValueError``.
    Both passes run :func:`freebs_absorb`, the kernel of
    :func:`freebs_trace`, so the trace is bit-identical to it. The
    ordered task sees only the tasks' flips (at most M per task): the
    exact formulation's scalability boundary.
    """
    absorb = partial(freebs_absorb, seed=seed)
    return absorb_passes(edges, absorb, partial(freebs_empty, M), per_user=False)


def freebs_spark(edges: DataFrame, M: int, seed: int = 0) -> DataFrame:
    """FreeBS on Spark: final per-user estimates ``(user, estimate)``."""
    absorb = partial(freebs_absorb, seed=seed)
    return absorb_passes(edges, absorb, partial(freebs_empty, M), per_user=True)
