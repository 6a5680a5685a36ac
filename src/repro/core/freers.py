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
``M/S``. :func:`freers_absorb` is that rule as one kernel over a state
``(R, S)``, starting from :func:`freers_empty`; the numpy trace, the
streaming query and both Spark passes run it.

On Spark, each hash-pass task (one per core slot) absorbs its own edges
and keeps its records, and one ordered task absorbs the union of those
records, applies :func:`record_contrib` and sums per user
(:mod:`repro.spark_passes`): a global record beats every earlier edge,
so it is also a record in its task.
"""
from __future__ import annotations

from functools import partial

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.hashing import by_slot, h_star, rho_star
from repro.spark_passes import (  # estimates_from_trace: re-exported
    absorb_passes,
    edge_column,
    estimates_from_trace,
)

_POW2 = np.ldexp(1.0, -np.arange(256))  # 2^-v for every uint8 register value


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


def _moves(rho: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """How far each record moves ``S``: ``2^-rho - 2^-prev``."""
    return _POW2[rho] - _POW2[prev]


def record_contrib(rho: np.ndarray, prev: np.ndarray, M: int, S: float) -> np.ndarray:
    """Contributions ``M/S_pre`` of records in arrival order.

    Record i moves ``S`` by ``2^-rho[i] - 2^-prev[i]``; ``S_pre`` is the
    sum before the first record (``S``) plus the earlier moves.
    """
    delta = _moves(rho, prev)
    earlier = np.zeros_like(delta)  # sum of the earlier moves
    np.cumsum(delta[:-1], out=earlier[1:])
    return M / (S + earlier)


def freers_empty(M: int) -> tuple[np.ndarray, float]:
    """The state ``(R, S)`` of an empty array of ``M`` registers."""
    return np.zeros(M, dtype=np.uint8), float(M)


def freers_absorb(
    state: tuple[np.ndarray, float],
    t: np.ndarray,
    users: np.ndarray,
    items: np.ndarray,
    seed: int = 0,
    w: int = 5,
) -> tuple[pd.DataFrame, tuple[np.ndarray, float]]:
    """Absorb ``t``-sorted int64 edges into ``state = (R, S)``.

    ``R`` is the uint8 register array (``M = len(R)``, updated in place)
    and ``S = Σ_j 2^-R[j]``. An edge is a record when its rank beats the
    running max of its register, seeded with the register's value. The
    edges are put in register order, arrival order within a register, by
    :func:`~repro.hashing.by_slot`'s one packed-key sort. The running
    maxima use the segmented-cummax trick over that order (put each
    register's segment number above its ranks' 6 bits -- ranks are < 64
    -- take one global ``maximum.accumulate``, keep the low 6 bits). The
    record mask and each edge's previous value (uint8) go back to
    arrival order by one scatter each, so no second sort orders the
    records. Returns the records' trace ``(t, user, contrib)`` and the
    new state; chunks absorbed in turn give the one-shot trace (bit for
    bit while M < 2^22, DESIGN.md §2).
    """
    R, S = state
    M = len(R)
    n = len(t)
    rhos = rho_star(users, items, cap=(1 << w) - 1, seed=seed).astype(np.uint8)
    reg, arrival = by_slot(h_star(users, items, M, seed=seed))
    rho = rhos[arrival]
    start = np.empty(n, dtype=bool)
    start[:1] = True
    np.not_equal(reg[1:], reg[:-1], out=start[1:])
    run = np.cumsum(start)  # 1 + the register's segment number
    run <<= 6  # above every rank (ranks are < 64)
    run |= rho
    np.maximum.accumulate(run, out=run)
    run &= 63  # the running max within the segment
    prev = np.empty(n, dtype=np.uint8)
    prev[1:] = run[:-1]
    prev[start] = 0
    np.maximum(prev, R[reg], out=prev)  # seeded with the value before the chunk
    rec = rho > prev
    np.maximum.at(R, reg[rec], rho[rec])
    # the record mask and prev back to arrival order, one scatter each
    rec_a = np.empty_like(rec)
    rec_a[arrival] = rec
    prev_a = np.empty_like(prev)
    prev_a[arrival] = prev
    del reg, arrival, start, run, rho, prev, rec  # the register-order arrays
    idx = np.flatnonzero(rec_a)
    rho, prev = rhos[idx], prev_a[idx]
    trace = pd.DataFrame(
        {"t": t[idx], "user": users[idx], "contrib": record_contrib(rho, prev, M, S)}
    )
    return trace, (R, S + float(_moves(rho, prev).sum()))


def freers_trace(
    users: np.ndarray,
    items: np.ndarray,
    M: int,
    seed: int = 0,
    w: int = 5,
) -> pd.DataFrame:
    """Exact vectorized FreeRS trace, identical to the sequential run.

    :func:`freers_absorb` on an empty register array. A null user or
    item raises ``ValueError`` (:func:`edge_column`).
    """
    users = edge_column(users, "user")
    items = edge_column(items, "item")
    t = np.arange(len(users), dtype=np.int64)
    trace, _ = freers_absorb(freers_empty(M), t, users, items, seed, w)
    return trace


def freers_spark_trace(
    edges: DataFrame, M: int, seed: int = 0, w: int = 5
) -> DataFrame:
    """FreeRS on Spark: trace DataFrame ``(t, user, contrib)``.

    Same input contract as :func:`repro.core.freebs.freebs_spark_trace`.
    Both passes run :func:`freers_absorb`, the kernel of
    :func:`freers_trace`, so the trace is bit-identical to it.
    """
    absorb = partial(freers_absorb, seed=seed, w=w)
    return absorb_passes(edges, absorb, partial(freers_empty, M), per_user=False)


def freers_spark(edges: DataFrame, M: int, seed: int = 0, w: int = 5) -> DataFrame:
    """FreeRS on Spark: final per-user estimates ``(user, estimate)``."""
    absorb = partial(freers_absorb, seed=seed, w=w)
    return absorb_passes(edges, absorb, partial(freers_empty, M), per_user=True)
