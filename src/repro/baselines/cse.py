"""CSE — virtual-LPC bit sharing (paper §III-B-1, Yoon et al. [50]).

One shared M-bit array A. User s's *virtual* LPC sketch is the m bits
``A[f_1(s)], …, A[f_m(s)]``; pair (s, d) sets ``A[f_{h(d)}(s)]``. The
estimator subtracts the noise that other users leak into the virtual
sketch::

    n̂_s = -m ln(Û_s/m) + m ln(U/M)

with ``Û_s`` the zero count of the virtual sketch and ``U`` the global
zero count. Estimates are clamped to ``[0, ∞)`` (the noise term can
push small users negative) and the linear-counting terms saturate at
zero-count 1, so the estimation range is ``m ln m`` — the collapse the
paper shows for large-cardinality users.

Two layers:

* :class:`CseSketch` — sequential tracked-counter run (the paper's
  evaluation protocol; O(m) per edge re-estimating the arriving user).
* :func:`cse_spark` — Spark batch: the final array state is the OR of
  per-task bit arrays built in one Python pass over the edges;
  per-user end-state estimates are blocked ``mapInPandas`` reads of the
  broadcast array (:mod:`repro.baselines.virtual`).
"""
from __future__ import annotations

import math
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.baselines.virtual import virtual_estimates_spark
from repro.hashing import f_user, h_item
from repro.spark_passes import map_edges


# set bits in each byte value 0..255
_ONES_PER_BYTE = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1, dtype=np.uint8
)


def cse_estimate(M: int, m: int, virtual_zeros: int, U: int) -> float:
    """CSE estimate from a virtual zero count and the global zero count U."""
    first = -m * math.log(max(virtual_zeros, 1) / m)
    noise = -m * math.log(max(U, 1) / M)
    return max(0.0, first - noise)


class CseSketch:
    """Shared bit array + per-user tracked counters (sequential)."""

    def __init__(self, M: int, m: int, seed: int = 0):
        if not 1 <= m <= M:
            raise ValueError("need 1 <= m <= M")
        self.M, self.m, self.seed = int(M), int(m), seed
        self.A = np.zeros(self.M, dtype=bool)
        self.U = self.M  # global zero count
        self.estimates: dict[int, float] = {}
        self._iota = np.arange(self.m, dtype=np.int64)
        # virtual-sketch index cache: recomputing f_1..f_m(s) costs
        # ~m hash ops per edge; heavy-tail streams revisit the same
        # users constantly, so memoize (int32, capped ~64 MB)
        self._idx_cache: dict[int, np.ndarray] = {}
        self._idx_cache_cap = 16384

    def _user_idx(self, s: int) -> np.ndarray:
        """Memoized virtual-sketch positions ``f_1(s)..f_m(s)``."""
        idx = self._idx_cache.get(s)
        if idx is None:
            idx = f_user(np.int64(s), self._iota, self.M, seed=self.seed).astype(
                np.int32
            )
            if len(self._idx_cache) < self._idx_cache_cap:
                self._idx_cache[s] = idx
        return idx

    def estimate(self, s: int) -> float:
        """End-state CSE estimate for user s from the current array."""
        idx = self._user_idx(s)
        virtual_zeros = int(self.m - self.A[idx].sum())
        return cse_estimate(self.M, self.m, virtual_zeros, self.U)

    def update(self, s: int, pos: int) -> None:
        """Set bit ``pos`` (= ``f_{h(d)}(s)``) and refresh s's counter."""
        if not self.A[pos]:
            self.A[pos] = True
            self.U -= 1
        self.estimates[s] = self.estimate(s)

    def run(
        self,
        users: np.ndarray,
        items: np.ndarray,
        checkpoints: list[int] | None = None,
    ) -> dict[int, dict[int, float]]:
        """Stream all edges; return estimate snapshots at checkpoints."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        i_of_item = h_item(items, self.m, seed=self.seed)
        pos = f_user(users, i_of_item, self.M, seed=self.seed)
        snaps: dict[int, dict[int, float]] = {}
        cps = sorted(checkpoints or [])
        ci = 0
        for t in range(len(users)):
            while ci < len(cps) and cps[ci] <= t:
                snaps[cps[ci]] = dict(self.estimates)
                ci += 1
            self.update(int(users[t]), int(pos[t]))
        for cp in cps[ci:]:
            snaps[cp] = dict(self.estimates)
        return snaps

    def final_estimates(self) -> pd.Series:
        """Tracked counters as a Series (index: user)."""
        return pd.Series(self.estimates, dtype=np.float64).rename_axis("user")

    def end_state_estimates(self, users: np.ndarray) -> pd.Series:
        """Re-estimate the given users against the *final* array."""
        return pd.Series(
            {int(s): self.estimate(int(s)) for s in users}, dtype=np.float64
        ).rename_axis("user")


def cse_spark(edges: DataFrame, M: int, m: int, seed: int = 0) -> DataFrame:
    """CSE on Spark: end-of-stream estimates ``(user, estimate)``.

    The final array state is order-independent (a union of set bits), so
    it distributes cleanly: one Python pass over the edges (one task per
    core slot) sets each task's bits in a local M-bit array, the driver
    ORs the packed arrays, and every user's virtual sketch is read
    straight from the packed result (:func:`virtual_estimates_spark`).
    A virtual zero count maps to its estimate through a table of
    :func:`cse_estimate` over ``0..m``, so the result equals the
    sequential sketch's exactly.
    """

    def set_bits(batches: Iterator[list[np.ndarray]]) -> Iterator[pd.DataFrame]:
        A = np.zeros(M, dtype=bool)
        for users, items in batches:
            A[f_user(users, h_item(items, m, seed=seed), M, seed=seed)] = True
        yield pd.DataFrame({"packed": [np.packbits(A).tobytes()]})

    packed = np.zeros((M + 7) // 8, dtype=np.uint8)
    for row in map_edges(edges, ("user", "item"), set_bits, "packed binary").collect():
        packed |= np.frombuffer(row.packed, dtype=np.uint8)
    U = M - int(_ONES_PER_BYTE[packed].sum(dtype=np.int64))
    table = np.array([cse_estimate(M, m, z, U) for z in range(m + 1)])

    def estimate(P: np.ndarray, idx: np.ndarray) -> np.ndarray:
        ones = (P[idx >> 3] >> (7 - (idx & 7)).astype(np.uint8)) & 1
        return table[m - ones.sum(axis=1)]

    return virtual_estimates_spark(edges, packed, M, m, seed, estimate)
