"""Virtual sketches, shared by CSE and vHLL.

Both sketches give user s the virtual sketch ``X[f_1(s)], …, X[f_m(s)]``
of a shared array ``X`` and estimate from it alone (plus global terms
fixed at the end of the stream).

* :class:`VirtualSketch` — the sequential tracked-counter base.
* :func:`virtual_estimates_spark` — spreads the distinct users over
  ``defaultParallelism`` Python tasks and reads their virtual sketches
  in blocks of users with one broadcast
  ``f_user(users[:, None], iota[None, :])`` call per block.
"""
from __future__ import annotations

from typing import Callable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.baselines.estimators import TrackedCounters, user_series
from repro.hashing import f_user, h_item
from repro.spark_passes import ESTIMATE_SCHEMA

# virtual-sketch cells read per block (users × m); bounds the hash
# temporaries to a few MB
_BLOCK_CELLS = 1 << 18


def virtual_cells(
    users: np.ndarray, items: np.ndarray, M: int, m: int, seed: int
) -> np.ndarray:
    """The shared-array cell ``f_{h(d)}(s)`` each pair (s, d) updates."""
    return f_user(users, h_item(items, m, seed=seed), M, seed=seed)


class VirtualSketch(TrackedCounters):
    """A shared array of ``M`` cells read through per-user virtual
    sketches of ``m`` cells; a subclass provides ``estimate(s)``."""

    def __init__(self, M: int, m: int, seed: int = 0):
        super().__init__()
        self.M, self.m, self.seed = int(M), int(m), seed
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

    def _hashed(self, users: np.ndarray, items: np.ndarray) -> list[np.ndarray]:
        return [virtual_cells(users, items, self.M, self.m, self.seed)]

    def end_state_estimates(self, users: np.ndarray) -> pd.Series:
        """Re-estimate the given users against the *final* array."""
        return user_series({int(s): self.estimate(int(s)) for s in users})


def virtual_estimates_spark(
    edges: DataFrame,
    X: np.ndarray,
    M: int,
    m: int,
    seed: int,
    estimate: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> DataFrame:
    """``(user, estimate)`` for every distinct user of ``edges``.

    ``X`` (the shared array, in whatever encoding ``estimate`` reads) is
    broadcast; ``estimate(X, idx)`` maps a block of virtual-sketch
    positions ``idx`` (one row of ``m`` positions in ``0..M-1`` per
    user) to the users' estimates.
    """
    sc = edges.sparkSession.sparkContext
    bX = sc.broadcast(X)
    rows = max(1, _BLOCK_CELLS // m)

    def per_user(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        X_local = bX.value
        iota = np.arange(m, dtype=np.int64)[None, :]
        for pdf in batches:
            users = pdf["user"].to_numpy(np.int64)
            ests = np.empty(len(users), dtype=np.float64)
            for lo in range(0, len(users), rows):
                idx = f_user(users[lo : lo + rows, None], iota, M, seed=seed)
                ests[lo : lo + rows] = estimate(X_local, idx)
            yield pd.DataFrame({"user": users, "estimate": ests})

    users = edges.select("user").distinct().repartition(sc.defaultParallelism)
    return users.mapInPandas(per_user, ESTIMATE_SCHEMA)
