"""Virtual sketches, shared by CSE and vHLL.

Both sketches give user s the virtual sketch ``X[f_1(s)], …, X[f_m(s)]``
of a shared array ``X`` and estimate from it alone, plus global terms
of the whole array.

* :class:`VirtualSketch` — the base: the tracked-counter run, an
  order-independent bulk :meth:`~VirtualSketch.absorb`, and one
  read-out (numpy statistics of the cells, then the scalar formula per
  user) that ``estimate(s)`` and ``end_state_estimates`` both use.
* :func:`virtual_spark` — the Spark batch end-state driver of either
  sketch.
"""
from __future__ import annotations

import pickle
from typing import Callable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.baselines.estimators import TrackedCounters, user_series
from repro.hashing import f_user, h_item
from repro.spark_passes import ESTIMATE_SCHEMA, map_edges

# virtual-sketch cells read per block (users × m); bounds the hash
# temporaries to a few MB
_BLOCK_CELLS = 1 << 18


class VirtualSketch(TrackedCounters):
    """A shared array ``cells`` of ``M`` cells read through per-user
    virtual sketches of ``m`` cells.

    A subclass gives ``_stats(cells)``, the statistics of virtual
    sketches reduced over the last axis (so one row and a block of rows
    take the same code); ``_formula(*stats)``, one user's estimate from
    them; and ``_recount()``, which sets its global terms from the whole
    array. Cells only grow (a bit is set, a register takes a max).
    """

    def __init__(self, M: int, m: int, seed: int, cells: np.ndarray):
        super().__init__()
        self.M, self.m, self.seed = int(M), int(m), seed
        self.cells = cells
        self._iota = np.arange(self.m, dtype=np.int64)
        # virtual-sketch index cache: recomputing f_1..f_m(s) costs
        # ~m hash ops per edge; heavy-tail streams revisit the same
        # users constantly, so memoize (int32, at most 16,384 users ×
        # m × 4 B: 64 MB at m = 1024, 256 MB at m = 4096)
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
        """The cell ``f_{h(d)}(s)`` each pair (s, d) updates."""
        return [f_user(users, h_item(items, self.m, seed=self.seed), self.M, seed=self.seed)]

    def estimate(self, s: int) -> float:
        """User s's estimate from the current array."""
        return self._formula(*self._stats(self.cells[self._user_idx(s)]))

    def end_state_estimates(self, users: np.ndarray) -> pd.Series:
        """:meth:`estimate` of the given users, read ``_BLOCK_CELLS``
        cells at a time."""
        users = np.asarray(users, dtype=np.int64)
        rows = max(1, _BLOCK_CELLS // self.m)
        ests: list[float] = []
        for lo in range(0, len(users), rows):
            idx = f_user(users[lo : lo + rows, None], self._iota, self.M, seed=self.seed)
            stats = [a.tolist() for a in self._stats(self.cells[idx])]
            ests += [self._formula(*row) for row in zip(*stats)]
        return user_series(dict(zip(users.tolist(), ests)))

    def absorb(self, users: np.ndarray, items: np.ndarray) -> None:
        """Apply all these edges at once. The array and the global terms
        become those a :meth:`run` over the edges, in any order, ends in;
        the tracked counters are not touched."""
        pos, *rank = self._hashed(users, items)
        # a bit array sets its bits; a register array keeps the max rank
        value = rank[0].astype(self.cells.dtype) if rank else True
        np.maximum.at(self.cells, pos, value)
        self._recount()

    def merge(self, *arrays: np.ndarray) -> None:
        """Take the elementwise max (for bits, the OR) with other arrays
        of this sketch, then recount the global terms."""
        for a in arrays:
            np.maximum(self.cells, a, out=self.cells)
        self._recount()


def virtual_spark(edges: DataFrame, make: Callable[[], VirtualSketch]) -> DataFrame:
    """End-of-stream ``(user, estimate)`` of every distinct user of
    ``edges`` on Spark, for the sketches ``make()`` builds.

    The final array does not depend on the edge order, so one Python
    pass over the edges (:func:`map_edges`, one task per core slot)
    absorbs each task's edges into a fresh sketch, which it returns
    pickled. The driver merges the task arrays into one sketch and
    broadcasts it; the distinct users,
    spread over ``defaultParallelism`` tasks, are read with its
    ``end_state_estimates``, so they equal the sequential sketch's.
    """
    sc = edges.sparkSession.sparkContext

    def fill(batches: Iterator[list[np.ndarray]]) -> Iterator[pd.DataFrame]:
        chunks = list(batches)
        if chunks:
            sk = make()
            sk.absorb(*map(np.concatenate, zip(*chunks)))
            yield pd.DataFrame({"sketch": [pickle.dumps(sk)]})

    sketch = make()
    rows = map_edges(edges, ("user", "item"), fill, "sketch binary").collect()
    sketch.merge(*(pickle.loads(r.sketch).cells for r in rows))
    bsketch = sc.broadcast(sketch)

    def per_user(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            est = bsketch.value.end_state_estimates(pdf["user"].to_numpy(np.int64))
            yield pd.DataFrame({"user": est.index, "estimate": est.to_numpy()})

    users = edges.select("user").distinct().repartition(sc.defaultParallelism)
    return users.mapInPandas(per_user, ESTIMATE_SCHEMA)
