"""Per-user LPC — Linear-Time Probabilistic Counting (paper §III-A-1).

Every user owns an m-bit bitmap ``B_s``; an arriving pair (s, d) sets
bit ``h(d)`` of ``B_s``; the cardinality estimate is the linear-
counting formula ``-m ln(U_s/m)`` with ``U_s`` the number of zero bits.
Estimation range is ``[0, m ln m]`` — the range collapse the paper
demonstrates in Fig. 4.

In the paper's evaluation (§V-B) every user has ``m = M/|S|`` bits
under a global memory budget of M bits. The tracked-counter protocol is
implemented with an incrementally maintained zero count (same numbers);
``enumerate_state=True`` recomputes the count by scanning the bitmap —
the O(m)-per-edge behaviour the runtime experiment (Fig. 3) measures.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.estimators import TrackedCounters, linear_counting
from repro.hashing import h_item


class LpcPerUser(TrackedCounters):
    """Dictionary of per-user LPC bitmaps with tracked counters."""

    def __init__(self, m: int, seed: int = 0):
        if m < 1:
            raise ValueError("m must be >= 1")
        super().__init__()
        self.m = int(m)
        self.seed = seed
        self.bitmaps: dict[int, np.ndarray] = {}
        self._zeros: dict[int, int] = {}

    def update(self, s: int, idx: int, *, enumerate_state: bool = False) -> None:
        """Process one pair whose item already hashed to bit ``idx``."""
        bm = self.bitmaps.get(s)
        if bm is None:
            bm = np.zeros(self.m, dtype=bool)
            self.bitmaps[s] = bm
            self._zeros[s] = self.m
        if not bm[idx]:
            bm[idx] = True
            self._zeros[s] -= 1
        zeros = int(self.m - bm.sum()) if enumerate_state else self._zeros[s]
        self.estimates[s] = linear_counting(self.m, zeros)

    def _hashed(self, users: np.ndarray, items: np.ndarray) -> list[np.ndarray]:
        return [h_item(items, self.m, seed=self.seed)]
