"""Per-user LPC — Linear-Time Probabilistic Counting (paper §III-A-1).

Every user owns an m-bit bitmap ``B_s``; an arriving pair (s, d) sets
bit ``h(d)`` of ``B_s``; the cardinality estimate is the linear-
counting formula ``-m ln(U_s/m)`` with ``U_s`` the number of zero bits.
Estimation range is ``[0, m ln m]`` — the range collapse the paper
demonstrates in Fig. 4.

In the paper's evaluation (§V-B) every user has ``m = M/|S|`` bits
under a global memory budget of M bits. Each update refreshes the
user's tracked counter by counting the zeros of its bitmap: the
O(m)-per-edge read-out the runtime experiment (Fig. 3) measures.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.estimators import TrackedCounters, bitmap_zeros, linear_counting
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

    def update(self, s: int, idx: int) -> None:
        """Process one pair whose item already hashed to bit ``idx``."""
        bm = self.bitmaps.get(s)
        if bm is None:
            bm = self.bitmaps[s] = np.zeros(self.m, dtype=bool)
        bm[idx] = True
        self.estimates[s] = linear_counting(self.m, bitmap_zeros(bm))

    def _hashed(self, users: np.ndarray, items: np.ndarray) -> list[np.ndarray]:
        return [h_item(items, self.m, seed=self.seed)]
