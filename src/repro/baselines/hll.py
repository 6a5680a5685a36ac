"""Per-user HyperLogLog / HLL++ (paper §III-A-2, §V-B).

Every user owns m ``w``-bit registers; an arriving pair (s, d) updates
register ``h(d)`` to ``max(·, ρ(d))``. The estimate is the bias-
corrected harmonic mean with the standard linear-counting small-range
correction. The paper's HLL++ baseline uses ``w = 6`` and
``m = M/(6|S|)`` registers per user under a global budget of M bits;
our HLL++ is HLL with those parameters plus the small-range correction
(the empirical bias tables of [23] are substituted away — DESIGN.md §5).

The tracked-counter protocol maintains the harmonic sum and zero count
incrementally (O(1) bookkeeping, same numbers); ``enumerate_state=True``
recomputes both by scanning the registers — the O(m)-per-edge behaviour
measured in Fig. 3.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.estimators import TrackedCounters, hll_estimate, pow2_neg_table
from repro.hashing import h_item, rho_item


class HllPerUser(TrackedCounters):
    """Dictionary of per-user HLL register arrays with tracked counters."""

    def __init__(self, m: int, w: int = 6, seed: int = 0):
        if m < 1:
            raise ValueError("m must be >= 1")
        super().__init__()
        self.m = int(m)
        self.w = int(w)
        self.cap = (1 << w) - 1
        self.seed = seed
        self._pow2 = pow2_neg_table(self.cap)
        self.registers: dict[int, np.ndarray] = {}
        self._hsum: dict[int, float] = {}
        self._zeros: dict[int, int] = {}

    def update(
        self, s: int, idx: int, r: int, *, enumerate_state: bool = False
    ) -> None:
        """Process one pair whose item hashed to (register idx, rank r)."""
        regs = self.registers.get(s)
        if regs is None:
            regs = np.zeros(self.m, dtype=np.uint8)
            self.registers[s] = regs
            self._hsum[s] = float(self.m)
            self._zeros[s] = self.m
        old = int(regs[idx])
        if r > old:
            self._hsum[s] += self._pow2[r] - self._pow2[old]
            if old == 0:
                self._zeros[s] -= 1
            regs[idx] = r
        if enumerate_state:
            hsum = float(self._pow2[regs].sum())
            zeros = int((regs == 0).sum())
        else:
            hsum, zeros = self._hsum[s], self._zeros[s]
        self.estimates[s] = hll_estimate(self.m, hsum, zeros)

    def _hashed(self, users: np.ndarray, items: np.ndarray) -> list[np.ndarray]:
        return [
            h_item(items, self.m, seed=self.seed),
            rho_item(items, cap=self.cap, seed=self.seed),
        ]
