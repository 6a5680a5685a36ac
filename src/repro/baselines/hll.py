"""Per-user HyperLogLog / HLL++ (paper §III-A-2, §V-B).

Every user owns m ``w``-bit registers; an arriving pair (s, d) updates
register ``h(d)`` to ``max(·, ρ(d))``. The estimate is the bias-
corrected harmonic mean with the standard linear-counting small-range
correction. The paper's HLL++ baseline uses ``w = 6`` and
``m = M/(6|S|)`` registers per user under a global budget of M bits;
our HLL++ is HLL with those parameters plus the small-range correction
(the empirical bias tables of [23] are substituted away — DESIGN.md §5).

Each update refreshes the user's tracked counter with :func:`hll_readout`
of its registers: the O(m)-per-edge read-out measured in Fig. 3. The
streaming per-user query reads its registers the same way.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.estimators import TrackedCounters, hll_estimate, register_stats
from repro.hashing import h_item, rho_item


def hll_readout(regs: np.ndarray) -> float:
    """HLL estimate of one uint8 register array (``m = len(regs)``)."""
    hsum, zeros = register_stats(regs)
    return hll_estimate(len(regs), float(hsum), int(zeros))


class HllPerUser(TrackedCounters):
    """Dictionary of per-user HLL register arrays with tracked counters."""

    def __init__(self, m: int, w: int = 6, seed: int = 0):
        if m < 1:
            raise ValueError("m must be >= 1")
        super().__init__()
        self.m = int(m)
        self.cap = (1 << w) - 1
        self.seed = seed
        self.registers: dict[int, np.ndarray] = {}

    def update(self, s: int, idx: int, r: int) -> None:
        """Process one pair whose item hashed to (register idx, rank r)."""
        regs = self.registers.get(s)
        if regs is None:
            regs = self.registers[s] = np.zeros(self.m, dtype=np.uint8)
        regs[idx] = max(regs[idx], r)
        self.estimates[s] = hll_readout(regs)

    def _hashed(self, users: np.ndarray, items: np.ndarray) -> list[np.ndarray]:
        return [
            h_item(items, self.m, seed=self.seed),
            rho_item(items, cap=self.cap, seed=self.seed),
        ]
