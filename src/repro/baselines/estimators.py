"""Shared estimator arithmetic for the LPC/HLL family (paper §III-A),
and the tracked-counter protocol all four baselines run (§V-B)."""
from __future__ import annotations

import math
from functools import partial
from itertools import islice

import numpy as np
import pandas as pd


def alpha(m: int) -> float:
    """HLL bias-correction constant ``α_m`` (paper §III-A-2).

    The paper gives the standard numeric values: 0.673 (m=16), 0.697
    (m=32), 0.709 (m=64) and ``0.7213/(1+1.079/m)`` for m ≥ 128. For
    m < 16 (never used by the paper's configurations) we fall back to
    the m=16 constant.
    """
    if m >= 128:
        return 0.7213 / (1 + 1.079 / m)
    if m >= 64:
        return 0.709
    if m >= 32:
        return 0.697
    return 0.673


def linear_counting(m: int, zeros: int) -> float:
    """LPC estimate ``-m ln(U/m)``; saturates at ``m ln m`` when U = 0."""
    z = max(int(zeros), 1)
    return -m * math.log(z / m)


def hll_estimate(m: int, harmonic_sum: float, zeros: int) -> float:
    """HLL estimate with the standard small-range correction.

    ``harmonic_sum`` is ``Σ_i 2^{-R[i]}``; when the raw estimate is
    below ``2.5m`` the register array is read as an LPC bitmap (paper
    §III-A-2).
    """
    raw = alpha(m) * m * m / harmonic_sum
    if raw < 2.5 * m and zeros > 0:
        return linear_counting(m, zeros)
    return raw


def pow2_neg_table(cap: int) -> np.ndarray:
    """Lookup table ``[2^0, 2^-1, …, 2^-cap]`` for register sums."""
    return 2.0 ** -np.arange(cap + 1, dtype=np.float64)


def user_series(estimates: dict[int, float]) -> pd.Series:
    """Per-user estimates as a float Series (index: user)."""
    return pd.Series(estimates, dtype=np.float64).rename_axis("user")


class TrackedCounters:
    """Per-user tracked counters (paper §V-B): ``estimates[s]`` is
    refreshed on every arrival of user s.

    A subclass hashes the edges in :meth:`_hashed` and processes one
    hashed edge in ``update(s, *hashed)``.
    """

    def __init__(self) -> None:
        self.estimates: dict[int, float] = {}

    def _hashed(self, users: np.ndarray, items: np.ndarray) -> list[np.ndarray]:
        """Per-edge arguments of ``update`` after the user; override."""
        raise NotImplementedError

    def run(
        self,
        users: np.ndarray,
        items: np.ndarray,
        checkpoints: list[int] | None = None,
        enumerate_state: bool = False,
    ) -> dict[int, dict[int, float]]:
        """Stream all edges; return estimate snapshots at checkpoints.

        ``checkpoints`` are arrival indices t; a snapshot holds the
        tracked counters after edges ``0..t-1``. The final state is
        always available via ``estimates``. ``enumerate_state`` (per-user
        LPC/HLL only) makes each update rescan the user's sketch: the
        O(m)-per-edge loop Fig. 3 times.
        """
        update = self.update
        if enumerate_state:
            update = partial(update, enumerate_state=True)
        users = np.asarray(users, dtype=np.int64)
        cols = [users, *self._hashed(users, np.asarray(items, dtype=np.int64))]
        edges = zip(*(c.tolist() for c in cols))
        snaps: dict[int, dict[int, float]] = {}
        done = 0
        for cp in sorted(checkpoints or []):
            for edge in islice(edges, max(cp - done, 0)):
                update(*edge)
            done = max(done, cp)
            snaps[cp] = dict(self.estimates)
        for edge in edges:
            update(*edge)
        return snaps

    def final_estimates(self) -> pd.Series:
        """Tracked counters as a Series (index: user)."""
        return user_series(self.estimates)
