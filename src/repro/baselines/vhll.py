"""vHLL — virtual-HLL register sharing (paper §III-B-2, Xiao et al. [47]).

One shared array of M ``w``-bit registers. User s's *virtual* HLL
sketch is ``R[f_1(s)], …, R[f_m(s)]``; pair (s, d) max-updates
``R[f_{h(d)}(s)]`` with ``ρ(d)``. The estimator removes the noise other
users leak into the virtual sketch and rescales::

    n̂_s = M/(M-m) · ( α_m m² / Σ_i 2^{-R[f_i(s)]}  -  m α_M M / Σ_j 2^{-R[j]} )

with the standard linear-counting substitution for the first term when
it falls below ``2.5m`` (paper §III-B-2). Estimates are clamped to
``[0, ∞)``. Here M counts *registers* (the paper's M bits correspond to
``M_bits/w`` registers).

Layers mirror :mod:`repro.baselines.cse`: a sequential tracked-counter
run (O(m) per edge) and a Spark batch end-state estimator
(:func:`~repro.baselines.virtual.virtual_spark`, the task arrays merged
by an elementwise max). Both read a user through the one read-out: the
virtual harmonic sum and zero count, then :func:`_vhll_formula`.
"""
from __future__ import annotations

from functools import partial

import numpy as np
from pyspark.sql import DataFrame

from repro.baselines.estimators import (
    alpha,
    hll_estimate,
    linear_counting,
    pow2_neg_table,
    register_stats,
)
from repro.baselines.virtual import VirtualSketch, virtual_spark
from repro.hashing import rho_item


def _vhll_formula(
    M: int,
    m: int,
    virtual_hsum: float,
    virtual_zeros: int,
    global_hsum: float,
    global_zeros: int,
) -> float:
    """The vHLL estimator given the two harmonic sums.

    The noise term is ``m/M`` times the HLL estimate of the *total*
    cardinality from the whole array. The paper writes the raw harmonic
    form ``m α_M M / Σ_j 2^{-R[j]}``; like any HLL read-out it needs the
    standard linear-counting small-range correction when the global
    array is lightly loaded (the original vHLL estimator corrects its
    totals the same way) — without it the noise term overshoots by up
    to ~65% at small loads and drags every small user to zero.
    """
    first = alpha(m) * m * m / virtual_hsum
    if first < 2.5 * m and virtual_zeros > 0:
        first = linear_counting(m, virtual_zeros)
    noise = m * hll_estimate(M, global_hsum, global_zeros) / M
    return max(0.0, M / (M - m) * (first - noise))


class VhllSketch(VirtualSketch):
    """Shared register array + per-user tracked counters (sequential)."""

    def __init__(self, M: int, m: int, w: int = 5, seed: int = 0):
        if not 1 <= m < M:
            raise ValueError("need 1 <= m < M")
        super().__init__(M, m, seed, np.zeros(int(M), dtype=np.uint8))
        self.cap = (1 << w) - 1
        self._pow2 = pow2_neg_table(self.cap)
        self.global_hsum = float(self.M)  # Σ_j 2^{-R[j]}, maintained O(1)
        self.global_zeros = self.M  # #zero registers, maintained O(1)

    @property
    def R(self) -> np.ndarray:
        """The shared register array (the paper's name for ``cells``)."""
        return self.cells

    def _stats(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return register_stats(cells)

    def _formula(self, hsum: float, zeros: int) -> float:
        return _vhll_formula(
            self.M, self.m, float(hsum), int(zeros), self.global_hsum, self.global_zeros
        )

    def _recount(self) -> None:
        hsum, zeros = register_stats(self.R)
        self.global_hsum, self.global_zeros = float(hsum), int(zeros)

    def update(self, s: int, pos: int, r: int) -> None:
        """Max-update register ``pos`` and refresh s's counter."""
        old = int(self.R[pos])
        if r > old:
            self.global_hsum += self._pow2[r] - self._pow2[old]
            if old == 0:
                self.global_zeros -= 1
            self.R[pos] = r
        self.estimates[s] = self.estimate(s)

    def _hashed(self, users: np.ndarray, items: np.ndarray) -> list[np.ndarray]:
        rho = rho_item(items, cap=self.cap, seed=self.seed)
        return [*super()._hashed(users, items), rho]


def vhll_spark(
    edges: DataFrame, M: int, m: int, w: int = 5, seed: int = 0
) -> DataFrame:
    """vHLL on Spark: end-of-stream estimates ``(user, estimate)``; the
    merged array is the elementwise max of the tasks' register arrays."""
    return virtual_spark(edges, partial(VhllSketch, M=M, m=m, w=w, seed=seed))
