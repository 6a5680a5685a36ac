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
run (O(m) per edge) and a Spark batch end-state estimator (per-task
register arrays from one Python pass over the edges, reduced with an
elementwise max on the driver, broadcast, and read in user blocks by
:mod:`repro.baselines.virtual`).
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.baselines.estimators import (
    alpha,
    hll_estimate,
    linear_counting,
    pow2_neg_table,
)
from repro.baselines.virtual import (
    VirtualSketch,
    virtual_cells,
    virtual_estimates_spark,
)
from repro.hashing import rho_item
from repro.spark_passes import map_edges


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
    noise = _vhll_noise(M, m, global_hsum, global_zeros)
    return max(0.0, M / (M - m) * (first - noise))


def _vhll_noise(M: int, m: int, global_hsum: float, global_zeros: int) -> float:
    """Noise term: ``m/M`` times the HLL estimate of the total cardinality."""
    return m * hll_estimate(M, global_hsum, global_zeros) / M


class VhllSketch(VirtualSketch):
    """Shared register array + per-user tracked counters (sequential)."""

    def __init__(self, M: int, m: int, w: int = 5, seed: int = 0):
        if not 1 <= m < M:
            raise ValueError("need 1 <= m < M")
        super().__init__(M, m, seed)
        self.w = int(w)
        self.cap = (1 << w) - 1
        self._pow2 = pow2_neg_table(self.cap)
        self.R = np.zeros(self.M, dtype=np.uint8)
        self.global_hsum = float(self.M)  # Σ_j 2^{-R[j]}, maintained O(1)
        self.global_zeros = self.M  # #zero registers, maintained O(1)

    def estimate(self, s: int) -> float:
        """End-state vHLL estimate for user s from the current array."""
        idx = self._user_idx(s)
        vals = self.R[idx]
        hsum = float(self._pow2[vals].sum())
        zeros = int((vals == 0).sum())
        return _vhll_formula(
            self.M, self.m, hsum, zeros, self.global_hsum, self.global_zeros
        )

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
    """vHLL on Spark: end-of-stream estimates ``(user, estimate)``.

    The final register array is order-independent (elementwise max), so
    one Python pass over the edges (one task per core slot) max-updates
    a local array per task and the driver takes their elementwise max.
    Users are then read against the broadcast array
    (:func:`virtual_estimates_spark`) with a vectorized form of the
    sequential estimator that gives the same floats: harmonic sums of
    ``2^-ρ`` values are exact, and linear counting comes from a table of
    :func:`linear_counting` over ``0..m``.
    """
    cap = (1 << w) - 1

    def registers(batches: Iterator[list[np.ndarray]]) -> Iterator[pd.DataFrame]:
        R = np.zeros(M, dtype=np.uint8)
        for users, items in batches:
            pos = virtual_cells(users, items, M, m, seed)
            rho = rho_item(items, cap=cap, seed=seed).astype(np.uint8)
            np.maximum.at(R, pos, rho)
        yield pd.DataFrame({"R": [R.tobytes()]})

    R = np.zeros(M, dtype=np.uint8)
    for row in map_edges(edges, ("user", "item"), registers, "R binary").collect():
        np.maximum(R, np.frombuffer(row.R, dtype=np.uint8), out=R)
    pow2 = pow2_neg_table(cap)
    # registers holding each value; bincount would copy R to int64 first
    counts = np.array([np.count_nonzero(R == v) for v in range(cap + 1)])
    noise = _vhll_noise(M, m, float(counts @ pow2), int(counts[0]))
    lc = np.array([linear_counting(m, z) for z in range(m + 1)])
    first_scale = alpha(m) * m * m
    blow_up = M / (M - m)

    def estimate(R: np.ndarray, idx: np.ndarray) -> np.ndarray:
        cells = R[idx]
        zeros = (cells == 0).sum(axis=1)
        first = first_scale / pow2[cells].sum(axis=1)
        first = np.where((first < 2.5 * m) & (zeros > 0), lc[zeros], first)
        return np.maximum(0.0, blow_up * (first - noise))

    return virtual_estimates_spark(edges, R, M, m, seed, estimate)
