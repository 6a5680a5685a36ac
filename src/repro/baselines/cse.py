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
  evaluation protocol; O(m) per edge re-estimating the arriving user)
  on the virtual-sketch base shared with vHLL
  (:class:`~repro.baselines.virtual.VirtualSketch`).
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

from repro.baselines.virtual import (
    VirtualSketch,
    virtual_cells,
    virtual_estimates_spark,
)
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


class CseSketch(VirtualSketch):
    """Shared bit array + per-user tracked counters (sequential)."""

    def __init__(self, M: int, m: int, seed: int = 0):
        if not 1 <= m <= M:
            raise ValueError("need 1 <= m <= M")
        super().__init__(M, m, seed)
        self.A = np.zeros(self.M, dtype=bool)
        self.U = self.M  # global zero count

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
            A[virtual_cells(users, items, M, m, seed)] = True
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
