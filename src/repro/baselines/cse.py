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

Two layers on the virtual-sketch base shared with vHLL
(:class:`~repro.baselines.virtual.VirtualSketch`):

* :class:`CseSketch` — sequential tracked-counter run (the paper's
  evaluation protocol; O(m) per edge re-estimating the arriving user).
* :func:`cse_spark` — Spark batch end-of-stream estimates
  (:func:`~repro.baselines.virtual.virtual_spark`).

Both read a user through the one read-out: the virtual zero count, then
:func:`cse_estimate`.
"""
from __future__ import annotations

import math
from functools import partial

import numpy as np
from pyspark.sql import DataFrame

from repro.baselines.estimators import bitmap_zeros
from repro.baselines.virtual import VirtualSketch, virtual_spark


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
        super().__init__(M, m, seed, np.zeros(int(M), dtype=bool))
        self.U = self.M  # global zero count

    @property
    def A(self) -> np.ndarray:
        """The shared bit array (the paper's name for ``cells``)."""
        return self.cells

    def __getstate__(self) -> dict:
        # pickled (for Spark) with the bits packed, 8 to a byte
        return dict(self.__dict__, cells=np.packbits(self.cells))

    def __setstate__(self, state: dict) -> None:
        bits = np.unpackbits(state["cells"], count=state["M"])
        self.__dict__.update(state, cells=bits.view(bool))

    def _stats(self, cells: np.ndarray) -> tuple[np.ndarray]:
        return (bitmap_zeros(cells),)

    def _formula(self, virtual_zeros: int) -> float:
        return cse_estimate(self.M, self.m, int(virtual_zeros), self.U)

    def _recount(self) -> None:
        self.U = int(bitmap_zeros(self.A))

    def update(self, s: int, pos: int) -> None:
        """Set bit ``pos`` (= ``f_{h(d)}(s)``) and refresh s's counter."""
        if not self.A[pos]:
            self.A[pos] = True
            self.U -= 1
        self.estimates[s] = self.estimate(s)


def cse_spark(edges: DataFrame, M: int, m: int, seed: int = 0) -> DataFrame:
    """CSE on Spark: end-of-stream estimates ``(user, estimate)``; the
    merged array is the OR of the tasks' bit arrays."""
    return virtual_spark(edges, partial(CseSketch, M=M, m=m, seed=seed))
