"""Baselines the paper compares against (§III, §V-B) — built from scratch.

* :mod:`repro.baselines.lpc` — per-user Linear-Time Probabilistic
  Counting [Whang et al. 1990].
* :mod:`repro.baselines.hll` — per-user HyperLogLog; the paper's HLL++
  baseline is HLL with 6-bit registers + linear-counting small-range
  correction (substitution documented in DESIGN.md §5).
* :mod:`repro.baselines.cse` — CSE virtual-LPC bit sharing
  [Yoon et al. 2009].
* :mod:`repro.baselines.vhll` — vHLL virtual-HLL register sharing
  [Xiao et al. 2015].

All four run the paper's evaluation protocol (§V-B: one counter per
user, updated on that user's arrivals) through one tracked-counter
``run``/``final_estimates``
(:class:`~repro.baselines.estimators.TrackedCounters`); each sketch adds
only its hashing and its per-edge ``update``. CSE and vHLL share the
virtual-sketch base :class:`~repro.baselines.virtual.VirtualSketch`
(memoized ``f_1(s)..f_m(s)``, ``end_state_estimates``; O(m) per edge)
and a Spark batch end-state estimator (per-task arrays from one
``mapInPandas`` pass over the edges, reduced on the driver; per-user
estimates via blocked ``mapInPandas`` reads of the broadcast array,
:mod:`repro.baselines.virtual`).
"""
from repro.baselines.estimators import alpha, linear_counting
from repro.baselines.lpc import LpcPerUser
from repro.baselines.hll import HllPerUser
from repro.baselines.cse import CseSketch, cse_spark
from repro.baselines.vhll import VhllSketch, vhll_spark

__all__ = [
    "alpha",
    "linear_counting",
    "LpcPerUser",
    "HllPerUser",
    "CseSketch",
    "cse_spark",
    "VhllSketch",
    "vhll_spark",
]
