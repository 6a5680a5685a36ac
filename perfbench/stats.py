"""Summary statistics for timed samples.

A timing is reported as its median, its sample count and the highest
percentile that still has at least ten samples beyond it (fewer samples
than that cannot support a tail percentile, so none is reported).
"""
from __future__ import annotations

import math
import statistics

# percentiles considered for the tail, lowest first
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile ``p`` with ``>= 10`` of ``n`` samples beyond it.

    ``n * (1 - p/100)`` samples lie above the p-th percentile, so ``p``
    qualifies when that is at least ten. Returns ``None`` below 20 samples.
    """
    best = None
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            best = p
    return best


def percentile(samples: list[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (numpy's default method)."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(samples: list[float]) -> dict:
    """``{"median", "n", "tail_p", "tail"}`` for one metric's samples."""
    if not samples:
        raise ValueError("no samples")
    p = tail_percentile(len(samples))
    return {
        "median": statistics.median(samples),
        "n": len(samples),
        "tail_p": p,
        "tail": percentile(samples, p) if p is not None else None,
    }
