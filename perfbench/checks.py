"""Timed operations, their correctness checks and the failure count.

Every operation the benchmark times goes through :meth:`Ledger.timed`:
the call is timed, then its result is compared with the repository's
reference outside the timed region. An exception in either step, or a
mismatch, counts the operation as failed; its time is not kept as a
sample. ``ok_frac`` is ``(attempted - failed) / attempted``.
"""
from __future__ import annotations

import time
import traceback
from collections import defaultdict
from typing import Any, Callable

import numpy as np
import pandas as pd


class Ledger:
    """Attempted/failed counts and kept time samples, per operation name."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)

    def timed(
        self,
        name: str,
        op: Callable[[], Any],
        check: Callable[[Any], None] | None = None,
        keep: bool = True,
    ) -> Any:
        """Run ``op``, time it, check its result; ``None`` if it failed.

        ``keep=False`` (warm-up) still counts and checks the operation but
        keeps no time sample.
        """
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            result = op()
            dt = time.perf_counter() - t0
            if check is not None:
                check(result)
        except Exception:  # a failed operation is counted, the run goes on
            self.failed += 1
            self.failures.append(f"{name}: {traceback.format_exc(limit=3)}")
            return None
        if keep:
            self.samples[name].append(dt)
        return result

    @property
    def ok_frac(self) -> float:
        if not self.attempted:
            raise ValueError("no operation attempted")
        return (self.attempted - self.failed) / self.attempted


def assert_same_trace(got: pd.DataFrame, want: pd.DataFrame, rtol: float) -> None:
    """Same events ``(t, user)`` in order; contributions equal within ``rtol``."""
    got = got.sort_values("t").reset_index(drop=True)
    want = want.sort_values("t").reset_index(drop=True)
    if len(got) != len(want):
        raise AssertionError(f"{len(got)} events, expected {len(want)}")
    if not np.array_equal(got["t"].to_numpy(), want["t"].to_numpy()):
        raise AssertionError("event times differ")
    if not np.array_equal(got["user"].to_numpy(), want["user"].to_numpy()):
        raise AssertionError("event users differ")
    np.testing.assert_allclose(
        got["contrib"].to_numpy(), want["contrib"].to_numpy(), rtol=rtol
    )


def assert_same_estimates(got: pd.Series, want: pd.Series, rtol: float) -> None:
    """Same users; per-user estimates equal within ``rtol``."""
    got, want = got.sort_index(), want.sort_index()
    if not got.index.equals(want.index):
        raise AssertionError(
            f"user sets differ: {len(got)} estimated, {len(want)} expected"
        )
    np.testing.assert_allclose(got.to_numpy(), want.to_numpy(), rtol=rtol)

