"""Spark end-state estimates of virtual sketches, shared by CSE and vHLL.

Both sketches give user s the virtual sketch ``X[f_1(s)], …, X[f_m(s)]``
of a shared array ``X`` and estimate from it alone (plus global terms
fixed at the end of the stream). :func:`virtual_estimates_spark` spreads
the distinct users over ``defaultParallelism`` Python tasks and reads
their virtual sketches in blocks of users with one broadcast
``f_user(users[:, None], iota[None, :])`` call per block.
"""
from __future__ import annotations

from typing import Callable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.hashing import f_user
from repro.spark_passes import ESTIMATE_SCHEMA

# virtual-sketch cells read per block (users × m); bounds the hash
# temporaries to a few MB
_BLOCK_CELLS = 1 << 18


def virtual_estimates_spark(
    edges: DataFrame,
    X: np.ndarray,
    M: int,
    m: int,
    seed: int,
    estimate: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> DataFrame:
    """``(user, estimate)`` for every distinct user of ``edges``.

    ``X`` (the shared array, in whatever encoding ``estimate`` reads) is
    broadcast; ``estimate(X, idx)`` maps a block of virtual-sketch
    positions ``idx`` (one row of ``m`` positions in ``0..M-1`` per
    user) to the users' estimates.
    """
    sc = edges.sparkSession.sparkContext
    bX = sc.broadcast(X)
    rows = max(1, _BLOCK_CELLS // m)

    def per_user(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        X_local = bX.value
        iota = np.arange(m, dtype=np.int64)[None, :]
        for pdf in batches:
            users = pdf["user"].to_numpy(np.int64)
            ests = np.empty(len(users), dtype=np.float64)
            for lo in range(0, len(users), rows):
                idx = f_user(users[lo : lo + rows, None], iota, M, seed=seed)
                ests[lo : lo + rows] = estimate(X_local, idx)
            yield pd.DataFrame({"user": users, "estimate": ests})

    users = edges.select("user").distinct().repartition(sc.defaultParallelism)
    return users.mapInPandas(per_user, ESTIMATE_SCHEMA)
