"""Per-user sketches as keyed streaming state (the per-key pattern).

HLL++ per-user sketches as a Structured Streaming stateful aggregation
keyed by ``user``: each key's state is its packed register array, and
every micro-batch emits the user's refreshed cardinality estimate —
"mapGroupsWithState updating sketch arrays per key". Update mode: one
row per user per batch that touched it.
"""
from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.streaming.state import GroupState, GroupStateTimeout
from pyspark.sql.types import (
    BinaryType,
    DoubleType,
    LongType,
    StructField,
    StructType,
)

from repro.baselines.hll import hll_readout
from repro.hashing import h_item, rho_item
from repro.spark_passes import edge_columns

_OUT_SCHEMA = StructType(
    [StructField("user", LongType()), StructField("estimate", DoubleType())]
)
_STATE_SCHEMA = StructType([StructField("regs", BinaryType())])
OUTPUT_MODE = "update"  # a user's row is replaced by its next estimate


def hllpp_stateful(
    edges: DataFrame, m: int, w: int = 6, seed: int = 0
) -> DataFrame:
    """Streaming per-user HLL++: ``(user, estimate)`` per touched user."""
    cap = (1 << w) - 1

    def fn(
        key: Tuple, pdfs: Iterator[pd.DataFrame], state: GroupState
    ) -> Iterator[pd.DataFrame]:
        (user,) = key
        if state.exists:
            (regs_bytes,) = state.get
            regs = np.frombuffer(regs_bytes, dtype=np.uint8).copy()
        else:
            regs = np.zeros(m, dtype=np.uint8)
        for pdf in pdfs:
            _, items = edge_columns(pdf, ("user", "item"))
            idx = h_item(items, m, seed=seed)
            rho = rho_item(items, cap=cap, seed=seed).astype(np.uint8)
            np.maximum.at(regs, idx, rho)
        state.update((regs.tobytes(),))
        yield pd.DataFrame({"user": [user], "estimate": [hll_readout(regs)]})

    return edges.groupBy("user").applyInPandasWithState(
        fn, _OUT_SCHEMA, _STATE_SCHEMA, OUTPUT_MODE, GroupStateTimeout.NoTimeout
    )
