"""FreeBS/FreeRS as Structured Streaming stateful aggregations.

The shared array is *global* state — exact semantics need every edge to
see the array left by all earlier edges, so the stream is grouped under
a single constant key and the whole sketch lives in that group's state
(``applyInPandasWithState``): the packed bit/register array plus the
O(1) bookkeeping (``m0`` resp. the register sum ``S``). This module is
only the streaming adapter: it decodes that state (or takes the
estimator's empty one), absorbs the micro-batch in ``t`` order
(:func:`~repro.spark_passes.absorb_in_t_order`) with the estimator's
one kernel (:func:`~repro.core.freebs.freebs_absorb`,
:func:`~repro.core.freers.freers_absorb`) and encodes the new state.
The kernel absorbs a stream in chunks exactly as at once, so a
streaming run equals a batch run over the concatenated stream
bit for bit, which the tests assert.

Input contract, as in the Spark batch drivers
(:mod:`repro.spark_passes`): a null ``t``, user or item, or two edges of
one micro-batch sharing ``t``, fails the query with ``ValueError``.

State size is ``M/8`` bytes (FreeBS) or ``M`` bytes (FreeRS): a few
hundred KB at the paper's M, well inside state-store limits. The one
group lives in one state store, but Spark loads and commits every store
of the query on each micro-batch, so start these queries with
:func:`~repro.streaming.runner.run_available`, which makes one store per
core slot rather than one per shuffle partition. The output is the
trace of accepted events ``(t, user, contrib)`` in ``OUTPUT_MODE``;
per-user estimates are its running sums, exactly as in batch.
"""
from __future__ import annotations

from functools import partial
from typing import Callable, Iterator, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.streaming.state import GroupState, GroupStateTimeout

from repro.core.freebs import freebs_absorb, freebs_empty
from repro.core.freers import freers_absorb, freers_empty
from repro.spark_passes import (
    EDGE_COLUMNS,
    TRACE_SCHEMA,
    absorb_in_t_order,
    edge_columns,
)

OUTPUT_MODE = "append"  # each trace row is final when emitted


def _stateful(
    edges: DataFrame,
    state_schema: str,
    fresh: Callable[[], tuple],
    decode: Callable[..., tuple],
    encode: Callable[..., tuple],
    absorb: Callable[..., tuple[pd.DataFrame, tuple]],
) -> DataFrame:
    """One state group holding the sketch, which ``absorb(sketch, t,
    users, items)`` updates per micro-batch; ``decode``/``encode`` map
    the state row to the sketch and back, ``fresh()`` is the empty one."""

    def fn(
        key: Tuple, pdfs: Iterator[pd.DataFrame], state: GroupState
    ) -> Iterator[pd.DataFrame]:
        sketch = decode(*state.get) if state.exists else fresh()
        pdf = pd.concat(list(pdfs), ignore_index=True)
        columns = edge_columns(pdf, EDGE_COLUMNS)
        trace, sketch = absorb_in_t_order(absorb, sketch, *columns)
        state.update(encode(*sketch))
        yield trace

    return (
        edges.withColumn("g", F.lit(0))
        .groupBy("g")
        .applyInPandasWithState(
            fn, TRACE_SCHEMA, state_schema, OUTPUT_MODE, GroupStateTimeout.NoTimeout
        )
    )


def freebs_stateful(edges: DataFrame, M: int, seed: int = 0) -> DataFrame:
    """Streaming FreeBS: trace of accepted events (``OUTPUT_MODE``)."""
    return _stateful(
        edges,
        "packed binary, m0 long",
        partial(freebs_empty, M),
        lambda packed, m0: (
            np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=M).astype(bool),
            m0,
        ),
        lambda B, m0: (np.packbits(B).tobytes(), int(m0)),
        partial(freebs_absorb, seed=seed),
    )


def freers_stateful(
    edges: DataFrame, M: int, seed: int = 0, w: int = 5
) -> DataFrame:
    """Streaming FreeRS: trace of accepted events (``OUTPUT_MODE``)."""
    return _stateful(
        edges,
        "regs binary, hsum double",
        partial(freers_empty, M),
        lambda regs, S: (np.frombuffer(regs, dtype=np.uint8).copy(), S),
        lambda R, S: (R.tobytes(), float(S)),
        partial(freers_absorb, seed=seed, w=w),
    )
