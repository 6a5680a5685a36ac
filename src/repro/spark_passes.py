"""The two places Python runs in the Spark batch drivers.

A Python task costs a fixed few hundred milliseconds of worker hand-off
on top of its work, far more than the O(1)-per-edge sketch work of a
partition (DESIGN.md §2 has the numbers). The four Spark batch drivers
therefore keep their Python tasks to:

* :func:`map_edges` — one Arrow ``mapInPandas`` pass over the edges with
  at most one task per core slot (``coalesce(defaultParallelism)``).
  It also checks the input contract: a null in a column the pass reads
  raises ``ValueError`` naming the column. FreeBS/FreeRS keep each
  task's local events there (:func:`local_events`); CSE/vHLL build one
  array per task.
* FreeBS/FreeRS's ordered pass (:func:`absorb_passes`) — one task over
  the union of the local events, absorbed again into a fresh sketch.
  The local events cross the shuffle packed: a few rows of raw int64
  bytes per task, not one row per event.

Both FreeBS/FreeRS passes run the estimator's one kernel through
:func:`absorb_in_t_order`, which sorts by ``t`` and rejects a repeated
``t`` with ``ValueError`` (an event would depend on tie order). On Spark
the ``ValueError`` is raised in the Python worker and reaches the caller
as a ``PythonException`` carrying its message. The streaming queries
check the same contract with the same helpers (:func:`edge_columns`,
:func:`absorb_in_t_order`), and the numpy traces check their inputs with
:func:`edge_column`.
"""
from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

TRACE_SCHEMA = "t long, user long, contrib double"
ESTIMATE_SCHEMA = "user long, estimate double"
EDGE_COLUMNS = ("t", "user", "item")
# events per packed row: an 8 MiB cell, far below Spark's 2 GiB row limit
PACKED_ROW = 1 << 20

# absorb(state, t, users, items) -> (trace, state'), as freebs_absorb
Absorb = Callable[..., tuple[pd.DataFrame, tuple]]


def edge_column(values, name: str) -> np.ndarray:
    """Edge column ``name`` as an int64 array; ``ValueError`` on a null.

    An int64 array holds no null and is returned as is, without a copy
    or a scan; a column with nulls arrives as float (NaN) or object.
    """
    if getattr(values, "dtype", None) != np.int64 and pd.isna(values).any():
        raise ValueError(f"edges column {name!r} has a null value")
    return np.asarray(values, dtype=np.int64)


def edge_columns(pdf: pd.DataFrame, names: Sequence[str]) -> list[np.ndarray]:
    """The named edge columns, each checked by :func:`edge_column`."""
    # Series.to_numpy first: np.asarray(Series) takes a much slower path
    return [edge_column(pdf[name].to_numpy(), name) for name in names]


def absorb_in_t_order(
    absorb: Absorb, state: tuple, t: np.ndarray, users: np.ndarray, items: np.ndarray
) -> tuple[pd.DataFrame, tuple]:
    """``absorb`` the edges into ``state`` sorted by ``t``.

    A repeated ``t`` raises ``ValueError``: an event's rank would depend
    on tie order.
    """
    order = np.argsort(t, kind="stable")
    ts = t[order]
    dup = ts[1:][ts[1:] == ts[:-1]]
    if len(dup):
        raise ValueError(f"two events share t={dup[0]}; t must be unique")
    return absorb(state, ts, users[order], items[order])


def local_events(
    absorb: Absorb, state: tuple, t: np.ndarray, users: np.ndarray, items: np.ndarray
) -> list[np.ndarray]:
    """The ``(t, user, item)`` columns of the events of these edges alone.

    The edges are absorbed in ``t`` order into ``state``, a fresh sketch.
    """
    trace, _ = absorb_in_t_order(absorb, state, t, users, items)
    rows = pd.Index(t).get_indexer(trace["t"])  # t is unique
    return [t[rows], users[rows], items[rows]]


def estimates_from_trace(trace: pd.DataFrame) -> pd.Series:
    """Final per-user estimates (index: user) from a trace."""
    return trace.groupby("user")["contrib"].sum()


def map_edges(
    edges: DataFrame,
    columns: Sequence[str],
    fn: Callable[[Iterator[list[np.ndarray]]], Iterator[pd.DataFrame]],
    schema: str,
) -> DataFrame:
    """``fn`` over the edges, one task per core slot at most.

    ``fn`` receives the task's Arrow batches as lists of int64 arrays,
    one per name in ``columns``, checked by :func:`edge_columns`.
    """

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        return fn(edge_columns(pdf, columns) for pdf in batches)

    slots = edges.sparkSession.sparkContext.defaultParallelism
    return edges.select(*columns).coalesce(slots).mapInPandas(run, schema)


def absorb_passes(
    edges: DataFrame, absorb: Absorb, empty: Callable[[], tuple], per_user: bool
) -> DataFrame:
    """``absorb`` twice, each time into a fresh sketch ``empty()``.

    The hash pass keeps each task's :func:`local_events`; one ordered
    task absorbs their union and returns the trace ``(t, user, contrib)``,
    or with ``per_user`` the per-user sums ``(user, estimate)``. The
    local events travel as raw int64 bytes, ``PACKED_ROW`` to a row, so
    the JVM moves a few rows per task instead of one per event. An event
    depends on arrival order alone, so a global event is also an event
    in its task, and an edge beaten by an earlier edge is also beaten by
    a local event at or before that edge: the union has the events, the
    state changes and the contributions of the one-shot trace, bit for
    bit (DESIGN.md §2).
    """

    def hash_pass(batches: Iterator[list[np.ndarray]]) -> Iterator[pd.DataFrame]:
        chunks = list(batches)
        if chunks:
            columns = map(np.concatenate, zip(*chunks))
            events = local_events(absorb, empty(), *columns)
            cuts = range(0, len(events[0]), PACKED_ROW)
            yield pd.DataFrame(
                {
                    name: [e[i : i + PACKED_ROW].tobytes() for i in cuts]
                    for name, e in zip(EDGE_COLUMNS, events)
                }
            )

    def ordered_pass(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        chunks = [b for b in batches if len(b)]
        if not chunks:
            return
        rows = pd.concat(chunks, ignore_index=True)
        union = [np.frombuffer(b"".join(rows[c]), dtype=np.int64) for c in EDGE_COLUMNS]
        trace, _ = absorb_in_t_order(absorb, empty(), *union)
        if per_user:
            sums = estimates_from_trace(trace)
            yield pd.DataFrame({"user": sums.index, "estimate": sums.to_numpy()})
        else:
            yield trace

    events = map_edges(edges, EDGE_COLUMNS, hash_pass, "t binary, user binary, item binary")
    schema = ESTIMATE_SCHEMA if per_user else TRACE_SCHEMA
    return events.repartition(1).mapInPandas(ordered_pass, schema)
