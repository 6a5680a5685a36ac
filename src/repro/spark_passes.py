"""The two places Python runs in the Spark batch drivers.

A Python task costs a fixed few hundred milliseconds of worker hand-off
on top of its work, far more than the O(1)-per-edge sketch work of a
partition (DESIGN.md §2 has the numbers). The four Spark batch drivers
therefore keep their Python tasks to:

* :func:`map_edges` — one Arrow ``mapInPandas`` pass over the edges with
  at most one task per core slot (``coalesce(defaultParallelism)``).
  It also checks the input contract: a null in a column the pass reads
  raises ``ValueError`` naming the column.
* :func:`ordered_pass` — FreeBS/FreeRS's one task over the deduplicated
  events (at most one per bit/register change, never all edges). It
  sorts them by ``t``, rejects a repeated ``t`` with ``ValueError`` (the
  event rank would depend on tie order), applies the estimator's
  contribution kernel and, for estimates, sums per user, all in numpy.

Everything between the two (the per-bit/per-register dedupe) runs in
the JVM. On Spark the ``ValueError`` is raised in the Python worker and
reaches the caller as a ``PythonException`` carrying its message. The
streaming queries check the same contract with the same helpers
(:func:`edge_columns`, :func:`t_order`), and the numpy traces check
their inputs with :func:`edge_column`.
"""
from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

TRACE_SCHEMA = "t long, user long, contrib double"
ESTIMATE_SCHEMA = "user long, estimate double"


def first_arrival() -> list[Column]:
    """Aggregates keeping a group's earliest arrival ``(t, user)``.

    ``t`` is unique, so the user is well defined; unlike
    ``min(struct(t, user))`` these run as a hash aggregate.
    """
    return [F.min("t").alias("t"), F.min_by("user", "t").alias("user")]


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


def t_order(t: np.ndarray) -> np.ndarray:
    """The stable permutation sorting ``t``; ``ValueError`` on a repeat.

    A repeated ``t`` would make an event's rank depend on tie order.
    """
    order = np.argsort(t, kind="stable")
    ts = t[order]
    dup = ts[1:][ts[1:] == ts[:-1]]
    if len(dup):
        raise ValueError(f"two events share t={dup[0]}; t must be unique")
    return order


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


def ordered_pass(
    events: DataFrame,
    contrib: Callable[[pd.DataFrame], np.ndarray],
    per_user: bool,
) -> DataFrame:
    """One task over all events in ``t`` order.

    ``contrib`` maps the ``t``-sorted events to their contributions.
    Returns the trace ``(t, user, contrib)``, or with ``per_user`` the
    per-user sums ``(user, estimate)``.
    """

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        chunks = [b for b in batches if len(b)]
        if not chunks:
            return
        ev = pd.concat(chunks, ignore_index=True)
        ev = ev.iloc[t_order(ev["t"].to_numpy())]
        t = ev["t"].to_numpy()
        trace = pd.DataFrame(
            {"t": t, "user": ev["user"].to_numpy(), "contrib": contrib(ev)}
        )
        if per_user:
            sums = estimates_from_trace(trace)
            yield pd.DataFrame({"user": sums.index, "estimate": sums.to_numpy()})
        else:
            yield trace

    schema = ESTIMATE_SCHEMA if per_user else TRACE_SCHEMA
    return events.repartition(1).mapInPandas(run, schema)
