"""Structured Streaming implementations (the repro-target layering).

The paper's sketches are *streaming* operators; here they are expressed
as Spark Structured Streaming stateful aggregations
(``applyInPandasWithState``):

* :mod:`repro.streaming.shared_sketch` — FreeBS/FreeRS. The shared
  array is global state, so exact semantics require a single state
  group: the packed bit/register array plus ``m0`` resp. ``S`` live in
  state, and one adapter absorbs each ``t``-sorted micro-batch with the
  estimator's kernel (``freebs_absorb``/``freers_absorb``), the same
  one the numpy trace runs. Tests assert the streaming run equals the
  batch run bit for bit.
* :mod:`repro.streaming.per_user` — the per-key pattern: per-user
  HLL++ sketch arrays keyed by user, emitting each user's current
  estimate every micro-batch.
* :mod:`repro.streaming.source` — a deterministic file-backed
  micro-batch edge stream (ordered parquet chunks, one file per
  trigger).
* :mod:`repro.streaming.runner` — :func:`run_available`, the one query
  starter (one state store per core slot); callers pass it the
  operator module's ``OUTPUT_MODE``.

All three queries read their columns through
:func:`repro.spark_passes.edge_columns`: a null fails the query with
``ValueError`` naming the column.
"""
from repro.streaming.source import read_edge_stream, write_stream_batches
from repro.streaming.shared_sketch import freebs_stateful, freers_stateful
from repro.streaming.per_user import hllpp_stateful
from repro.streaming.runner import run_available

__all__ = [
    "write_stream_batches",
    "read_edge_stream",
    "freebs_stateful",
    "freers_stateful",
    "hllpp_stateful",
    "run_available",
]
