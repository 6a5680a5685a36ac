"""The paper's primary contribution: FreeBS and FreeRS (§IV).

Each estimator has one pure kernel, ``*_absorb(state, t, users, items)
-> (trace, state')`` with the state ``(B, m0)`` resp. ``(R, S)``, and
its event weights ``flip_contrib``/``record_contrib``. Three thin
adapters drive them, proven equivalent by the tests:

* ``*_trace`` — numpy: the kernel on a fresh state (DESIGN.md §2); used
  by the evaluation harnesses.
* ``*_spark`` — Spark batch: one ``mapInPandas`` hash pass with one
  task per core slot, a JVM dedupe, and one ordered task over the
  events that applies the event weights (DESIGN.md §2).
* :mod:`repro.streaming.shared_sketch` — Structured Streaming: the
  kernel on the state carried between micro-batches.

``*_sequential`` is the paper's Algorithm 1/2 verbatim (a Python loop
over the stream): the test oracle and the runtime benchmark.
"""
from repro.core.freebs import (
    freebs_absorb,
    freebs_sequential,
    freebs_spark,
    freebs_spark_trace,
    freebs_trace,
)
from repro.core.freers import (
    freers_absorb,
    freers_sequential,
    freers_spark,
    freers_spark_trace,
    freers_trace,
)

__all__ = [
    "freebs_absorb",
    "freebs_sequential",
    "freebs_trace",
    "freebs_spark",
    "freebs_spark_trace",
    "freers_absorb",
    "freers_sequential",
    "freers_trace",
    "freers_spark",
    "freers_spark_trace",
]
