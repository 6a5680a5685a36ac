"""The paper's primary contribution: FreeBS and FreeRS (§IV).

Each estimator has one pure kernel, ``*_absorb(state, t, users, items)
-> (trace, state')`` with the state ``(B, m0)`` resp. ``(R, S)``, whose
empty value ``*_empty(M)`` builds. Three thin adapters drive the
kernels, proven equivalent by the tests:

* ``*_trace`` — numpy: the kernel on an empty state (DESIGN.md §2);
  used by the evaluation harnesses.
* ``*_spark`` — Spark batch: the kernel twice, each time on an empty
  state: per task in one ``mapInPandas`` hash pass with one task per
  core slot, then in one ordered task over the union of the tasks'
  events (DESIGN.md §2).
* :mod:`repro.streaming.shared_sketch` — Structured Streaming: the
  kernel on the state carried between micro-batches.

``*_sequential`` is the paper's Algorithm 1/2 verbatim (a Python loop
over the stream): the test oracle and the runtime benchmark.
"""
from repro.core.freebs import (
    freebs_absorb,
    freebs_empty,
    freebs_sequential,
    freebs_spark,
    freebs_spark_trace,
    freebs_trace,
)
from repro.core.freers import (
    freers_absorb,
    freers_empty,
    freers_sequential,
    freers_spark,
    freers_spark_trace,
    freers_trace,
)

__all__ = [
    "freebs_absorb",
    "freebs_empty",
    "freebs_sequential",
    "freebs_trace",
    "freebs_spark",
    "freebs_spark_trace",
    "freers_absorb",
    "freers_empty",
    "freers_sequential",
    "freers_trace",
    "freers_spark",
    "freers_spark_trace",
]
