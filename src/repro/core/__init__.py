"""The paper's primary contribution: FreeBS and FreeRS (§IV).

Each estimator ships in three layers proven equivalent by the tests:

* ``*_sequential`` — the paper's Algorithm 1/2 verbatim (a Python loop
  over the stream); reference semantics and the runtime benchmark.
* ``*_trace`` — an exact vectorized (numpy) reformulation via the
  event-rank identity (DESIGN.md §2); used by the evaluation harnesses.
* ``*_spark`` — the same reformulation in the Spark DataFrame API, the
  distributed implementation: one ``mapInPandas`` hash pass with one
  task per core slot, a JVM dedupe, and one ordered task over the
  events that runs the numpy kernel (DESIGN.md §2).
"""
from repro.core.freebs import (
    freebs_sequential,
    freebs_spark,
    freebs_spark_trace,
    freebs_trace,
)
from repro.core.freers import (
    freers_sequential,
    freers_spark,
    freers_spark_trace,
    freers_trace,
)

__all__ = [
    "freebs_sequential",
    "freebs_trace",
    "freebs_spark",
    "freebs_spark_trace",
    "freers_sequential",
    "freers_trace",
    "freers_spark",
    "freers_spark_trace",
]
