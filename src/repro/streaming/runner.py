"""The one place that starts a streaming query.

A stateful query's number of state stores is ``spark.sql.shuffle.partitions``
as the session reads it when the query first starts on a checkpoint; the
checkpoint keeps that count on every restart. FreeBS/FreeRS keep the whole
sketch under one group key, yet every store is loaded and committed on each
micro-batch, so the runner starts queries with one store per core slot
(``defaultParallelism``, the rule the Spark batch passes follow, DESIGN.md
§2) and leaves the session setting as it found it.
"""
from __future__ import annotations

from pathlib import Path

import pandas as pd
from pyspark.sql import DataFrame

_PARTITIONS = "spark.sql.shuffle.partitions"


def run_available(query: DataFrame, mode: str, checkpoint: str | Path) -> pd.DataFrame:
    """Run ``query`` on all input available now, from ``checkpoint``.

    ``mode`` is the operator's output mode (``shared_sketch.OUTPUT_MODE``,
    ``per_user.OUTPUT_MODE``). Returns the rows the query emitted, in batch
    order. A failed query raises its ``StreamingQueryException``.
    """
    spark = query.sparkSession
    frames: list[pd.DataFrame] = []
    previous = spark.conf.get(_PARTITIONS)
    spark.conf.set(_PARTITIONS, str(spark.sparkContext.defaultParallelism))
    try:
        handle = (
            query.writeStream.foreachBatch(lambda df, _: frames.append(df.toPandas()))
            .outputMode(mode)
            .option("checkpointLocation", str(checkpoint))
            .trigger(availableNow=True)
            .start()
        )
    finally:
        spark.conf.set(_PARTITIONS, previous)
    handle.awaitTermination()
    if not frames:
        return pd.DataFrame(columns=query.columns)
    return pd.concat(frames, ignore_index=True)
