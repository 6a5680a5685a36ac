"""Structured Streaming demo — FreeBS/FreeRS as stateful aggregations.

Replays a catalog dataset as a micro-batched file stream and runs the
``applyInPandasWithState`` implementations, checks that each streaming
trace equals the numpy trace bit for bit, and prints the top estimated
users.

Run: ``spark-submit jobs/streaming_demo.py [--dataset flickr] [--edges N]``
"""
import argparse
import sys
import tempfile

import numpy as np
from pyspark.sql import SparkSession

from repro.core.freebs import freebs_trace
from repro.core.freers import freers_trace
from repro.datasets import CATALOG, generate_stream, true_cardinalities
from repro.streaming import (
    freebs_stateful,
    freers_stateful,
    read_edge_stream,
    write_stream_batches,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", default="flickr")
    ap.add_argument("--edges", type=int, default=50_000)
    ap.add_argument("--batches", type=int, default=10)
    ap.add_argument("--M", type=int, default=1 << 20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    spark = SparkSession.builder.appName("streaming-demo").getOrCreate()
    stream = generate_stream(CATALOG[args.dataset], seed=args.seed).head(
        args.edges
    )
    users, items = stream["user"].to_numpy(), stream["item"].to_numpy()

    for name, stateful, local, M in [
        ("freebs", freebs_stateful, freebs_trace, args.M),
        ("freers", freers_stateful, freers_trace, args.M // 5),
    ]:
        with tempfile.TemporaryDirectory() as d:
            write_stream_batches(stream, d, n_batches=args.batches)
            q = (
                stateful(read_edge_stream(spark, d), M, seed=args.seed)
                .writeStream.format("memory")
                .queryName(f"{name}_demo")
                .outputMode("append")
                .trigger(availableNow=True)
                .start()
            )
            q.awaitTermination()
            got = spark.table(f"{name}_demo").toPandas().sort_values("t")
        want = local(users, items, M, seed=args.seed)
        # bit for bit: the demo's M are below 2^22 (DESIGN.md §6)
        if not all(np.array_equal(got[c], want[c]) for c in ("t", "user", "contrib")):
            raise AssertionError(f"{name}: streaming trace != batch trace")
        est = got.groupby("user")["contrib"].sum().sort_values(ascending=False)
        truth = true_cardinalities(stream)
        print(f"\n=== {name}: streaming == batch ✓ ; top-5 users ===")
        for u, e in est.head(5).items():
            print(f"  user {u}: estimate {e:10.1f}  truth {truth[u]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
