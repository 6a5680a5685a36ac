"""Table I — dataset summary (paper vs scaled synthetic stand-ins).

Generates every catalog dataset, computes #users / max-cardinality /
total-cardinality with Spark (cross-checked against the DuckDB oracle),
and prints them next to the paper's numbers and the scaled targets.

Run: ``spark-submit jobs/table1_datasets.py [--datasets a,b] [--seed N]``
"""
import argparse
import sys

import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import SparkSession

from repro.datasets import CATALOG, generate_stream
from repro.oracle import assert_equivalent


def table1(spark: SparkSession, names: list[str], seed: int):
    rows = []
    for name in names:
        spec = CATALOG[name]
        stream = generate_stream(spec, seed=seed)
        sdf = spark.createDataFrame(stream)
        per_user = sdf.groupBy("user").agg(
            F.countDistinct("item").alias("card")
        )
        assert_equivalent(
            per_user,
            "SELECT user, COUNT(DISTINCT item) AS card FROM edges GROUP BY user",
            edges=stream,
        )
        agg = per_user.agg(
            F.count("*").alias("users"),
            F.max("card").alias("max_card"),
            F.sum("card").alias("total_card"),
        ).collect()[0]
        rows.append(
            {
                "dataset": name,
                "scale": spec.scale,
                "paper_users": spec.paper_users,
                "users": int(agg["users"]),
                "paper_max_card": spec.paper_max_card,
                "max_card": int(agg["max_card"]),
                "paper_total_card": spec.paper_total_card,
                "total_card": int(agg["total_card"]),
                "stream_len": len(stream),
                "M_bits": spec.M_bits,
            }
        )
    return rows


def render(rows: list[dict]) -> str:
    return (
        "Table I — paper vs synthetic stand-in (oracle-verified)\n"
        + pd.DataFrame(rows).to_string(index=False)
    )


def violated_claims(rows: list[dict]) -> list[str]:
    """The targets each generated dataset misses, one message each:
    total cardinality within 2% of the scaled paper total, and the user
    count exact (by construction)."""
    out = [] if rows else ["Table I: no rows"]
    for r in rows:
        spec = CATALOG[r["dataset"]]
        if not abs(r["total_card"] / spec.total_card - 1) < 0.02:
            out.append(f"{spec.name}: total cardinality off its target by 2% or more")
        if r["users"] != spec.users:
            out.append(f"{spec.name}: {r['users']} users, target {spec.users}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--datasets", default=",".join(CATALOG))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    spark = SparkSession.builder.appName("table1").getOrCreate()
    print(render(table1(spark, args.datasets.split(","), args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
