"""Benchmark of the FreeBS/FreeRS reproduction across its three drivers.

Run from the repository root::

    python3 perfbench/run.py --workload kernel --seed 1 --seconds 10 --trace 0

Workloads (closed loop: one operation at a time):

* ``kernel`` — numpy ``freebs_trace``/``freers_trace`` on the flickr and
  twitter stand-ins plus anytime checkpoint reads; no JVM.
* ``spark-batch`` — ``freebs_spark``, ``freers_spark``, ``cse_spark`` and
  ``vhll_spark`` on the cached flickr DataFrame.
* ``stream`` — ``freebs_stateful``, ``freers_stateful`` and
  ``hllpp_stateful`` replaying flickr micro-batches.

Set-up (inputs, references, Spark start, caching, one untimed warm-up
pass) is timed as ``setup_s``. Passes then repeat until ``--seconds``
have passed; at least one pass always runs. Every operation's output is
checked against the repository's reference implementations; a mismatch
or an exception counts as a failed operation.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` turns on the
Spark event log and prints the per-layer metrics. The report above the
last line gives the host and configuration, every operation's median,
sample count and tail percentile, and (traced) the tracing overhead
against the last untraced run of the workload. The last line of
standard output is the JSON result.

Output files go to ``.perfbench_out/`` under the current directory.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

# the perfbench package (this file's parent directory) must be importable
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.names import END_TO_END, WORKLOADS, per_layer_units  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _workload_class(name: str):
    # imported late: they import the library under test and pyspark
    if name == "kernel":
        from perfbench.kernel import Kernel as cls
    elif name == "spark-batch":
        from perfbench.spark_batch import SparkBatch as cls
    else:
        from perfbench.stream import Stream as cls
    return cls


def _emit(tag: str, obj) -> None:
    print(f"{tag} {json.dumps(obj, sort_keys=True, default=str)}")


def _fmt_summary(s: dict) -> str:
    tail = f", p{s['tail_p']:g}={s['tail']:.6g}" if s["tail_p"] is not None else ""
    return f"median={s['median']:.6g} n={s['n']}{tail}"


def run(args: argparse.Namespace) -> int:
    from perfbench.session import host_block, prepare_env

    out = OUT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    prepare_env(ROOT / "src", out / "tmp")
    wl = _workload_class(args.workload)(args.seed, bool(args.trace), out)

    try:
        t0 = time.perf_counter()
        wl.setup()
        setup_s = time.perf_counter() - t0
        deadline = time.perf_counter() + args.seconds
        passes = 0
        while passes == 0 or (time.perf_counter() < deadline and wl.has_pass()):
            passes += 1
            wl.run_pass(passes)
    finally:
        wl.close()

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} passes={passes}")
    host = host_block()
    _emit("host", host)
    _emit("config", wl.config)
    for op, s in wl.op_summaries().items():
        print(f"op {op}: {_fmt_summary(s)} s")
    for msg in wl.ledger.failures:
        print(f"FAILED {msg}", file=sys.stderr)

    e2e = {
        "setup_s": setup_s,
        "ops_ok_frac": wl.ledger.ok_frac,
        "peak_rss_mb": wl.peak_rss_mb(),
        **wl.throughput(),
        "pass_s": wl.pass_s(),
    }
    for k, v in e2e.items():
        print(f"end_to_end {k} = {v:.6g} {END_TO_END[k]}")
    record = {"workload": args.workload, "seed": args.seed, "end_to_end": e2e}

    if args.trace:
        layers = {**wl.setup_layers(), **wl.collect_layers(), "tracing.pass_s": (e2e["pass_s"], passes)}
        units = per_layer_units()
        unknown = set(layers) - set(units)
        if unknown:
            raise RuntimeError(f"unnamed layer metrics: {sorted(unknown)}")
        for k, unit in units.items():
            v, n = layers.get(k, (0.0, 0))
            print(f"layer {k} = {v:.6g} {unit} (n={n})")
        untraced = OUT / f"{args.workload}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["end_to_end"]
            for k in ("pass_s", "freebs_edges_per_s", "freers_edges_per_s"):
                print(f"tracing overhead {k}: traced {e2e[k]:.6g} vs untraced "
                      f"{base[k]:.6g} ({(e2e[k] / base[k] - 1) * 100:+.1f}%)")
        metrics = {k: {"value": float(layers.get(k, (0.0, 0))[0]), "unit": u} for k, u in units.items()}
        record["layers"] = {k: v for k, (v, _) in layers.items()}
    else:
        metrics = {k: {"value": float(v), "unit": END_TO_END[k]} for k, v in e2e.items()}

    record.update(host=host, config=wl.config, ops=wl.op_summaries())
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str)
    )
    print(json.dumps({
        "correct": wl.ledger.failed == 0,
        "attempted": wl.ledger.attempted,
        "failed": wl.ledger.failed,
        "metrics": metrics,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the library under test
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
