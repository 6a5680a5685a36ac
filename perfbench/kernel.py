"""``kernel``: the numpy drivers only, no JVM.

Each pass runs ``freebs_trace`` and ``freers_trace`` on the flickr
stand-in (load n/M 0.045, most edges become events) and the twitter
stand-in (load 2.94, saturated q, few events), then reads anytime
estimates at 20 checkpoints of every trace with
``estimates_at_checkpoints``.

References: a trace's rows before ``REF_PREFIX`` must equal Algorithm
1/2 (``*_sequential``) on that prefix, with the repository's own
frame-equality check; every later pass must reproduce the warm-up trace
exactly. Checkpoint reads must equal per-user sums of the checked trace
computed here with ``np.bincount`` (rtol 1e-9).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from perfbench.base import SKETCH_SEED, W, Workload
from perfbench.checks import assert_same_estimates
from perfbench.names import DATASETS, ESTIMATORS
from repro.analysis.metrics import estimates_at_checkpoints
from repro.core import freebs_sequential, freebs_trace, freers_sequential, freers_trace
from repro.datasets import CATALOG, generate_stream
from repro.hashing import h_star, rho_star

REF_PREFIX = 50_000
N_CHECKPOINTS = 20

TRACE = {"freebs": freebs_trace, "freers": freers_trace}
SEQUENTIAL = {"freebs": freebs_sequential, "freers": freers_sequential}


def snapshot_reference(trace: pd.DataFrame, checkpoints: list[int]) -> dict:
    """Per-user sums of contributions with ``t < cp``, by ``np.bincount``."""
    trace = trace.sort_values("t")
    t = trace["t"].to_numpy()
    users, inv = np.unique(trace["user"].to_numpy(), return_inverse=True)
    contrib = trace["contrib"].to_numpy()
    out = {}
    for cp in checkpoints:
        k = int(np.searchsorted(t, cp))
        sums = np.bincount(inv[:k], weights=contrib[:k], minlength=len(users))
        seen = np.bincount(inv[:k], minlength=len(users)) > 0
        out[cp] = pd.Series(sums[seen], index=users[seen])
    return out


def register_q(users, items, M: int) -> float:
    """FreeRS ``q_R = Σ_j 2^-R[j] / M`` of the final register array."""
    regs = h_star(users, items, M, seed=SKETCH_SEED)
    rhos = rho_star(users, items, cap=(1 << W) - 1, seed=SKETCH_SEED)
    R = np.zeros(M, dtype=np.int64)
    np.maximum.at(R, regs, rhos)
    return float(np.ldexp(1.0, -R).sum() / M)


class Kernel(Workload):
    def setup(self) -> None:
        self.data = {}
        for d in DATASETS:
            spec = CATALOG[d]
            stream = self.timed_setup(
                "datasets.generate_stream_s", lambda: generate_stream(spec, seed=self.seed)
            )
            users = stream["user"].to_numpy(np.int64)
            items = stream["item"].to_numpy(np.int64)
            n = len(stream)
            M = {"freebs": spec.M_bits, "freers": spec.M_bits // W}
            self.data[d] = {
                "users": users,
                "items": items,
                "n": n,
                "M": M,
                "checkpoints": [int(c) for c in np.linspace(0, n, N_CHECKPOINTS + 1)[1:]],
                "sequential": {
                    e: SEQUENTIAL[e](users[:REF_PREFIX], items[:REF_PREFIX], M[e], seed=SKETCH_SEED)
                    for e in ESTIMATORS
                },
                "trace": {},  # warm-up trace, checked against the prefix
                "snapshots": {},  # reference reads of that trace
            }
            self.config[f"dataset.{d}"] = {
                "edges": n,
                "M_freebs_bits": M["freebs"],
                "M_freers_registers": M["freers"],
                "load_n_over_M": spec.total_card / spec.M_bits,
            }
        self.config["checkpoints_per_trace"] = N_CHECKPOINTS
        self.config["reference_prefix_edges"] = REF_PREFIX
        self.phase("warm_up", lambda: self.run_pass(0, keep=False))

    def _check_trace(self, d: str, e: str, got: pd.DataFrame) -> None:
        ref = self.data[d]["trace"].get(e)
        if ref is None:
            prefix = got[got["t"] < REF_PREFIX].reset_index(drop=True)
            pd.testing.assert_frame_equal(prefix, self.data[d]["sequential"][e])
            return
        for col in ("t", "user", "contrib"):
            if not np.array_equal(got[col].to_numpy(), ref[col].to_numpy()):
                raise AssertionError(f"{col} differs from the warm-up trace")

    def _check_snapshots(self, d: str, e: str, got: dict) -> None:
        want = self.data[d]["snapshots"][e]
        if set(got) != set(want):
            raise AssertionError("checkpoint sets differ")
        for cp, series in want.items():
            assert_same_estimates(got[cp], series, rtol=1e-9)

    def run_pass(self, i: int, keep: bool = True) -> None:
        for d in DATASETS:
            x = self.data[d]
            u, it = x["users"], x["items"]
            if self.trace:
                self.ledger.timed(
                    f"hashing.h_star.{d}", lambda: h_star(u, it, x["M"]["freebs"]), keep=keep
                )
                self.ledger.timed(
                    f"hashing.rho_star.{d}", lambda: rho_star(u, it, cap=(1 << W) - 1), keep=keep
                )
            for e in ESTIMATORS:
                trace = self.ledger.timed(
                    f"{e}_trace.{d}",
                    lambda: TRACE[e](u, it, x["M"][e], seed=SKETCH_SEED),
                    lambda got: self._check_trace(d, e, got),
                    keep=keep,
                )
                if trace is None:
                    continue
                if e not in x["trace"]:
                    x["trace"][e] = trace
                    x["snapshots"][e] = snapshot_reference(trace, x["checkpoints"])
                self.ledger.timed(
                    f"snapshot.{e}.{d}",
                    lambda: estimates_at_checkpoints(trace, x["checkpoints"]),
                    lambda got: self._check_snapshots(d, e, got),
                    keep=keep,
                )

    def pass_ops(self) -> list[str]:
        return [
            op for d in DATASETS for e in ESTIMATORS for op in (f"{e}_trace.{d}", f"snapshot.{e}.{d}")
        ]

    def throughput(self) -> dict[str, float]:
        n = sum(self.data[d]["n"] for d in DATASETS)
        return {
            f"{e}_edges_per_s": n / sum(self.median(f"{e}_trace.{d}") for d in DATASETS)
            for e in ESTIMATORS
        }

    def collect_layers(self) -> dict[str, tuple[float, int]]:
        out = {
            f"hashing.{h}_s": self.ops_layer([f"hashing.{h}.{d}" for d in DATASETS])
            for h in ("h_star", "rho_star")
        }
        out["analysis.estimates_at_checkpoints_s"] = self.ops_layer(
            [f"snapshot.{e}.{d}" for d in DATASETS for e in ESTIMATORS]
        )
        rows = 0
        for d in DATASETS:
            x = self.data[d]
            for e in ESTIMATORS:
                events, M = len(x["trace"][e]), x["M"][e]
                q = (M - events) / M if e == "freebs" else register_q(x["users"], x["items"], M)
                out[f"core.{e}_trace_s.{d}"] = self.ops_layer([f"{e}_trace.{d}"])
                out[f"core.{e}_events.{d}"] = (events, 1)
                out[f"core.{e}_accept_ratio.{d}"] = (events / x["n"], 1)
                out[f"core.{e}_q_final.{d}"] = (q, 1)
                rows += events * len(x["checkpoints"])
        out["analysis.checkpoint_rows_scanned"] = (rows, 1)
        return out

