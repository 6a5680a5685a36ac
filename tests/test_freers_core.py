"""Tests for FreeRS local layers (Algorithm 2 + vectorized reformulation)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.freers import (
    estimates_from_trace,
    freers_absorb,
    freers_empty,
    freers_sequential,
    freers_trace,
)


def _stream(n_users, n_items, n_edges, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n_users, n_edges), rng.integers(0, n_items, n_edges)


class TestExactEquivalence:
    """The vectorized reformulation IS Algorithm 2 — bit-for-bit."""

    @pytest.mark.parametrize("M", [16, 100, 1024, 10_000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trace_equals_sequential(self, M, seed):
        users, items = _stream(30, 500, 4000, seed)
        pd.testing.assert_frame_equal(
            freers_sequential(users, items, M, seed=seed),
            freers_trace(users, items, M, seed=seed),
        )

    @pytest.mark.parametrize("w", [3, 5, 8])
    def test_register_width_respected(self, w):
        users, items = _stream(30, 500, 4000, 0)
        pd.testing.assert_frame_equal(
            freers_sequential(users, items, 256, w=w),
            freers_trace(users, items, 256, w=w),
        )


class TestAlgorithmProperties:
    def test_duplicate_edges_never_contribute(self):
        users = np.array([1, 2, 1, 1])
        items = np.array([10, 20, 10, 10])
        trace = freers_trace(users, items, 1 << 20)
        assert len(trace) == 2
        assert set(trace["user"]) == {1, 2}

    def test_first_contribution_is_one(self):
        users, items = _stream(5, 100, 50, 0)
        trace = freers_trace(users, items, 4096)
        assert trace["contrib"].iloc[0] == pytest.approx(1.0)

    def test_record_semantics(self):
        # feed a stream whose pairs all land in one register (found by
        # brute search): events must be exactly the running-max records
        M = 8
        from repro.hashing import h_star, rho_star

        items = np.arange(5000)
        users = np.zeros_like(items)
        regs = h_star(users, items, M)
        in_reg0 = items[regs == 0][:50]
        rhos = rho_star(np.zeros_like(in_reg0), in_reg0, cap=31)
        trace = freers_trace(np.zeros_like(in_reg0), in_reg0, M)
        running, records = 0, []
        for t, r in enumerate(rhos):
            if r > running:
                running = r
                records.append(t)
        assert list(trace["t"]) == records

    def test_contribution_bounded_below_by_one(self):
        # q_R <= 1 always, so every contribution >= 1
        users, items = _stream(20, 100_000, 20_000, 5)
        trace = freers_trace(users, items, 128)
        assert (trace["contrib"] >= 1.0 - 1e-12).all()

    def test_trace_t_strictly_increasing(self):
        users, items = _stream(30, 500, 4000, 1)
        trace = freers_trace(users, items, 512)
        assert (np.diff(trace["t"].to_numpy()) > 0).all()


class TestSaturation:
    """Every register at its cap: more distinct pairs are no records and
    change nothing."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("M", range(1, 9))
    def test_full_array_absorbs_nothing(self, M):
        t = np.arange(1000, dtype=np.int64)
        fill = np.zeros(1000, dtype=np.int64)
        _, (R, S) = freers_absorb(freers_empty(M), t, fill, t, w=1)  # cap 1
        assert (R == 1).all() and S == M / 2
        more = np.ones(1000, dtype=np.int64)  # pairs (1, d), none seen before
        trace, (R, S_after) = freers_absorb((R, S), t + 1000, more, t, w=1)
        assert trace.empty
        assert (R == 1).all() and S_after == S


class TestStatistics:
    def test_unbiased(self):
        """Theorem 2: E[n̂_s] = n_s (Monte Carlo over hash seeds)."""
        users = np.repeat(np.arange(20), 50)
        items = np.arange(1000)
        rng = np.random.default_rng(0)
        perm = rng.permutation(1000)
        users, items = users[perm], items[perm]
        M = 64  # heavy load: n/M ~ 16 distinct pairs per register
        means = []
        for seed in range(60):
            est = estimates_from_trace(freers_trace(users, items, M, seed=seed))
            means.append(est.reindex(range(20)).fillna(0).to_numpy())
        avg = np.mean(means, axis=0)
        assert np.abs(avg.mean() - 50) < 4.0
        assert np.all(np.abs(avg - 50) < 20)

    def test_variance_within_theory_bound(self):
        from repro.analysis.theory import freers_variance

        users = np.repeat(np.arange(10), 100)
        items = np.arange(1000)
        M = 64
        ests = []
        for seed in range(50):
            est = estimates_from_trace(freers_trace(users, items, M, seed=seed))
            ests.append(est.reindex(range(10)).fillna(0).to_numpy())
        emp_var = np.var(ests, axis=0).mean()
        bound = freers_variance(100, 1000, M)
        assert emp_var < 2.0 * bound

    def test_total_estimate_tracks_total_cardinality(self):
        users, items = _stream(50, 2000, 30_000, 9)
        n_total = len(pd.DataFrame({"u": users, "i": items}).drop_duplicates())
        trace = freers_trace(users, items, 1024)
        assert estimates_from_trace(trace).sum() == pytest.approx(
            n_total, rel=0.05
        )

    def test_estimation_range_exceeds_bit_sharing(self):
        """§IV-C: registers keep counting where a bit array saturates."""
        # tiny M, many distinct pairs: FreeBS saturates at ~M ln M,
        # FreeRS keeps scaling (range 2^2^w)
        from repro.core.freebs import freebs_trace

        users = np.zeros(200_000, dtype=np.int64)
        items = np.arange(200_000)
        M = 64
        bs = freebs_trace(users, items, M)["contrib"].sum()
        rs = freers_trace(users, items, M)["contrib"].sum()
        assert bs < 64 * np.log(64) * 1.5  # saturated
        assert rs > 5 * bs  # register sharing keeps going
