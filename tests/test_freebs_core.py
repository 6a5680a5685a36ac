"""Tests for FreeBS local layers (Algorithm 1 + vectorized reformulation)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.freebs import (
    estimates_from_trace,
    freebs_absorb,
    freebs_empty,
    freebs_sequential,
    freebs_trace,
)


def _stream(n_users, n_items, n_edges, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n_users, n_edges), rng.integers(0, n_items, n_edges)


class TestExactEquivalence:
    """The vectorized reformulation IS Algorithm 1 — bit-for-bit."""

    @pytest.mark.parametrize("M", [16, 100, 1024, 10_000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trace_equals_sequential(self, M, seed):
        users, items = _stream(30, 500, 4000, seed)
        pd.testing.assert_frame_equal(
            freebs_sequential(users, items, M, seed=seed),
            freebs_trace(users, items, M, seed=seed),
        )

    def test_hash_seed_changes_trace(self):
        users, items = _stream(30, 500, 2000, 0)
        a = freebs_trace(users, items, 1024, seed=1)
        b = freebs_trace(users, items, 1024, seed=2)
        assert not a.equals(b)


class TestAlgorithmProperties:
    def test_duplicate_edges_never_contribute(self):
        # a repeated pair hashes to the same (already set) bit
        users = np.array([1, 2, 1, 1])
        items = np.array([10, 20, 10, 10])
        trace = freebs_trace(users, items, 1 << 20)
        assert len(trace) == 2  # only the two distinct pairs
        assert set(trace["user"]) == {1, 2}

    def test_contributions_increase_over_time(self):
        # q_B only decreases, so per-event contributions are monotone
        users, items = _stream(10, 100_000, 5000, 3)
        trace = freebs_trace(users, items, 2048)
        assert (np.diff(trace["contrib"].to_numpy()) >= 0).all()

    def test_first_contribution_is_one(self):
        users, items = _stream(5, 100, 50, 0)
        trace = freebs_trace(users, items, 4096)
        assert trace["contrib"].iloc[0] == pytest.approx(1.0)

    def test_collision_free_regime_is_exact_count(self):
        # M >> n and no bit collisions: estimate ~= exact distinct count
        users = np.repeat(np.arange(5), 20)
        items = np.tile(np.arange(20), 5)
        trace = freebs_trace(users, items, 1 << 24)
        est = estimates_from_trace(trace)
        assert est.sum() == pytest.approx(100, rel=1e-4)

    def test_trace_t_strictly_increasing(self):
        users, items = _stream(30, 500, 4000, 1)
        trace = freebs_trace(users, items, 512)
        assert (np.diff(trace["t"].to_numpy()) > 0).all()

    def test_events_bounded_by_M(self):
        users, items = _stream(10, 100_000, 20_000, 4)
        trace = freebs_trace(users, items, 64)
        assert len(trace) <= 64


class TestSaturation:
    """A full array: more distinct pairs are no events and change nothing."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("M", range(1, 9))
    def test_full_array_absorbs_nothing(self, M):
        t = np.arange(1000, dtype=np.int64)
        fill = np.zeros(1000, dtype=np.int64)
        _, (B, m0) = freebs_absorb(freebs_empty(M), t, fill, t)
        assert m0 == 0 and B.all()
        more = np.ones(1000, dtype=np.int64)  # pairs (1, d), none seen before
        trace, (B, m0) = freebs_absorb((B, m0), t + 1000, more, t)
        assert trace.empty
        assert m0 == 0 and B.all()


class TestStatistics:
    def test_unbiased(self):
        """Theorem 1: E[n̂_s] = n_s (Monte Carlo over hash seeds)."""
        users = np.repeat(np.arange(20), 50)  # every user has 50 items
        items = np.arange(1000)
        rng = np.random.default_rng(0)
        perm = rng.permutation(1000)
        users, items = users[perm], items[perm]
        M = 256  # heavy load: n/M ~ 4, estimator must still be unbiased
        means = []
        for seed in range(60):
            est = estimates_from_trace(freebs_trace(users, items, M, seed=seed))
            means.append(est.reindex(range(20)).fillna(0).to_numpy())
        avg = np.mean(means, axis=0)
        # each user's true cardinality is 50; CLT bound with 60 trials
        assert np.abs(avg.mean() - 50) < 3.0
        assert np.all(np.abs(avg - 50) < 15)

    def test_variance_within_theory_bound(self):
        from repro.analysis.theory import freebs_variance

        users = np.repeat(np.arange(10), 100)
        items = np.arange(1000)
        M = 512
        ests = []
        for seed in range(50):
            est = estimates_from_trace(freebs_trace(users, items, M, seed=seed))
            ests.append(est.reindex(range(10)).fillna(0).to_numpy())
        emp_var = np.var(ests, axis=0).mean()
        bound = freebs_variance(100, 1000, M)
        # empirical variance must respect the Theorem 1 upper bound
        # (2x slack for 50-trial sampling noise)
        assert emp_var < 2.0 * bound

    def test_total_estimate_tracks_total_cardinality(self):
        users, items = _stream(50, 2000, 30_000, 9)
        n_total = len(pd.DataFrame({"u": users, "i": items}).drop_duplicates())
        trace = freebs_trace(users, items, 4096)
        assert estimates_from_trace(trace).sum() == pytest.approx(
            n_total, rel=0.05
        )
