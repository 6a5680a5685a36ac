"""Tests for per-user LPC (repro.baselines.lpc)."""
import math

import numpy as np
import pytest

from repro.baselines import LpcPerUser
from repro.baselines.estimators import linear_counting


def _stream(n_users, n_per_user, seed):
    rng = np.random.default_rng(seed)
    users = np.repeat(np.arange(n_users), n_per_user)
    items = rng.integers(0, 1 << 40, n_users * n_per_user)
    perm = rng.permutation(len(users))
    return users[perm], items[perm]


class TestLinearCounting:
    def test_formula(self):
        assert linear_counting(100, 100) == 0.0
        assert linear_counting(100, 50) == pytest.approx(100 * math.log(2))

    def test_saturation(self):
        # U = 0 saturates at m ln m instead of diverging
        assert linear_counting(64, 0) == pytest.approx(64 * math.log(64))

    def test_monotone_in_fill(self):
        vals = [linear_counting(128, z) for z in range(128, 0, -1)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestLpcPerUser:
    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            LpcPerUser(0)

    def test_exact_in_sparse_regime(self):
        # m >> n: LPC is nearly an exact distinct counter
        users, items = _stream(10, 30, 0)
        lpc = LpcPerUser(m=4096)
        lpc.run(users, items)
        est = lpc.final_estimates()
        assert np.allclose(est.to_numpy(), 30, rtol=0.15)

    def test_duplicates_do_not_inflate(self):
        users = np.zeros(100, dtype=np.int64)
        items = np.tile(np.arange(10), 10)  # 10 distinct, repeated 10x
        lpc = LpcPerUser(m=1024)
        lpc.run(users, items)
        assert lpc.final_estimates()[0] == pytest.approx(10, rel=0.1)

    def test_estimate_capped_at_m_ln_m(self):
        # the paper's range-collapse property
        m = 64
        users = np.zeros(50_000, dtype=np.int64)
        items = np.arange(50_000)
        lpc = LpcPerUser(m=m)
        lpc.run(users, items)
        assert lpc.final_estimates()[0] == pytest.approx(m * math.log(m))

    def test_users_isolated(self):
        # one user's flood must not disturb another's estimate
        users = np.concatenate([np.zeros(1000, np.int64), np.ones(5, np.int64)])
        items = np.concatenate([np.arange(1000), np.arange(5)])
        lpc = LpcPerUser(m=256)
        lpc.run(users, items)
        assert lpc.final_estimates()[1] == pytest.approx(5, rel=0.3)

    def test_tracked_estimate_reads_final_bitmap(self):
        # a user's last arrival leaves its counter at its final bitmap
        users, items = _stream(5, 50, 1)
        lpc = LpcPerUser(m=128)
        lpc.run(users, items)
        assert set(lpc.estimates) == set(lpc.bitmaps)
        for s, bm in lpc.bitmaps.items():
            assert lpc.estimates[s] == linear_counting(128, int(128 - bm.sum()))

    def test_checkpoints_snapshot_history(self):
        users, items = _stream(3, 100, 2)
        lpc = LpcPerUser(m=512)
        snaps = lpc.run(users, items, checkpoints=[0, 150, len(users)])
        assert snaps[0] == {}  # nothing processed before t=0
        mid = sum(snaps[150].values())
        end = sum(snaps[len(users)].values())
        assert 0 < mid < end
        assert snaps[len(users)] == lpc.estimates

    def test_statistical_error_matches_theory(self):
        # RSE of LPC ~ sqrt(m(e^x - x - 1))/n with x = n/m
        from repro.analysis.theory import lpc_variance

        m, n = 256, 200
        errs = []
        for seed in range(40):
            users = np.zeros(n, dtype=np.int64)
            items = np.random.default_rng(seed).integers(0, 1 << 50, n)
            lpc = LpcPerUser(m=m, seed=seed)
            lpc.run(users, items)
            errs.append(lpc.final_estimates()[0] - n)
        emp_var = float(np.var(errs))
        assert emp_var < 3.0 * lpc_variance(n, m) + 5
