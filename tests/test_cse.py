"""Tests for CSE bit sharing (repro.baselines.cse)."""
import math

import numpy as np
import pandas as pd
import pytest

from repro.baselines import CseSketch, cse_spark
from repro.baselines.virtual import _BLOCK_CELLS


def _stream(n_users, n_per_user, seed):
    rng = np.random.default_rng(seed)
    users = np.repeat(np.arange(n_users), n_per_user)
    items = rng.integers(0, 1 << 40, len(users))
    perm = rng.permutation(len(users))
    return users[perm], items[perm]


class TestCseSketch:
    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            CseSketch(M=100, m=101)

    def test_single_user_sparse_is_accurate(self):
        # alone in a large array there is almost no noise to correct
        users = np.zeros(200, dtype=np.int64)
        items = np.arange(200)
        cse = CseSketch(M=1 << 20, m=2048)
        cse.run(users, items)
        assert cse.final_estimates()[0] == pytest.approx(200, rel=0.1)

    def test_duplicates_do_not_inflate(self):
        users = np.zeros(500, dtype=np.int64)
        items = np.tile(np.arange(50), 10)
        cse = CseSketch(M=1 << 18, m=1024)
        cse.run(users, items)
        assert cse.final_estimates()[0] == pytest.approx(50, rel=0.25)

    def test_noise_correction_helps(self):
        """The -m·ln(U/M) term: with heavy cross-traffic, correction
        keeps a small user's estimate near truth instead of inflated."""
        rng = np.random.default_rng(0)
        # user 0 has 20 items, users 1..100 add heavy noise
        users = np.concatenate(
            [np.zeros(20, np.int64), rng.integers(1, 100, 40_000)]
        )
        items = np.concatenate([np.arange(20), rng.integers(0, 1 << 40, 40_000)])
        M, m = 1 << 17, 512
        cse = CseSketch(M=M, m=m)
        cse.run(users, items)
        corrected = cse.end_state_estimates(np.array([0]))[0]
        # uncorrected virtual-LPC estimate (no noise term)
        from repro.hashing import f_user

        idx = f_user(np.int64(0), np.arange(m), M)
        zeros = int(m - cse.A[idx].sum())
        uncorrected = -m * math.log(max(zeros, 1) / m)
        assert abs(corrected - 20) < abs(uncorrected - 20)
        assert corrected == pytest.approx(20, abs=40)

    def test_range_collapse_at_m_ln_m(self):
        """Paper §IV-C / Fig. 4: CSE cannot exceed ~m ln m."""
        m = 128
        users = np.zeros(100_000, dtype=np.int64)
        items = np.arange(100_000)
        cse = CseSketch(M=1 << 20, m=m)
        cse.run(users, items)
        assert cse.final_estimates()[0] <= m * math.log(m) * 1.05

    def test_estimates_clamped_nonnegative(self):
        users, items = _stream(50, 5, 1)
        cse = CseSketch(M=4096, m=512)
        cse.run(users, items)
        assert (cse.final_estimates() >= 0).all()

    def test_tracked_counter_frozen_after_last_arrival(self):
        # the tracked counter reflects the state at the user's last edge
        users = np.array([7, 1, 1, 1, 1], dtype=np.int64)
        items = np.array([0, 1, 2, 3, 4], dtype=np.int64)
        cse = CseSketch(M=1 << 16, m=256)
        cse.run(users, items)
        tracked = cse.final_estimates()[7]
        cse2 = CseSketch(M=1 << 16, m=256)
        cse2.run(users[:1], items[:1])
        assert tracked == cse2.final_estimates()[7]

    def test_checkpoint_snapshots(self):
        users, items = _stream(10, 40, 2)
        cse = CseSketch(M=1 << 16, m=256)
        snaps = cse.run(users, items, checkpoints=[0, 200, len(users)])
        assert snaps[0] == {}
        assert sum(snaps[200].values()) <= sum(snaps[len(users)].values()) + 1e-9

    def test_end_state_estimates_blocked_equal_estimate(self):
        # two full blocks of users and a partial third
        m = 2048
        users, items = _stream(2 * (_BLOCK_CELLS // m) + 7, 3, 5)
        cse = CseSketch(M=1 << 16, m=m)
        cse.run(users, items)
        ids = np.unique(users)
        got = cse.end_state_estimates(ids)
        assert got.index.equals(pd.Index(ids, name="user"))
        assert np.array_equal(got.to_numpy(), [cse.estimate(s) for s in ids])

    def test_absorb_shuffled_equals_run(self):
        # the order independence cse_spark's merged array rests on
        users, items = _stream(40, 30, 6)
        seq = CseSketch(M=1 << 14, m=256)
        seq.run(users, items)
        perm = np.random.default_rng(7).permutation(len(users))
        one, half, other = (CseSketch(M=1 << 14, m=256) for _ in range(3))
        one.absorb(users[perm], items[perm])
        half.absorb(users[perm[::2]], items[perm[::2]])
        other.absorb(users[perm[1::2]], items[perm[1::2]])
        half.merge(other.A)
        for sk in (one, half):
            assert np.array_equal(sk.A, seq.A)
            assert sk.U == seq.U


class TestCseSpark:
    def test_end_state_matches_sequential(self, spark):
        users, items = _stream(30, 25, 3)
        pdf = pd.DataFrame(
            {"t": np.arange(len(users)), "user": users, "item": items}
        )
        M, m = 1 << 16, 256
        got = (
            cse_spark(spark.createDataFrame(pdf).repartition(7), M, m)
            .toPandas()
            .set_index("user")["estimate"]
            .sort_index()
        )
        cse = CseSketch(M=M, m=m)
        cse.run(users, items)
        want = cse.end_state_estimates(np.unique(users)).sort_index()
        assert np.array_equal(got.to_numpy(), want.to_numpy())
        assert got.index.equals(want.index)
