"""Tests for vHLL register sharing (repro.baselines.vhll)."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines import VhllSketch, vhll_spark
from repro.baselines.virtual import _BLOCK_CELLS


def _stream(n_users, n_per_user, seed):
    rng = np.random.default_rng(seed)
    users = np.repeat(np.arange(n_users), n_per_user)
    items = rng.integers(0, 1 << 40, len(users))
    perm = rng.permutation(len(users))
    return users[perm], items[perm]


class TestVhllSketch:
    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            VhllSketch(M=100, m=100)

    def test_single_user_sparse_is_accurate(self):
        users = np.zeros(300, dtype=np.int64)
        items = np.arange(300)
        vh = VhllSketch(M=1 << 16, m=1024)
        vh.run(users, items)
        assert vh.final_estimates()[0] == pytest.approx(300, rel=0.15)

    def test_duplicates_do_not_inflate(self):
        users = np.zeros(500, dtype=np.int64)
        items = np.tile(np.arange(50), 10)
        vh = VhllSketch(M=1 << 15, m=512)
        vh.run(users, items)
        assert vh.final_estimates()[0] == pytest.approx(50, rel=0.4)

    def test_large_cardinality_no_collapse(self):
        """Unlike CSE, vHLL keeps estimating far beyond m ln m."""
        users = np.zeros(100_000, dtype=np.int64)
        items = np.arange(100_000)
        m = 128
        vh = VhllSketch(M=1 << 17, m=m)
        vh.run(users, items)
        est = vh.final_estimates()[0]
        assert est > 5 * m * np.log(m)
        assert est == pytest.approx(100_000, rel=0.5)

    def test_noise_correction_keeps_small_users_sane(self):
        rng = np.random.default_rng(0)
        users = np.concatenate(
            [np.zeros(20, np.int64), rng.integers(1, 100, 40_000)]
        )
        items = np.concatenate([np.arange(20), rng.integers(0, 1 << 40, 40_000)])
        vh = VhllSketch(M=1 << 15, m=512)
        vh.run(users, items)
        est = vh.end_state_estimates(np.array([0]))[0]
        # heavy noise (~625 hits on the virtual sketch) mostly cancelled
        assert est == pytest.approx(20, abs=150)

    def test_estimates_clamped_nonnegative(self):
        users, items = _stream(50, 5, 1)
        vh = VhllSketch(M=4096, m=512)
        vh.run(users, items)
        assert (vh.final_estimates() >= 0).all()

    def test_register_width_cap(self):
        users = np.zeros(50_000, dtype=np.int64)
        items = np.arange(50_000)
        vh = VhllSketch(M=1 << 12, m=256, w=5)
        vh.run(users, items)
        assert vh.R.max() <= 31

    def test_global_bookkeeping_consistent(self):
        # the O(1)-maintained hsum/zeros equal a full recount
        users, items = _stream(20, 100, 4)
        vh = VhllSketch(M=1 << 12, m=128)
        vh.run(users, items)
        assert vh.global_hsum == pytest.approx(float(vh._pow2[vh.R].sum()))
        assert vh.global_zeros == int((vh.R == 0).sum())

    def test_checkpoint_snapshots(self):
        users, items = _stream(10, 40, 2)
        vh = VhllSketch(M=1 << 14, m=128)
        snaps = vh.run(users, items, checkpoints=[0, 200, len(users)])
        assert snaps[0] == {}
        assert len(snaps[len(users)]) == 10

    def test_end_state_estimates_blocked_equal_estimate(self):
        # two full blocks of users and a partial third
        m = 2048
        users, items = _stream(2 * (_BLOCK_CELLS // m) + 7, 3, 5)
        vh = VhllSketch(M=1 << 14, m=m)
        vh.run(users, items)
        ids = np.unique(users)
        got = vh.end_state_estimates(ids)
        assert got.index.equals(pd.Index(ids, name="user"))
        assert np.array_equal(got.to_numpy(), [vh.estimate(s) for s in ids])

    def test_absorb_shuffled_equals_run(self):
        # the order independence vhll_spark's merged array rests on
        users, items = _stream(40, 30, 6)
        seq = VhllSketch(M=1 << 12, m=128)
        seq.run(users, items)
        perm = np.random.default_rng(7).permutation(len(users))
        one, half, other = (VhllSketch(M=1 << 12, m=128) for _ in range(3))
        one.absorb(users[perm], items[perm])
        half.absorb(users[perm[::2]], items[perm[::2]])
        other.absorb(users[perm[1::2]], items[perm[1::2]])
        half.merge(other.R)
        for sk in (one, half):
            assert np.array_equal(sk.R, seq.R)
            assert sk.global_hsum == seq.global_hsum
            assert sk.global_zeros == seq.global_zeros


class TestVhllSpark:
    def test_end_state_matches_sequential(self, spark):
        users, items = _stream(30, 25, 3)
        pdf = pd.DataFrame(
            {"t": np.arange(len(users)), "user": users, "item": items}
        )
        M, m = 1 << 14, 256
        got = (
            vhll_spark(spark.createDataFrame(pdf).repartition(7), M, m)
            .toPandas()
            .set_index("user")["estimate"]
            .sort_index()
        )
        vh = VhllSketch(M=M, m=m)
        vh.run(users, items)
        want = vh.end_state_estimates(np.unique(users)).sort_index()
        assert np.array_equal(got.to_numpy(), want.to_numpy())
        assert got.index.equals(want.index)
