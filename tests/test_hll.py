"""Tests for per-user HLL/HLL++ (repro.baselines.hll)."""
import numpy as np
import pytest

from repro.baselines import HllPerUser, alpha
from repro.baselines.estimators import hll_estimate, pow2_neg_table


class TestAlpha:
    def test_paper_constants(self):
        assert alpha(16) == pytest.approx(0.673)
        assert alpha(32) == pytest.approx(0.697)
        assert alpha(64) == pytest.approx(0.709)
        assert alpha(128) == pytest.approx(0.7213 / (1 + 1.079 / 128))
        assert alpha(1024) == pytest.approx(0.7213 / (1 + 1.079 / 1024))

    def test_monotone_toward_limit(self):
        assert alpha(16) < alpha(4096) < 0.7213


class TestHllEstimate:
    def test_empty_sketch_estimates_zero(self):
        # all registers zero -> linear counting of a full-zero bitmap
        assert hll_estimate(64, 64.0, 64) == pytest.approx(0.0)

    def test_small_range_uses_linear_counting(self):
        # raw < 2.5m with zeros -> LC value returned
        m = 64
        est = hll_estimate(m, m - 1.0, m - 2)
        assert est == pytest.approx(-m * np.log((m - 2) / m))

    def test_large_range_uses_harmonic_mean(self):
        m = 64
        hsum = m * 2.0**-10  # deep registers
        assert hll_estimate(m, hsum, 0) == pytest.approx(
            alpha(m) * m * m / hsum
        )

    def test_pow2_table(self):
        t = pow2_neg_table(31)
        assert t[0] == 1.0 and t[5] == 2.0**-5 and len(t) == 32


class TestHllPerUser:
    def _run(self, m, n, seed=0, w=6):
        users = np.zeros(n, dtype=np.int64)
        items = np.random.default_rng(seed).integers(0, 1 << 50, n)
        h = HllPerUser(m=m, w=w, seed=seed)
        h.run(users, items)
        return h

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_accuracy_small_to_medium(self, n):
        ests = [self._run(64, n, seed=s).final_estimates()[0] for s in range(30)]
        rel = (np.mean(ests) - n) / n
        assert abs(rel) < 0.10

    def test_rse_matches_theory_at_large_n(self):
        """HLL asymptotic RSE ~ 1.04/sqrt(m) (paper §III-A-2)."""
        from repro.analysis.theory import hll_rse

        m, n = 64, 20_000
        ests = np.array(
            [self._run(m, n, seed=s).final_estimates()[0] for s in range(40)]
        )
        emp_rse = float(np.sqrt(np.mean((ests - n) ** 2)) / n)
        assert emp_rse < 2.5 * hll_rse(m)

    def test_register_cap_by_width(self):
        h = self._run(16, 5000, w=3)
        assert h.registers[0].max() <= (1 << 3) - 1

    def test_duplicates_do_not_inflate(self):
        users = np.zeros(300, dtype=np.int64)
        items = np.tile(np.arange(30), 10)
        h = HllPerUser(m=64)
        h.run(users, items)
        assert h.final_estimates()[0] == pytest.approx(30, rel=0.35)

    def test_tracked_estimate_reads_final_registers(self):
        # a user's last arrival leaves its counter at its final registers
        rng = np.random.default_rng(3)
        users = rng.integers(0, 4, 800)
        items = rng.integers(0, 1 << 50, 800)
        h = HllPerUser(m=32)
        h.run(users, items)
        pow2 = pow2_neg_table(h.cap)
        assert set(h.estimates) == set(h.registers)
        for s, regs in h.registers.items():
            hsum, zeros = float(pow2[regs].sum()), int((regs == 0).sum())
            assert h.estimates[s] == hll_estimate(32, hsum, zeros)

    def test_users_isolated(self):
        users = np.concatenate(
            [np.zeros(5000, np.int64), np.ones(10, np.int64)]
        )
        items = np.concatenate([np.arange(5000), np.arange(10)])
        h = HllPerUser(m=64)
        h.run(users, items)
        assert h.final_estimates()[1] == pytest.approx(10, rel=0.5)

    def test_checkpoints_monotone(self):
        users = np.zeros(1000, dtype=np.int64)
        items = np.arange(1000)
        h = HllPerUser(m=256)
        snaps = h.run(users, items, checkpoints=[100, 500, 1000])
        assert snaps[100][0] < snaps[500][0] < snaps[1000][0]
