"""Unit tests for the shared hash substrate (repro.hashing)."""
import numpy as np
import pytest

from repro import hashing as H

N = 100_000


@pytest.fixture(scope="module")
def pairs():
    rng = np.random.default_rng(0)
    return rng.integers(0, 1 << 40, N), rng.integers(0, 1 << 40, N)


class TestMix64:
    def test_deterministic(self):
        x = np.arange(1000)
        assert np.array_equal(H.mix64(x), H.mix64(x))

    def test_bijective_on_sample(self):
        # splitmix64 is a bijection; no collisions on a large sample
        x = np.arange(N)
        assert len(np.unique(H.mix64(x))) == N

    def test_avalanche(self):
        # flipping one input bit flips ~32 of 64 output bits on average
        x = np.arange(10_000, dtype=np.uint64)
        a, b = H.mix64(x), H.mix64(x ^ np.uint64(1))
        flipped = np.unpackbits((a ^ b).view(np.uint8)).sum() / len(x)
        assert 28 < flipped < 36

    def test_scalar_matches_array(self):
        assert H.mix64(12345) == H.mix64(np.array([12345]))[0]

    def test_negative_int_wraps(self):
        # -1 must be treated as 0xFFFF...F (two's complement), not error
        assert H.mix64(-1) == H.mix64(np.uint64(0xFFFFFFFFFFFFFFFF))


class TestHashPair:
    def test_deterministic(self, pairs):
        a, b = pairs
        assert np.array_equal(H.hash_pair(a, b, seed=7), H.hash_pair(a, b, seed=7))

    def test_seed_changes_output(self, pairs):
        a, b = pairs
        assert (H.hash_pair(a, b, seed=1) != H.hash_pair(a, b, seed=2)).mean() > 0.99

    def test_asymmetric(self):
        assert H.hash_pair(3, 5) != H.hash_pair(5, 3)

    def test_broadcasts(self):
        out = H.hash_pair(np.int64(7), np.arange(64), seed=0)
        assert out.shape == (64,)
        assert len(np.unique(out)) == 64

    def test_huge_seed_accepted(self):
        # role constants xor seeds above 2^63; must not overflow
        out = H.hash_pair(1, 2, seed=(1 << 64) - 1)
        assert int(out) >= 0


class TestHStar:
    @pytest.mark.parametrize("M", [7, 64, 1000, 1 << 20])
    def test_range(self, pairs, M):
        a, b = pairs
        out = H.h_star(a, b, M)
        assert out.min() >= 0 and out.max() < M

    def test_uniformity(self, pairs):
        a, b = pairs
        counts = np.bincount(H.h_star(a, b, 64), minlength=64)
        expected = N / 64
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 63 dof: P(chi2 > 120) < 1e-5
        assert chi2 < 120

    def test_depends_on_both_user_and_item(self):
        assert H.h_star(1, 2, 1 << 30) != H.h_star(1, 3, 1 << 30)
        assert H.h_star(1, 2, 1 << 30) != H.h_star(2, 2, 1 << 30)

    def test_independent_of_h_item(self, pairs):
        # role decorrelation: h*(e) and h(d) agree only at chance level
        _, b = pairs
        a = np.zeros_like(b)
        same = (H.h_star(a, b, 64) == H.h_item(b, 64)).mean()
        assert same < 0.05


class TestGeometricRanks:
    @pytest.mark.parametrize("fn", [H.rho_star, H.rho_item])
    def test_distribution(self, pairs, fn):
        a, b = pairs
        r = fn(a, b, cap=31) if fn is H.rho_star else fn(b, cap=31)
        # P(rho = k) = 2^-k: mean 2, P(1) = 1/2
        assert abs(r.mean() - 2.0) < 0.02
        assert abs((r == 1).mean() - 0.5) < 0.01
        assert abs((r == 3).mean() - 0.125) < 0.01

    @pytest.mark.parametrize("cap", [1, 4, 31, 63])
    def test_cap_respected(self, pairs, cap):
        a, b = pairs
        r = H.rho_star(a, b, cap=cap)
        assert r.min() >= 1 and r.max() <= cap

    def test_rho_item_ignores_user(self):
        # rho(d) must depend on the item only (paper: shared across users)
        r1 = H.rho_item(np.arange(100), cap=31, seed=3)
        r2 = H.rho_item(np.arange(100), cap=31, seed=3)
        assert np.array_equal(r1, r2)


class TestFUser:
    def test_virtual_sketch_indices(self):
        # f_i(s) for i = 1..m: m nearly-distinct positions in [0, M)
        idx = H.f_user(np.int64(42), np.arange(1024), 1 << 20)
        assert idx.min() >= 0 and idx.max() < (1 << 20)
        assert len(np.unique(idx)) > 1000  # few birthday collisions

    def test_users_get_different_sketches(self):
        i = np.arange(256)
        a = H.f_user(np.int64(1), i, 1 << 20)
        b = H.f_user(np.int64(2), i, 1 << 20)
        assert (a == b).mean() < 0.05

    def test_elementwise_broadcast(self):
        # vectorized per-edge position: f_{i_k}(s_k)
        users = np.array([5, 5, 6])
        iidx = np.array([0, 1, 0])
        out = H.f_user(users, iidx, 1 << 20)
        assert out[0] == H.f_user(np.int64(5), np.array([0]), 1 << 20)[0]
        assert out[1] == H.f_user(np.int64(5), np.array([1]), 1 << 20)[0]
        assert out[2] == H.f_user(np.int64(6), np.array([0]), 1 << 20)[0]


class TestBySlot:
    def test_sorts_slots_with_ties_in_arrival_order(self):
        slots = np.random.default_rng(0).integers(0, 50, 1000)
        order = np.argsort(slots, kind="stable")
        got_slots, arrival = H.by_slot(slots.copy())
        assert np.array_equal(arrival, order)
        assert np.array_equal(got_slots, slots[order])

    def test_packed_key_overflow_raises(self):
        # 3 arrivals take 2 index bits: a 61-bit slot fits 63 bits, a
        # 62-bit slot does not
        fits = np.full(3, (1 << 61) - 1, dtype=np.int64)
        assert np.array_equal(H.by_slot(fits)[1], [0, 1, 2])
        with pytest.raises(ValueError, match="63-bit"):
            H.by_slot(np.full(3, (1 << 62) - 5, dtype=np.int64))


def _two_casts(x):
    """The coercion ``_u64`` replaced: copies int64 input twice."""
    return np.asarray(x).astype(np.int64, copy=False).astype(np.uint64)


class TestU64:
    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_64_bit_input_is_not_copied(self, dtype):
        x = np.arange(10, dtype=dtype)
        assert np.shares_memory(H._u64(x), x)

    @pytest.mark.parametrize(
        "x",
        [
            np.array([-1, -(1 << 63), 0, (1 << 63) - 1]),
            np.array([(1 << 64) - 1, 0], dtype=np.uint64),
            np.array([-3, 7], dtype=np.int32),
            np.array(-5),
            np.array((1 << 64) - 1, dtype=np.uint64),
            np.uint64(3),
            -1,
            0,
            12345,
            (1 << 64) - 1,
        ],
    )
    def test_values_match_two_casts(self, x):
        got, want = H._u64(x), _two_casts(x)
        assert got.dtype == np.uint64 and got.shape == want.shape
        assert np.array_equal(got, want)
