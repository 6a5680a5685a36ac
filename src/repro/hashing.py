"""Deterministic, vectorized hashing shared by every sketch.

All hash functions in the paper are implemented once here, on top of a
splitmix64 finalizer, as numpy ``uint64`` vector operations. Both the
sequential reference implementations and the Spark implementations (via
``mapInPandas``) call these same functions, so a Spark run and a
sequential run of the same algorithm produce *bit-identical* sketches —
which is what lets the test suite assert exact equality between the
two.

Paper-to-function map (notation of §III–IV):

===================  =========================================
paper                here
===================  =========================================
``h*(e)``            :func:`h_star`    (edge → bit/register index)
``ρ*(e)``            :func:`rho_star`  (edge → Geometric(1/2))
``h(d)``             :func:`h_item`    (item → index in 1..m)
``ρ(d)``             :func:`rho_item`  (item → Geometric(1/2))
``f_i(s)``           :func:`f_user`    (user × i → index in 1..M)
===================  =========================================

Every function takes a ``seed`` so independent sketch instances can be
decorrelated; role constants below additionally decorrelate the five
functions from each other under the same user seed.
"""
from __future__ import annotations

import numpy as np

# Role constants xor-ed into the user seed so that e.g. h*(e) and ρ*(e)
# are independent even though both hash the same (user, item) pair.
_ROLE_H_STAR = np.uint64(0x9E3779B97F4A7C15)
_ROLE_RHO_STAR = np.uint64(0xC2B2AE3D27D4EB4F)
_ROLE_H_ITEM = np.uint64(0x165667B19E3779F9)
_ROLE_RHO_ITEM = np.uint64(0x27D4EB2F165667C5)
_ROLE_F_USER = np.uint64(0x85EBCA77C2B2AE63)

_C1 = np.uint64(0x9E3779B97F4A7C15)
_C2 = np.uint64(0xBF58476D1CE4E5B9)
_C3 = np.uint64(0x94D049BB133111EB)


def _u64(x) -> np.ndarray:
    """Coerce ints / int arrays to uint64 with two's-complement wrap.

    uint64 input comes back as it is and int64 input as a uint64 view,
    both without a copy; callers must not write to the result.
    """
    x = np.asarray(x)
    if x.dtype == np.uint64:
        return x
    return x.astype(np.int64, copy=False).view(np.uint64)


def mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — a strong 64-bit avalanche mix.

    uint64 wraparound is the algorithm (mod-2^64 arithmetic); numpy
    warns about it only for 0-d scalars, so that warning is silenced.
    """
    with np.errstate(over="ignore"):
        z = _u64(z) + _C1
        z = (z ^ (z >> np.uint64(30))) * _C2
        z = (z ^ (z >> np.uint64(27))) * _C3
        return z ^ (z >> np.uint64(31))


def hash_pair(a, b, seed: int = 0) -> np.ndarray:
    """64-bit hash of a pair of integers (vectorized, broadcastable)."""
    s = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    return mix64(mix64(_u64(a) ^ mix64(s)) ^ _u64(b))


def _geometric_from_hash(h: np.ndarray, cap: int) -> np.ndarray:
    """Map a uniform 64-bit hash to Geometric(1/2) ranks in ``1..cap``.

    Uses the top 53 bits: ``rho = (#leading zeros within 53 bits) + 1``,
    so ``P(rho = k) = 2^-k`` exactly for ``k <= 53``. The bit-length of
    the 53-bit value is recovered exactly through ``frexp`` (53 bits fit
    a float64 mantissa losslessly).
    """
    v = (_u64(h) >> np.uint64(11)).astype(np.float64)
    _, exp = np.frexp(v)  # v = m * 2**exp, so bit_length(v) = exp
    rho = 54 - exp  # v == 0 -> exp == 0 -> rho = 54 (then capped)
    return np.minimum(rho, cap).astype(np.int64)


def h_star(users, items, M: int, seed: int = 0) -> np.ndarray:
    """``h*(e)``: uniform index in ``0..M-1`` for edge (user, item)."""
    return (hash_pair(users, items, seed=seed ^ int(_ROLE_H_STAR)) % np.uint64(M)).astype(
        np.int64
    )


def rho_star(users, items, cap: int = 31, seed: int = 0) -> np.ndarray:
    """``ρ*(e)``: Geometric(1/2) rank in ``1..cap`` for edge (user, item)."""
    return _geometric_from_hash(
        hash_pair(users, items, seed=seed ^ int(_ROLE_RHO_STAR)), cap
    )


def h_item(items, m: int, seed: int = 0) -> np.ndarray:
    """``h(d)``: uniform index in ``0..m-1`` depending on the item only."""
    return (
        hash_pair(items, 0, seed=seed ^ int(_ROLE_H_ITEM)) % np.uint64(m)
    ).astype(np.int64)


def rho_item(items, cap: int = 31, seed: int = 0) -> np.ndarray:
    """``ρ(d)``: Geometric(1/2) rank depending on the item only."""
    return _geometric_from_hash(
        hash_pair(items, 0, seed=seed ^ int(_ROLE_RHO_ITEM)), cap
    )


def f_user(user, i, M: int, seed: int = 0) -> np.ndarray:
    """``f_i(s)``: the i-th hash of user ``s`` into ``0..M-1``.

    ``user`` and ``i`` broadcast, so ``f_user(s, np.arange(m), M)``
    yields a user's whole virtual-sketch index vector in one call.
    """
    return (
        hash_pair(user, i, seed=seed ^ int(_ROLE_F_USER)) % np.uint64(M)
    ).astype(np.int64)


def by_slot(slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hashed slots sorted, ties in arrival order, by one in-place sort.

    Packs each key as ``slot << b | i`` (``i`` the arrival index, ``b``
    the bit length of ``n-1``) and sorts the packed keys with a plain
    ``ndarray.sort``: the keys are unique, so an unstable sort is exact
    and no indirect (arg)sort is needed. ``slots`` (int64, non-negative)
    is consumed: its buffer holds the keys and then the sorted slots.
    Returns ``(sorted slots, arrival index)``; ``ValueError`` when a key
    would not fit 63 bits.
    """
    n = len(slots)
    b = max(n - 1, 0).bit_length()
    if n and int(slots.max()).bit_length() + b > 63:
        raise ValueError(f"slot {int(slots.max())} and {n} arrivals overflow a 63-bit key")
    keys = np.left_shift(slots, b, out=slots)
    keys |= np.arange(n)
    keys.sort()
    index = keys & ((1 << b) - 1)
    keys >>= b
    return keys, index
