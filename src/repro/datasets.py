"""Synthetic stand-ins for the paper's six real-world datasets (Table I).

The paper evaluates on CAIDA traces (sanjose, chicago) and four social
graphs (Twitter, Flickr, Orkut, LiveJournal), none of which are
redistributable or laptop-sized (Twitter alone has 1.5e9 user-item
pairs). Every estimator in the paper is sensitive only to

* the multiset of *distinct* (user, item) pairs,
* the per-user cardinality distribution (heavy-tailed),
* random arrival order with duplicates, and
* the load ratios ``n_total/M`` and ``m`` (fixed by the experiment).

so we generate, for each dataset, a scaled synthetic bipartite stream
that preserves the cardinality-distribution shape under **user
subsampling**: the paper population is modelled as a truncated Pareto
(power-law pdf ``P(n) ∝ n^-α`` on ``[1, paper_max]``, with α calibrated
per dataset so the mean equals the paper's ``total/users``), and the
lite dataset draws ``users·scale`` cardinalities at evenly spaced
quantiles of that same distribution (inverse-CCDF). This is exactly
what a uniform user subsample of the paper population looks like: the
mean (hence ``total/users``) is preserved, most users keep cardinality
1–2 where the paper's datasets do, and the maximum shrinks to the
1/(users·scale) upper quantile — so the heavy tail (and the
large-cardinality regime where e.g. CSE's ``m ln m`` range collapse
shows) survives scaling. α is re-bisected at lite scale on the exact
discrete sum so the lite total hits ``total·scale``. The scale factor
per dataset keeps total cardinality in the 2e5–7e5 range so the full
evaluation runs in minutes. The shared-array size M is then chosen
*per dataset* to preserve the paper's per-row load factor
``n_total / M`` (the paper fixes M = 5e8 bits for all rows; what
determines each row's accuracy is its load factor, which we preserve
exactly).

Ground truth is always recomputed from the generated stream, never
assumed from the targets.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import pandas as pd

from repro.hashing import hash_pair

PAPER_M_BITS = 5e8  # the paper's fixed memory size (bits), Table II / §V-E


def _pareto_cardinalities(n_users: int, paper_max: int, alpha: float) -> np.ndarray:
    """Cardinalities at evenly spaced quantiles of Pareto(α) on [1, max].

    Rank i (1 = heaviest) gets the inverse CCDF at ``(i - 0.5)/U``:
    ``x = (q·(1-C) + C)^{1/(1-α)}`` with ``C = (max+1)^{1-α}`` — the
    deterministic order statistics of a uniform user subsample. Values
    are rounded and floored at 1; returned descending.
    """
    q = (np.arange(n_users, dtype=np.float64) + 0.5) / n_users
    c = float(paper_max + 1) ** (1.0 - alpha)
    x = (q * (1.0 - c) + c) ** (1.0 / (1.0 - alpha))
    return np.maximum(1, np.round(x)).astype(np.int64)


def _calibrate_alpha(
    n_users: int, paper_max: int, total_card: int
) -> float:
    """Pareto exponent α hitting the target total at this user count.

    Bisects on the *exact discrete* sum of :func:`_pareto_cardinalities`
    (cheap at lite scale), which is monotone decreasing in α.
    """
    lo, hi = 1.01, 8.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _pareto_cardinalities(n_users, paper_max, mid).sum() > total_card:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class DatasetSpec:
    """Target shape of one synthetic dataset (scaled from Table I)."""

    name: str
    paper_users: int
    paper_max_card: int
    paper_total_card: int
    scale: float  # our scale factor relative to the paper's dataset
    dup_factor: float = 1.5  # stream length / #distinct pairs

    @property
    def users(self) -> int:
        return max(1, int(self.paper_users * self.scale))

    @cached_property
    def alpha(self) -> float:
        """Pareto exponent reproducing the dataset's mean cardinality."""
        return _calibrate_alpha(
            self.users, self.paper_max_card, self.total_card
        )

    @cached_property
    def cardinalities(self) -> np.ndarray:
        """Per-user target cardinalities (descending), lite scale."""
        return _pareto_cardinalities(
            self.users, self.paper_max_card, self.alpha
        )

    @property
    def max_card(self) -> int:
        """Expected maximum cardinality at lite scale (model's top rank)."""
        return int(self.cardinalities[0])

    @property
    def total_card(self) -> int:
        return max(1, int(self.paper_total_card * self.scale))

    @property
    def paper_load_factor(self) -> float:
        """The paper's bit-array load ``n_total / M`` for this dataset."""
        return self.paper_total_card / PAPER_M_BITS

    @property
    def M_bits(self) -> int:
        """Shared-array size (bits) preserving the paper's load factor."""
        return int(round(self.total_card / self.paper_load_factor))


# Table I of the paper, with per-dataset scale factors chosen so that
# total cardinality lands in ~2e5–7e5 (minutes-scale evaluation).
CATALOG: dict[str, DatasetSpec] = {
    s.name: s
    for s in [
        DatasetSpec("sanjose", 8_387_347, 313_772, 23_073_907, 1 / 100),
        DatasetSpec("chicago", 1_966_677, 106_026, 9_910_287, 1 / 40),
        DatasetSpec("twitter", 40_103_281, 2_997_496, 1_468_365_182, 1 / 2000),
        DatasetSpec("flickr", 1_441_431, 26_185, 22_613_980, 1 / 50),
        DatasetSpec("orkut", 2_997_376, 31_949, 223_534_301, 1 / 400),
        DatasetSpec("livejournal", 4_590_650, 9_186, 76_937_805, 1 / 100),
    ]
}


def _distinct_pairs(cards: np.ndarray, item_universe: int, seed: int) -> np.ndarray:
    """Distinct (user, item) pairs with ~``cards[s]`` items per user.

    Items are drawn pseudo-randomly (via :func:`hash_pair`) from a
    shared universe so the same item can appear under many users, as in
    the real graphs. Within-user collisions are dropped rather than
    re-drawn (a few per mille at the chosen universe size) — ground
    truth is recomputed from the emitted pairs, so this costs nothing.
    Each pair is packed as one int64 key ``user * item_universe + item``
    and returned sorted (by user, then item); ``ValueError`` when
    ``len(cards) * item_universe`` does not fit 63 bits.
    """
    if (len(cards) * item_universe).bit_length() > 63:
        raise ValueError(f"{len(cards)} users x {item_universe} items overflow a 63-bit key")
    keys = np.repeat(np.arange(len(cards), dtype=np.int64), cards)  # users, packed below
    draw = np.arange(len(keys), dtype=np.int64)  # per-user draw index 0..n_s-1
    draw -= np.repeat(np.concatenate(([0], np.cumsum(cards)[:-1])), cards)
    items = hash_pair(keys, draw, seed=seed) % np.uint64(item_universe)
    keys *= item_universe
    keys += items.view(np.int64)
    keys.sort()  # then drop within-user duplicate items: keep each run's head
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def generate_stream(
    spec: DatasetSpec, seed: int = 0
) -> pd.DataFrame:
    """Generate the dataset's edge stream as ``(t, user, item)``.

    ``t`` is the 0-based arrival index. The stream contains each
    distinct pair at least once plus ``(dup_factor - 1)`` extra
    duplicate occurrences drawn uniformly, all in one global random
    shuffle — matching the unsorted-with-repeats arrival pattern of the
    paper's traces. The frame is one ``(3, n)`` int64 block filled in
    place: its ``item`` row stages the packed keys, so the only other
    n-sized buffer alive with it is the shuffle permutation.
    """
    # zlib.crc32 is stable across processes (str hash is randomized)
    rng = np.random.default_rng(seed ^ zlib.crc32(spec.name.encode()))
    # universe >> max_card keeps within-user collision loss ~1-2% while
    # still letting popular items recur across users
    universe = max(10, 20 * spec.max_card)
    keys = _distinct_pairs(spec.cardinalities, universe, seed=seed)
    n_pairs = len(keys)
    n_dup = int(round((spec.dup_factor - 1.0) * n_pairs))
    dup_idx = rng.integers(0, n_pairs, n_dup)
    block = np.empty((3, n_pairs + n_dup), dtype=np.int64)
    t, user, item = block
    # every index is in range by construction; mode="clip" spares the
    # n-sized output buffer that np.take's default mode="raise" makes
    item[:n_pairs] = keys
    np.take(keys, dup_idx, out=item[n_pairs:], mode="clip")
    del keys, dup_idx
    np.take(item, rng.permutation(len(t)), out=user, mode="clip")
    np.divmod(user, universe, out=(user, item))
    t[:] = np.arange(len(t))
    return pd.DataFrame(block.T, columns=["t", "user", "item"], copy=False)


def true_cardinalities(stream: pd.DataFrame) -> pd.Series:
    """Exact per-user distinct-item counts (index: user)."""
    return stream.groupby("user")["item"].nunique()


def stream_summary(stream: pd.DataFrame) -> dict:
    """Table-I style summary of a generated stream."""
    truth = true_cardinalities(stream)
    return {
        "users": int(truth.size),
        "max_cardinality": int(truth.max()),
        "total_cardinality": int(truth.sum()),
        "stream_length": int(len(stream)),
    }
