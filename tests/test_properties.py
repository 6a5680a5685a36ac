"""Property-based tests (hypothesis) for the exact core invariants."""
from functools import partial

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.freebs import (
    freebs_absorb,
    freebs_empty,
    freebs_sequential,
    freebs_trace,
)
from repro.core.freers import (
    freers_absorb,
    freers_empty,
    freers_sequential,
    freers_trace,
)
from repro.hashing import h_star, rho_star
from repro.spark_passes import absorb_in_t_order, local_events

streams = st.integers(1, 400).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 20), min_size=n, max_size=n),
        st.lists(st.integers(0, 10_000), min_size=n, max_size=n),
        st.integers(4, 2048),  # M
        st.integers(0, 1 << 30),  # seed
    )
)


@settings(max_examples=40, deadline=None)
@given(streams)
def test_freebs_vectorized_equals_algorithm1(data):
    users, items, M, seed = data
    u, i = np.array(users), np.array(items)
    pd.testing.assert_frame_equal(
        freebs_sequential(u, i, M, seed=seed), freebs_trace(u, i, M, seed=seed)
    )


@settings(max_examples=40, deadline=None)
@given(streams)
def test_freers_vectorized_equals_algorithm2(data):
    users, items, M, seed = data
    u, i = np.array(users), np.array(items)
    pd.testing.assert_frame_equal(
        freers_sequential(u, i, M, seed=seed), freers_trace(u, i, M, seed=seed)
    )


@settings(max_examples=30, deadline=None)
@given(streams)
def test_freebs_estimate_invariants(data):
    users, items, M, seed = data
    u, i = np.array(users), np.array(items)
    trace = freebs_trace(u, i, M, seed=seed)
    # no more events than bits or distinct pairs
    n_pairs = len(pd.DataFrame({"u": u, "i": i}).drop_duplicates())
    assert len(trace) <= min(M, n_pairs)
    # contributions start at 1 and never decrease
    if len(trace):
        c = trace["contrib"].to_numpy()
        assert c[0] >= 1.0
        assert (np.diff(c) >= -1e-12).all()


@settings(max_examples=30, deadline=None)
@given(streams)
def test_stream_order_does_not_change_final_arrays(data):
    """Final sketch state is order-independent (only estimates depend
    on order) — the property that makes the Spark reduction correct."""
    users, items, M, seed = data
    u, i = np.array(users), np.array(items)
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(u))
    bits_a = np.unique(h_star(u, i, M, seed=seed))
    bits_b = np.unique(h_star(u[perm], i[perm], M, seed=seed))
    assert np.array_equal(bits_a, bits_b)
    regs = h_star(u, i, M, seed=seed)
    rhos = rho_star(u, i, cap=31, seed=seed)
    final_a = pd.DataFrame({"r": regs, "v": rhos}).groupby("r")["v"].max()
    final_b = (
        pd.DataFrame({"r": regs[perm], "v": rhos[perm]}).groupby("r")["v"].max()
    )
    pd.testing.assert_series_equal(final_a, final_b)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=100),
    st.integers(0, 1 << 20),
)
def test_duplicate_suffix_never_changes_estimates(users, seed):
    """Replaying an exact prefix adds nothing (distinct-counting)."""
    u = np.array(users)
    i = np.arange(len(u)) % 7  # small item space → duplicates likely
    once = freebs_trace(u, i, 512, seed=seed)
    twice = freebs_trace(
        np.concatenate([u, u]), np.concatenate([i, i]), 512, seed=seed
    )
    pd.testing.assert_frame_equal(once, twice)


# streams plus the adversarial cases: tiny arrays (M <= 8, down to M = 1,
# where every edge lands in one bit or register) and streams made only of
# duplicates (one pair repeated)
adversarial_streams = st.one_of(
    streams,
    streams.map(lambda d: (d[0], d[1], 1 + d[2] % 8, d[3])),
    streams.map(lambda d: (d[0][:1] * len(d[0]), d[1][:1] * len(d[1]), d[2], d[3])),
)
FRESH = {
    "freebs": (freebs_absorb, freebs_trace, freebs_empty),
    "freers": (freers_absorb, freers_trace, freers_empty),
}


SEQUENTIAL = {"freebs": freebs_sequential, "freers": freers_sequential}


@pytest.mark.parametrize("estimator", FRESH)
@pytest.mark.parametrize("M", [1, 7, 1 << 20])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 8, 9, 16, 17])
def test_trace_equals_sequential_at_index_width_boundaries(estimator, M, n):
    """The packed sort key spends bit_length(n-1) bits on the arrival
    index: streams on both sides of each width, with every edge in one
    slot (M = 1), a few slots (M = 7) and almost no collisions."""
    _, trace, _ = FRESH[estimator]
    rng = np.random.default_rng(n)
    u, i = rng.integers(0, 3, n), rng.integers(0, 4, n)
    pd.testing.assert_frame_equal(
        trace(u, i, M, seed=n), SEQUENTIAL[estimator](u, i, M, seed=n), check_exact=True
    )


@pytest.mark.parametrize("estimator", FRESH)
@settings(max_examples=60, deadline=None)
@given(adversarial_streams, st.lists(st.integers(0, 400), max_size=6))
def test_absorbing_in_chunks_equals_one_shot(estimator, data, cuts):
    """Any split of the stream into t-ordered chunks gives the one-shot
    trace bit for bit: the state carries everything between chunks."""
    absorb, trace, fresh = FRESH[estimator]
    users, items, M, seed = data
    u, i = np.array(users), np.array(items)
    t = np.arange(len(u))
    state = fresh(M)
    bounds = [0, *sorted(min(c, len(u)) for c in cuts), len(u)]
    parts = []
    for lo, hi in zip(bounds, bounds[1:]):
        part, state = absorb(state, t[lo:hi], u[lo:hi], i[lo:hi], seed)
        parts.append(part)
    pd.testing.assert_frame_equal(
        pd.concat(parts, ignore_index=True),
        trace(u, i, M, seed=seed),
        check_exact=True,
    )


@pytest.mark.parametrize("estimator", FRESH)
@settings(max_examples=60, deadline=None)
@given(adversarial_streams, st.data())
def test_absorbing_the_union_of_local_events_equals_one_shot(estimator, data, extra):
    """The Spark plan's merge: split the stream into up to 5 groups, in
    any order and not contiguous in t, take each group's local events as
    a hash-pass task does, and absorb their union in t order: the
    one-shot trace, bit for bit."""
    absorb, trace, fresh = FRESH[estimator]
    users, items, M, seed = data
    n = len(users)
    u, i, t = np.array(users), np.array(items), np.arange(n)
    # the order a task reads its rows in
    arrival = np.random.default_rng(extra.draw(st.integers(0, 1 << 30))).permutation(n)
    group = np.array(extra.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    kernel = partial(absorb, seed=seed)
    events = []
    for g in range(5):
        rows = arrival[group[arrival] == g]
        events.append(local_events(kernel, fresh(M), t[rows], u[rows], i[rows]))
    union = [np.concatenate(column) for column in zip(*events)]
    got, _ = absorb_in_t_order(kernel, fresh(M), *union)
    pd.testing.assert_frame_equal(got, trace(u, i, M, seed=seed), check_exact=True)
