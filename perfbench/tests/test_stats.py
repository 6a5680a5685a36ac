"""The median / tail-percentile summary of timed samples."""
import pytest

from perfbench.stats import percentile, summarize, tail_percentile


@pytest.mark.parametrize(
    "n, p",
    [
        (0, None),
        (19, None),  # 19 * 0.5 = 9.5 beyond the median: too few
        (20, 50.0),
        (39, 50.0),  # 39 * 0.25 = 9.75
        (40, 75.0),
        (99, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (1000, 99.0),
        (10_000, 99.9),
        (100_000, 99.99),
        (10**7, 99.99),  # top of the ladder
    ],
)
def test_tail_percentile_needs_ten_beyond(n, p):
    assert tail_percentile(n) == p


def test_percentile_interpolates_like_numpy():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 50) == 3.0
    assert percentile(xs, 100) == 5.0
    assert percentile(xs, 90) == pytest.approx(4.6)


def test_summarize_small_sample_has_no_tail():
    s = summarize([3.0, 1.0, 2.0])
    assert s == {"median": 2.0, "n": 3, "tail_p": None, "tail": None}


def test_summarize_reports_tail_with_ten_beyond():
    samples = [float(i) for i in range(1, 101)]  # 1..100
    s = summarize(samples)
    assert s["n"] == 100 and s["median"] == 50.5
    assert s["tail_p"] == 90.0
    assert sum(x > s["tail"] for x in samples) == 10


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])
