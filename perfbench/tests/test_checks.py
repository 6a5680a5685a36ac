"""Failure counting of timed operations and the output comparisons."""
import pandas as pd
import pytest

from perfbench.checks import Ledger, assert_same_estimates, assert_same_trace


def _raise(exc):
    raise exc


def test_success_keeps_a_sample():
    led = Ledger()
    assert led.timed("op", lambda: 41 + 1, lambda r: None) == 42
    assert (led.attempted, led.failed) == (1, 0)
    assert len(led.samples["op"]) == 1
    assert led.ok_frac == 1.0


def test_exception_in_operation_counts_as_failure():
    led = Ledger()
    assert led.timed("op", lambda: _raise(RuntimeError("boom"))) is None
    assert (led.attempted, led.failed) == (1, 1)
    assert "op" not in led.samples
    assert "boom" in led.failures[0]


def test_mismatch_counts_as_failure_and_drops_the_time():
    led = Ledger()
    led.timed("op", lambda: 1, lambda r: _raise(AssertionError("mismatch")))
    led.timed("op", lambda: 2, lambda r: None)
    assert (led.attempted, led.failed) == (2, 1)
    assert len(led.samples["op"]) == 1
    assert led.ok_frac == 0.5


def test_warm_up_is_checked_and_counted_but_not_sampled():
    led = Ledger()
    led.timed("op", lambda: 1, lambda r: None, keep=False)
    led.timed("op", lambda: 1, lambda r: _raise(AssertionError()), keep=False)
    assert (led.attempted, led.failed) == (2, 1)
    assert "op" not in led.samples


def test_ok_frac_needs_an_attempt():
    with pytest.raises(ValueError):
        Ledger().ok_frac


def _trace(ts, users, contribs):
    return pd.DataFrame({"t": ts, "user": users, "contrib": contribs})


def test_same_trace_ignores_row_order_and_tiny_float_error():
    want = _trace([0, 3, 7], [1, 2, 1], [1.0, 1.5, 2.0])
    got = _trace([7, 0, 3], [1, 1, 2], [2.0 * (1 + 1e-12), 1.0, 1.5])
    assert_same_trace(got, want, rtol=1e-9)


@pytest.mark.parametrize(
    "got",
    [
        _trace([0, 3], [1, 2], [1.0, 1.5]),  # missing event
        _trace([0, 4, 7], [1, 2, 1], [1.0, 1.5, 2.0]),  # wrong time
        _trace([0, 3, 7], [1, 3, 1], [1.0, 1.5, 2.0]),  # wrong user
        _trace([0, 3, 7], [1, 2, 1], [1.0, 1.5, 2.0 * (1 + 1e-6)]),  # beyond rtol
    ],
)
def test_trace_mismatch_raises(got):
    want = _trace([0, 3, 7], [1, 2, 1], [1.0, 1.5, 2.0])
    with pytest.raises(AssertionError):
        assert_same_trace(got, want, rtol=1e-9)


def test_estimates_need_the_same_users():
    want = pd.Series([1.0, 2.0], index=[1, 2])
    assert_same_estimates(pd.Series([2.0, 1.0], index=[2, 1]), want, rtol=1e-12)
    with pytest.raises(AssertionError):
        assert_same_estimates(pd.Series([1.0], index=[1]), want, rtol=1e-12)
    with pytest.raises(AssertionError):
        assert_same_estimates(pd.Series([1.0, 2.1], index=[1, 2]), want, rtol=1e-12)
