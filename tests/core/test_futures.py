"""Unit tests for MemoFuture and its combinators (no cluster involved)."""

import threading
import time

import pytest

from repro.core.futures import (
    MemoFuture,
    WaitCancelledError,
    as_completed,
    wait_any,
)
from repro.errors import MemoError


class TestCompletion:
    def test_complete_then_result(self):
        f = MemoFuture()
        assert not f.done()
        assert f._complete(42)
        assert f.done() and f.result() == 42 and f.exception() is None

    def test_fail_then_result_raises(self):
        f = MemoFuture()
        f._fail(MemoError("boom"))
        assert f.done()
        assert isinstance(f.exception(), MemoError)
        with pytest.raises(MemoError, match="boom"):
            f.result()

    def test_only_first_resolution_wins(self):
        f = MemoFuture()
        assert f._complete(1)
        assert not f._complete(2)
        assert not f._fail(MemoError("late"))
        assert f.result() == 1

    def test_transform_applies_on_completion(self):
        f = MemoFuture(transform=lambda v: v * 2)
        f._complete(21)
        assert f.result() == 42

    def test_transform_error_fails_the_future(self):
        def bad(_v):
            raise ValueError("decode failed")

        f = MemoFuture(transform=bad)
        f._complete(b"payload")
        with pytest.raises(ValueError, match="decode failed"):
            f.result()


class TestCallbacks:
    def test_callback_runs_on_completion(self):
        f = MemoFuture()
        seen = []
        f.add_done_callback(seen.append)
        assert seen == []
        f._complete("x")
        assert seen == [f]

    def test_callback_added_after_completion_runs_inline(self):
        f = MemoFuture()
        f._complete("x")
        seen = []
        f.add_done_callback(seen.append)
        assert seen == [f]

    def test_a_callback_already_sees_the_future_done(self):
        f = MemoFuture()
        seen = []
        f.add_done_callback(lambda g: seen.append((g.done(), g.result())))
        f._complete("x")
        assert seen == [(True, "x")]

    def test_callback_errors_are_swallowed(self):
        f = MemoFuture()
        f.add_done_callback(lambda _f: 1 / 0)
        seen = []
        f.add_done_callback(seen.append)
        f._complete("x")  # must not raise, later callbacks still run
        assert seen == [f]


class TestCancellation:
    def test_cancel_without_impl_reports_false(self):
        f = MemoFuture()
        assert not f.cancel()
        assert not f.cancelled()

    def test_cancel_with_impl(self):
        f = MemoFuture(cancel_impl=lambda: True)
        assert f.cancel()
        assert f.cancelled() and f.done()
        with pytest.raises(WaitCancelledError):
            f.result()

    def test_cancel_after_completion_reports_false(self):
        f = MemoFuture(cancel_impl=lambda: True)
        f._complete(7)
        assert not f.cancel()
        assert f.result() == 7

    def test_cancel_impl_losing_race_keeps_result(self):
        f = MemoFuture(cancel_impl=lambda: False)
        f._complete(7)
        assert not f.cancel()
        assert f.result() == 7


class TestWaiting:
    def test_result_timeout_leaves_future_pending(self):
        f = MemoFuture()
        with pytest.raises(TimeoutError):
            f.result(timeout=0.05)
        assert not f.done()
        f._complete(1)
        assert f.result() == 1

    def test_wait_timeout_cancels_when_cancellable(self):
        f = MemoFuture(cancel_impl=lambda: True)
        with pytest.raises(TimeoutError):
            f.wait(timeout=0.05)
        assert f.cancelled()

    def test_wait_timeout_on_uncancellable_raises_but_stays_pending(self):
        f = MemoFuture()
        with pytest.raises(TimeoutError):
            f.wait(timeout=0.05)
        assert not f.done()

    def test_wait_returns_result_when_cancel_loses(self):
        # cancel_impl says "too late": wait must collect the result.
        f = MemoFuture(cancel_impl=lambda: False)
        threading.Timer(0.1, lambda: f._complete("late-win")).start()
        assert f.wait(timeout=0.02) == "late-win"

    def test_external_completion_wakes_plain_wait(self):
        f = MemoFuture()
        threading.Timer(0.05, lambda: f._complete("ok")).start()
        assert f.wait(timeout=5) == "ok"

    def test_one_completion_wakes_every_plain_waiter(self):
        f = MemoFuture()
        woke = []
        waiters = [
            threading.Thread(target=lambda: woke.append(f.wait(timeout=5)))
            for _ in range(3)
        ]
        for t in waiters:
            t.start()
        time.sleep(0.05)  # all three block at the gate
        assert woke == []
        f._complete("ok")
        for t in waiters:
            t.join(5)
        assert woke == ["ok"] * 3

    def test_step_driving(self):
        hits = []

        def step(slice_s):
            hits.append(slice_s)
            if len(hits) >= 3:
                f._complete("driven")

        f = MemoFuture(step=step)
        assert f.wait(timeout=5) == "driven"
        assert len(hits) == 3

    def test_step_exception_fails_future(self):
        def step(_s):
            raise MemoError("driver died")

        f = MemoFuture(step=step)
        with pytest.raises(MemoError, match="driver died"):
            f.wait(timeout=5)


class TestCombinators:
    def test_wait_any_returns_first_done(self):
        a, b, c = MemoFuture(), MemoFuture(), MemoFuture()
        b._complete("b")
        assert wait_any([a, b, c]) is b

    def test_wait_any_empty_rejected(self):
        with pytest.raises(MemoError):
            wait_any([])

    def test_wait_any_timeout(self):
        with pytest.raises(TimeoutError):
            wait_any([MemoFuture()], timeout=0.05)

    def test_wait_any_wakes_on_a_completion_from_another_thread(self):
        a, b = MemoFuture(), MemoFuture()
        threading.Timer(0.1, lambda: b._complete("b")).start()
        started = time.monotonic()
        assert wait_any([a, b], timeout=5) is b
        assert time.monotonic() - started < 2

    def test_wait_any_drives_steps(self):
        f = MemoFuture(step=lambda _s: f._complete(1))
        assert wait_any([MemoFuture(), f], timeout=5) is f

    def test_as_completed_yields_in_completion_order(self):
        # Completions are paced by the iteration itself (complete the
        # next only once the previous was yielded), so the expected
        # order is deterministic regardless of scan granularity.
        futures = [MemoFuture() for _ in range(3)]
        schedule = [2, 0, 1]
        order = []
        futures[schedule[0]]._complete(schedule[0])
        for f in as_completed(futures, timeout=5):
            order.append(f.result())
            if len(order) < len(schedule):
                futures[schedule[len(order)]]._complete(schedule[len(order)])
        assert order == schedule

    def test_as_completed_timeout_bounds_whole_iteration(self):
        done, pending = MemoFuture(), MemoFuture()
        done._complete(1)
        it = as_completed([pending, done], timeout=0.1)
        assert next(it) is done
        with pytest.raises(TimeoutError):
            next(it)
