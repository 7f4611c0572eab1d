"""Unit tests for thread caching (paper section 4.1)."""

import threading
import time

import pytest

from repro.errors import ServerError
from repro.servers.threadcache import ThreadCache


def test_submit_runs_task():
    cache = ThreadCache(idle_timeout=0.5)
    done = threading.Event()
    cache.submit(done.set)
    assert done.wait(2)
    cache.shutdown()


def test_args_and_kwargs_passed():
    cache = ThreadCache(idle_timeout=0.5)
    out = {}
    done = threading.Event()

    def task(a, b=0):
        out["sum"] = a + b
        done.set()

    cache.submit(task, 2, b=3)
    assert done.wait(2)
    assert out["sum"] == 5
    cache.shutdown()


def test_thread_reuse_after_completion():
    """A second request arriving within the idle window reuses the thread."""
    cache = ThreadCache(idle_timeout=2.0)
    first = threading.Event()
    cache.submit(first.set)
    first.wait(2)
    time.sleep(0.05)  # let the worker park itself
    second = threading.Event()
    cache.submit(second.set)
    second.wait(2)
    time.sleep(0.05)
    stats = cache.stats.snapshot()
    assert stats["threads_created"] == 1
    assert stats["cache_hits"] == 1
    cache.shutdown()


def test_idle_thread_expires():
    """The paper's timer: an idle thread terminates after the timeout."""
    cache = ThreadCache(idle_timeout=0.1)
    done = threading.Event()
    cache.submit(done.set)
    done.wait(2)
    deadline = time.monotonic() + 5
    while cache.idle_count() > 0 and time.monotonic() < deadline:
        time.sleep(0.02)
    assert cache.idle_count() == 0
    assert cache.stats.snapshot()["threads_expired"] == 1
    cache.shutdown()


def test_zero_timeout_disables_caching():
    cache = ThreadCache(idle_timeout=0)
    events = [threading.Event() for _ in range(3)]
    for e in events:
        cache.submit(e.set)
    for e in events:
        assert e.wait(2)
    stats = cache.stats.snapshot()
    assert stats["threads_created"] == 3
    assert stats["cache_hits"] == 0
    cache.shutdown()


def test_concurrent_bursts_all_complete():
    cache = ThreadCache(idle_timeout=1.0)
    counter = {"n": 0}
    lock = threading.Lock()
    done = threading.Semaphore(0)

    def task():
        with lock:
            counter["n"] += 1
        done.release()

    for _ in range(50):
        cache.submit(task)
    for _ in range(50):
        assert done.acquire(timeout=2)
    assert counter["n"] == 50
    cache.shutdown()


def test_task_error_does_not_kill_worker():
    cache = ThreadCache(idle_timeout=1.0)
    errors = []
    cache.set_error_hook(errors.append)

    def bad():
        raise ValueError("boom")

    cache.submit(bad)
    time.sleep(0.1)
    assert len(errors) == 1
    # Worker survived the error and still serves tasks.
    done = threading.Event()
    cache.submit(done.set)
    assert done.wait(2)
    cache.shutdown()


def test_submit_after_shutdown_rejected():
    cache = ThreadCache(idle_timeout=0.5)
    cache.shutdown()
    with pytest.raises(ServerError):
        cache.submit(lambda: None)


def test_negative_timeout_rejected():
    with pytest.raises(ServerError):
        ThreadCache(idle_timeout=-1)


def test_stats_submitted_counter():
    cache = ThreadCache(idle_timeout=0.5)
    done = threading.Semaphore(0)
    for _ in range(5):
        cache.submit(done.release)
    for _ in range(5):
        done.acquire(timeout=2)
    assert cache.stats.snapshot()["submitted"] == 5
    cache.shutdown()


def test_submit_counts_under_the_pool_lock():
    """A snapshot never shows a submit half counted."""
    cache = ThreadCache(idle_timeout=2.0)
    assert cache._lock is cache.stats.lock
    started, release = threading.Event(), threading.Event()

    def task():
        started.set()
        release.wait(5)

    cache.submit(task)
    assert started.wait(2)
    cache.submit(lambda: None)  # first worker is busy: a second thread
    release.set()
    deadline = time.monotonic() + 2
    while cache.idle_count() < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    cache.submit(lambda: None)
    snap = cache.stats.snapshot()
    assert snap["submitted"] == 3
    assert snap["cache_hits"] + snap["threads_created"] == snap["submitted"]
    assert (snap["threads_created"], snap["cache_hits"]) == (2, 1)
    cache.shutdown()


def test_worker_grabbed_between_its_timeout_and_the_idle_check():
    """The expiry race: a worker's timer fires, and before it can look at
    the idle list a submitter pops it and hands it a task.  The worker
    must notice it is no longer idle, go back to its mailbox and run the
    task — not expire with work queued."""
    cache = ThreadCache(idle_timeout=0.2)
    first = threading.Event()
    cache.submit(first.set)
    assert first.wait(2)

    class HandoverLock:
        """The pool lock, but a worker entering it first lets a submit by."""

        def __init__(self, inner):
            self.inner = inner
            self.worker_arrived = threading.Event()
            self.submitted = threading.Event()

        def __enter__(self):
            if threading.current_thread().name.endswith("-worker"):
                self.worker_arrived.set()
                assert self.submitted.wait(5)
            self.inner.acquire()

        def __exit__(self, *exc):
            self.inner.release()

    # Swap the lock in while the worker sits in its mailbox wait, after it
    # put itself on the idle list.
    deadline = time.monotonic() + 2
    while cache.idle_count() < 1 and time.monotonic() < deadline:
        time.sleep(0.001)
    gate = cache._lock = HandoverLock(cache._lock)
    assert gate.worker_arrived.wait(2), "worker expired before the gate was in"
    ran_on = []
    second = threading.Event()

    def task():
        ran_on.append(threading.current_thread())
        second.set()

    cache.submit(task)  # pops the timed-out worker, queues the task
    gate.submitted.set()  # now let the worker look at the idle list
    assert second.wait(2)
    snap = cache.stats.snapshot()
    assert (snap["threads_created"], snap["cache_hits"]) == (1, 1)
    assert snap["threads_expired"] == 0
    assert ran_on[0].name.endswith("-worker")
    cache.shutdown()
