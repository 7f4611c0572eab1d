"""One counter type, one registry: exact under contention, torn-free when
counted under an owner's lock, flat when read."""

import sys
import threading

import pytest

from repro.servers.folder_server import FolderServer
from repro.telemetry import Counters, Registry

THREADS = 8
BUMPS = 10_000


@pytest.fixture
def fast_switching():
    """Switch threads every microsecond so a racy counter would lose bumps."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def hammer(fn) -> None:
    start = threading.Barrier(THREADS)

    def run():
        start.wait()
        for _ in range(BUMPS):
            fn()

    threads = [threading.Thread(target=run) for _ in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()


def test_bumps_are_exact_under_contention(fast_switching):
    counters = Counters(("one", "a", "b"))
    hammer(lambda: counters.bump("one"))
    hammer(lambda: counters.bump_pair("a", "b"))
    assert counters.snapshot() == {
        "one": THREADS * BUMPS, "a": THREADS * BUMPS, "b": THREADS * BUMPS,
    }


def test_owner_lock_counts_are_exact_and_snapshots_hold_that_lock(fast_switching):
    owner_lock = threading.Lock()
    counters = Counters(("hits", "misses"), lock=owner_lock)
    assert counters.lock is owner_lock
    torn = []

    def owner_op():
        # The owner's critical section: two counts that always move together.
        with owner_lock:
            counters["hits"] += 1
            counters["misses"] += 1

    def reader():
        for _ in range(2000):
            snap = counters.snapshot()
            if snap["hits"] != snap["misses"]:
                torn.append(snap)

    watcher = threading.Thread(target=reader)
    watcher.start()
    hammer(owner_op)
    watcher.join(timeout=60)
    assert not watcher.is_alive() and torn == []
    assert counters["hits"] == counters["misses"] == THREADS * BUMPS


def test_snapshot_waits_for_the_owner_lock():
    fs = FolderServer("0")
    assert fs.stats.lock is fs._lock
    got = []
    with fs._lock:
        reader = threading.Thread(target=lambda: got.append(fs.stats.snapshot()))
        reader.start()
        reader.join(timeout=0.1)
        assert reader.is_alive() and got == []
    reader.join(timeout=2)
    assert got == [fs.stats.snapshot()]


def test_unknown_counter_is_an_error():
    with pytest.raises(KeyError):
        Counters(("a",)).bump("b")


def test_registry_flattens_counters_and_gauges():
    registry = Registry()
    counters = Counters(("puts", "gets"))
    counters.bump("puts", 3)
    registry.add("folder.0", counters)
    registry.add("folder.0.live_memos", lambda: 7)
    registry.add("durability", lambda: {"stores": 2, "fsync_ms": 0.5})
    assert registry.snapshot() == {
        "folder.0.puts": 3,
        "folder.0.gets": 0,
        "folder.0.live_memos": 7,
        "durability.stores": 2,
        "durability.fsync_ms": 0.5,
    }
    # A snapshot is a copy: later bumps do not reach it.
    snap = registry.snapshot()
    counters.bump("gets")
    assert snap["folder.0.gets"] == 0
