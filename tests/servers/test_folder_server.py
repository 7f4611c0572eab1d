"""Unit tests for the folder server: the directory of unordered queues."""

import threading
import time

import pytest

from repro.core.keys import FolderName, Key, Symbol
from repro.core.memo import MemoRecord
from repro.errors import FolderMigratedError, ShutdownError
from repro.servers.folder_server import FolderServer


def fname(name="f", *index, app="app"):
    return FolderName(app, Key(Symbol(name), tuple(index)))


def record(value):
    return MemoRecord.from_value(value)


@pytest.fixture
def fs():
    server = FolderServer("0", "testhost")
    yield server
    server.shutdown()


class TestPutGet:
    def test_put_then_get(self, fs):
        fs.put(fname(), record(42))
        assert fs.get(fname()).value() == 42

    def test_folder_created_on_demand(self, fs):
        assert fs.folder_count() == 0
        fs.put(fname(), record(1))
        assert fs.folder_count() == 1
        assert fs.stats["folders_created"] == 1

    def test_get_blocks_until_put(self, fs):
        out = []

        def getter():
            out.append(fs.get(fname()).value())

        t = threading.Thread(target=getter)
        t.start()
        time.sleep(0.05)
        assert out == []
        fs.put(fname(), record("late"))
        t.join(timeout=2)
        assert out == ["late"]
        assert fs.stats["blocked_waits"] == 1

    def test_get_timeout(self, fs):
        with pytest.raises(TimeoutError):
            fs.get(fname(), timeout=0.05)

    def test_multiple_getters_each_get_one(self, fs):
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(fs.get(fname()).value()))
            for _ in range(3)
        ]
        for t in threads:
            t.start()
        for v in ("a", "b", "c"):
            fs.put(fname(), record(v))
        for t in threads:
            t.join(timeout=2)
        assert sorted(results) == ["a", "b", "c"]

    def test_distinct_folders_are_independent(self, fs):
        fs.put(fname("x"), record(1))
        fs.put(fname("y"), record(2))
        assert fs.get(fname("y")).value() == 2
        assert fs.get(fname("x")).value() == 1

    def test_key_index_distinguishes_folders(self, fs):
        fs.put(fname("a", 0), record("zero"))
        fs.put(fname("a", 1), record("one"))
        assert fs.get(fname("a", 1)).value() == "one"

    def test_app_namespace_distinguishes_folders(self, fs):
        fs.put(fname(app="app1"), record("one"))
        fs.put(fname(app="app2"), record("two"))
        assert fs.get(fname(app="app2")).value() == "two"

    def test_unordered_extraction(self):
        """With many memos, extraction order is not insertion order."""
        fs = FolderServer("0", seed=7)
        for i in range(30):
            fs.put(fname(), record(i))
        out = [fs.get(fname()).value() for i in range(30)]
        assert sorted(out) == list(range(30))
        assert out != list(range(30))
        fs.shutdown()


class TestGetCopySkip:
    def test_get_copy_does_not_consume(self, fs):
        fs.put(fname(), record({"v": 1}))
        assert fs.get_copy(fname()).value() == {"v": 1}
        assert fs.get_copy(fname()).value() == {"v": 1}
        assert fs.get(fname()).value() == {"v": 1}

    def test_copies_are_independent_objects(self, fs):
        fs.put(fname(), record([1, 2]))
        a = fs.get_copy(fname()).value()
        b = fs.get_copy(fname()).value()
        assert a == b and a is not b

    def test_get_skip_hit(self, fs):
        fs.put(fname(), record(9))
        got = fs.get_skip(fname())
        assert got is not None and got.value() == 9

    def test_get_skip_miss_immediate(self, fs):
        start = time.monotonic()
        assert fs.get_skip(fname()) is None
        assert time.monotonic() - start < 0.05
        assert fs.stats["skip_misses"] == 1


class TestGetAlt:
    def test_first_nonempty_wins(self, fs):
        fs.put(fname("b"), record("bee"))
        hit = fs.get_alt_skip((fname("a"), fname("b"), fname("c")))
        assert hit is not None
        name, rec = hit
        assert name == fname("b") and rec.value() == "bee"

    def test_order_bias_respected(self, fs):
        fs.put(fname("a"), record("ay"))
        fs.put(fname("b"), record("bee"))
        name, _rec = fs.get_alt_skip((fname("a"), fname("b")))
        assert name == fname("a")

    def test_all_empty_returns_none(self, fs):
        assert fs.get_alt_skip((fname("a"), fname("b"))) is None


class TestPutDelayed:
    def test_released_on_next_arrival(self, fs):
        fs.put_delayed(fname("trigger"), fname("dest"), record("delayed"))
        # Not visible anywhere yet.
        assert fs.get_skip(fname("trigger")) is None or True  # trigger empty
        assert fs.get_skip(fname("dest")) is None
        fs.put(fname("trigger"), record("arrival"))
        assert fs.get(fname("dest")).value() == "delayed"
        # The arriving memo itself is still in the trigger folder.
        assert fs.get(fname("trigger")).value() == "arrival"

    def test_delayed_memo_not_extractable_before_release(self, fs):
        fs.put_delayed(fname("t"), fname("d"), record("hidden"))
        assert fs.get_skip(fname("t")) is None
        assert fs.get_skip(fname("d")) is None
        assert fs.stats["delayed_parked"] == 1
        assert fs.stats["delayed_released"] == 0

    def test_multiple_delayed_all_release(self, fs):
        for i in range(3):
            fs.put_delayed(fname("t"), fname("d", i), record(i))
        fs.put(fname("t"), record("go"))
        for i in range(3):
            assert fs.get(fname("d", i)).value() == i

    def test_release_to_same_folder(self, fs):
        """put_delayed(k, k, v): v becomes visible in k after an arrival."""
        fs.put_delayed(fname("k"), fname("k"), record("self"))
        fs.put(fname("k"), record("trigger"))
        got = {fs.get(fname("k")).value() for _ in range(2)}
        assert got == {"self", "trigger"}

    def test_releases_cascade(self, fs):
        """A release is itself a put: it triggers the destination folder's
        own parked memos (found by the stateful property test)."""
        fs.put_delayed(fname("a"), fname("b"), record("first"))
        fs.put_delayed(fname("b"), fname("c"), record("second"))
        fs.put(fname("a"), record("go"))
        # arrival in a released "first" into b; that arrival in b released
        # "second" into c.
        assert fs.get(fname("b")).value() == "first"
        assert fs.get(fname("c")).value() == "second"

    def test_emit_put_used_for_foreign_folders(self):
        emitted = []
        fs = FolderServer("0", emit_put=lambda name, rec: emitted.append((name, rec)))
        fs.put_delayed(fname("t"), fname("elsewhere"), record("x"))
        fs.put(fname("t"), record("go"))
        assert len(emitted) == 1
        assert emitted[0][0] == fname("elsewhere")
        fs.shutdown()


class TestFolderLifecycle:
    def test_folder_vanishes_when_empty(self, fs):
        """Futures: 'the folder will vanish once the memo is removed'."""
        fs.put(fname("future"), record(1))
        fs.get(fname("future"))
        assert fs.folder_count() == 0
        assert fs.stats["folders_vanished"] >= 1

    def test_folder_with_waiters_does_not_vanish(self, fs):
        t = threading.Thread(target=lambda: fs.get(fname("w")))
        t.start()
        time.sleep(0.05)
        assert fs.folder_count() == 1
        fs.put(fname("w"), record(1))
        t.join(timeout=2)

    def test_folder_with_delayed_does_not_vanish(self, fs):
        fs.put_delayed(fname("t"), fname("d"), record(1))
        fs.put(fname("x"), record(1))
        fs.get(fname("x"))
        assert fname("t") in fs.folder_names()

    def test_memo_count(self, fs):
        for i in range(5):
            fs.put(fname("q"), record(i))
        assert fs.memo_count() == 5


def blocked_get(fs, name, outcomes):
    """Start a thread blocked in ``fs.get(name)``; its record or exception
    lands in *outcomes*.  Returns once the wait is on the folder's list."""

    def getter():
        try:
            outcomes.append(fs.get(name).value())
        except Exception as exc:  # noqa: BLE001 - the test inspects it
            outcomes.append(exc)

    waits = fs.stats["blocked_waits"]
    thread = threading.Thread(target=getter)
    thread.start()
    deadline = time.monotonic() + 2
    while fs.stats["blocked_waits"] == waits and time.monotonic() < deadline:
        time.sleep(0.001)
    return thread


class TestOneWaiterList:
    """Blocking ``get`` is ``get_async`` plus a signal: one FIFO list."""

    def test_blocked_thread_is_served_before_a_later_parked_waiter(self, fs):
        blocked, parked = [], []
        thread = blocked_get(fs, fname(), blocked)
        hit, waiter = fs.get_async(
            fname(), "get", lambda rec, err: parked.append(rec.value())
        )
        assert hit is None and waiter is not None
        fs.put(fname(), record("first"))
        thread.join(timeout=2)
        assert (blocked, parked) == (["first"], [])
        fs.put(fname(), record("second"))
        assert (blocked, parked) == (["first"], ["second"])
        assert fs.folder_count() == 0

    def test_timeout_that_wins_its_cancel_leaves_no_waiter(self, fs):
        with pytest.raises(TimeoutError):
            fs.get(fname(), timeout=0.02)
        with pytest.raises(TimeoutError):
            fs.get_copy(fname(), timeout=0.02)
        assert fs.folder_count() == 0
        assert fs.stats["async_cancelled"] == 2

    def test_timeout_that_loses_its_cancel_returns_the_record(self, fs, monkeypatch):
        cancel = fs.cancel_waiter

        def put_then_cancel(name, waiter):
            fs.put(name, record("raced"))  # completes the waiter first
            return cancel(name, waiter)

        monkeypatch.setattr(fs, "cancel_waiter", put_then_cancel)
        assert fs.get(fname(), timeout=0.02).value() == "raced"
        assert fs.folder_count() == 0 and fs.memo_count() == 0
        assert fs.stats["gets"] == 1 and fs.stats["async_cancelled"] == 0

    def test_extract_folders_wakes_a_blocked_get_exactly_once(self, fs):
        outcomes = []
        thread = blocked_get(fs, fname(), outcomes)
        assert fs.extract_folders(lambda name: True) == [(fname(), [], [])]
        thread.join(timeout=2)
        assert [type(o) for o in outcomes] == [FolderMigratedError]
        # No ghost waiter stayed behind to eat the folder's next memo.
        fs.put(fname(), record(1))
        assert fs.memo_count() == 1 and outcomes[1:] == []

    def test_shutdown_wakes_a_blocked_get_exactly_once(self):
        fs = FolderServer("0")
        outcomes = []
        threads = [
            blocked_get(fs, fname("a"), outcomes),
            blocked_get(fs, fname("b"), outcomes),
        ]
        fs.shutdown()
        fs.shutdown()
        for thread in threads:
            thread.join(timeout=2)
        assert [type(o) for o in outcomes] == [ShutdownError, ShutdownError]
        assert "folder server 0 is shut down" in str(outcomes[0])


class TestShutdown:
    def test_blocked_getters_woken(self):
        fs = FolderServer("0")
        errors = []

        def getter():
            try:
                fs.get(fname())
            except ShutdownError:
                errors.append(True)

        t = threading.Thread(target=getter)
        t.start()
        time.sleep(0.05)
        fs.shutdown()
        t.join(timeout=2)
        assert errors == [True]

    def test_operations_after_shutdown_rejected(self):
        fs = FolderServer("0")
        fs.shutdown()
        with pytest.raises(ShutdownError):
            fs.put(fname(), record(1))
        with pytest.raises(ShutdownError):
            fs.get_skip(fname())
