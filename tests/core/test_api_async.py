"""End-to-end tests of the futures-first Memo API on live clusters."""

import threading
import time

import pytest

from repro import NIL, Cluster, Memo, as_completed, system_default_adf, wait_any
from repro.core.keys import Key, Symbol
from repro.errors import MemoError


def key(i=0):
    return Key(Symbol("ak"), (i,))


def sibling(memo, name="sibling"):
    return memo.cluster.memo_api("solo", memo.app, process_name=name)


class TestGetAsync:
    def test_immediate_hit_resolves_without_parking(self, memo):
        memo.put(key(), {"v": 1}, wait=True)
        f = memo.get_async(key())
        assert f.wait(timeout=5) == {"v": 1}
        stats = memo.cluster.servers["solo"].stats.snapshot()
        assert stats["waiters_parked"] == 0

    def test_parked_wait_completes_on_put(self, memo):
        server = memo.cluster.servers["solo"]
        f = memo.get_async(key(1))
        assert not f.done()
        # The GetWait and the put travel on different connections; park
        # first so the completion provably goes through the push path.
        deadline = time.monotonic() + 5
        while server.stats["waiters_active"] != 1:
            assert time.monotonic() < deadline, "wait never parked"
            time.sleep(0.005)
        sibling(memo).put(key(1), "pushed")
        assert f.wait(timeout=5) == "pushed"
        stats = server.stats.snapshot()
        assert stats["waiters_parked"] == 1
        assert stats["waiters_completed"] == 1
        assert stats["push_frames"] >= 1

    def test_get_copy_async_does_not_consume(self, memo):
        f = memo.get_copy_async(key(2))
        sibling(memo).put(key(2), "kept")
        assert f.wait(timeout=5) == "kept"
        assert memo.get_skip(key(2)) == "kept"

    def test_many_copy_waiters_complete_on_one_put(self, memo):
        futures = [memo.get_copy_async(key(3)) for _ in range(5)]
        sibling(memo).put(key(3), "fanout")
        for f in as_completed(futures, timeout=5):
            assert f.result() == "fanout"

    def test_fifo_among_parked_consumers(self, memo):
        futures = [memo.get_async(key(4)) for _ in range(3)]
        sib = sibling(memo)
        sib.put(key(4), "first", wait=True)
        assert futures[0].wait(timeout=5) == "first"
        assert not futures[1].done() and not futures[2].done()
        sib.put(key(4), "second", wait=True)
        assert futures[1].wait(timeout=5) == "second"

    def test_wait_any_across_folders(self, memo):
        fa, fb = memo.get_async(key(5)), memo.get_async(key(6))
        sibling(memo).put(key(6), "b-wins")
        winner = wait_any([fa, fb], timeout=5)
        assert winner is fb and winner.result() == "b-wins"
        fa.cancel()

    def test_error_reply_fails_the_future(self, memo):
        ghost = Memo(sibling(memo).client, app="never-registered")
        f = ghost.get_async(key())
        with pytest.raises(MemoError, match="not registered"):
            f.wait(timeout=5)


class TestCancellation:
    def test_cancel_parked_wait_keeps_the_memo(self, memo):
        f = memo.get_async(key(10))
        assert f.cancel()
        assert f.cancelled()
        sib = sibling(memo)
        sib.put(key(10), "survives", wait=True)
        assert memo.get_skip(key(10)) == "survives"
        stats = memo.cluster.servers["solo"].stats.snapshot()
        assert stats["waiters_cancelled"] >= 1

    def test_cancel_after_completion_reports_false(self, memo):
        memo.put(key(11), 1, wait=True)
        f = memo.get_async(key(11))
        f.wait(timeout=5)
        assert not f.cancel()

    def test_wait_timeout_withdraws_without_eating_a_later_memo(self, memo):
        f = memo.get_async(key(12))
        with pytest.raises(TimeoutError):
            f.wait(timeout=0.2)
        assert f.cancelled()
        sibling(memo).put(key(12), "later", wait=True)
        assert memo.get_skip(key(12)) == "later"


class TestPutAsync:
    def test_ack_future_resolves(self, memo):
        f = memo.put_async(key(20), "acked")
        assert f.wait(timeout=5) is None
        assert memo.get_skip(key(20)) == "acked"

    def test_failed_put_fails_the_future(self, memo):
        ghost = Memo(sibling(memo).client, app="never-registered")
        f = ghost.put_async(key(), 1)
        with pytest.raises(MemoError, match="not registered"):
            f.wait(timeout=5)

    def test_many_acks_compose(self, memo):
        futures = [memo.put_async(key(21), i) for i in range(10)]
        for f in as_completed(futures, timeout=5):
            assert f.exception() is None
        assert sorted(memo.drain(key(21))) == list(range(10))


class TestGetAltAsync:
    def test_immediate_hit(self, memo):
        memo.put(key(30), "hit", wait=True)
        f = memo.get_alt_async([key(30), key(31)])
        k, v = f.wait(timeout=5)
        assert k == key(30) and v == "hit"

    def test_parked_then_completed(self, memo):
        f = memo.get_alt_async([key(32), key(33)])
        assert not f.done()
        sibling(memo).put(key(33), "poll-win")
        k, v = f.wait(timeout=10)
        assert k == key(33) and v == "poll-win"

    def test_cancel_is_local_and_keeps_memos(self, memo):
        f = memo.get_alt_async([key(34)])
        assert f.cancel()
        sibling(memo).put(key(34), "kept", wait=True)
        assert memo.get_skip(key(34)) == "kept"

    def test_empty_keys_rejected(self, memo):
        with pytest.raises(MemoError):
            memo.get_alt_async([])


class TestBlockingWrappersDelegate:
    """The paper API is a thin shell over the async core — same results."""

    def test_get_is_get_async_wait(self, memo):
        out = []
        t = threading.Thread(target=lambda: out.append(memo.get(key(40))))
        t.start()
        # While get blocks, the wait is PARKED — not holding a worker.
        server = memo.cluster.servers["solo"]
        deadline = time.monotonic() + 5
        while server.stats["waiters_active"] != 1:
            assert time.monotonic() < deadline, "blocking get never parked"
            time.sleep(0.005)
        assert out == []
        sibling(memo).put(key(40), "woke")
        t.join(timeout=5)
        assert out == ["woke"]

    def test_put_wait_is_put_async_wait(self, memo):
        memo.put(key(41), "v", wait=True)
        assert memo.get_skip(key(41)) == "v"


class TestDeferredErrorInteractions:
    """Regression coverage: futures machinery vs the deferred-ack error."""

    def test_wait_timeout_preserves_deferred_put_error(self, memo):
        """A timed-out wait's cancellation must neither swallow a pending
        put failure nor hang; the failure surfaces on the next sync call."""
        f = memo.get_async(key(60))
        ghost = Memo(memo.client, app="never-registered")
        ghost.put(key(), 1)  # fire-and-forget; its ack is an error
        with pytest.raises(TimeoutError):
            f.wait(timeout=0.3)
        assert f.cancelled()
        with pytest.raises(MemoError, match="not registered"):
            memo.flush()

    def test_wait_any_drives_futures_on_different_clients(self, memo):
        """No starvation: each pending future's own client gets pumped."""
        other = sibling(memo, "other")
        f_starved = memo.get_async(key(61))  # never completed
        f_other = other.get_async(key(62))  # on a different connection
        feeder = sibling(memo, "feeder")
        feeder.put(key(62), "cross-client")
        winner = wait_any([f_starved, f_other], timeout=10)
        assert winner is f_other and winner.result() == "cross-client"
        f_starved.cancel()

    def test_close_surfaces_error_recorded_before_close(self, memo):
        """An error already absorbed (nothing pending) still raises."""
        ghost = Memo(memo.client, app="never-registered")
        ghost.put(key(), 1)
        # Absorb the error ack without a raising drain: pump until the
        # pending set is empty and the error sits recorded.
        deadline = time.monotonic() + 5
        while memo.client.pending_acks:
            assert time.monotonic() < deadline
            memo.client.pump(0.1)
        with pytest.raises(MemoError, match="not registered"):
            memo.client.close()


class TestContextManagerClose:
    """Satellite bugfix: close flushes pending acks, never abandons them."""

    def test_close_collects_pending_acks(self):
        adf = system_default_adf(["solo"], app="cm")
        with Cluster(adf, idle_timeout=0.5) as cluster:
            cluster.register()
            with cluster.memo_api("solo", "cm") as memo:
                memo.put_many((key(i), i) for i in range(50))
                client = memo.client
            # __exit__ flushed: nothing pending, nothing lost.
            assert client.pending_acks == 0
            check = cluster.memo_api("solo", "cm", "check")
            got = sorted(v for i in range(50) for v in check.drain(key(i)))
            assert got == list(range(50))

    def test_close_surfaces_a_failed_async_put(self):
        adf = system_default_adf(["solo"], app="cm2")
        with Cluster(adf, idle_timeout=0.5) as cluster:
            cluster.register()
            client = cluster.client_for("solo", origin="ghost")
            ghost = Memo(client, app="never-registered")
            with pytest.raises(MemoError, match="not registered"):
                with ghost:
                    ghost.put(key(), 1)  # fire-and-forget; ack will be an error
            # The client is closed even though the flush raised.
            assert client._calls.conn.closed

    def test_plain_close_equivalent(self, memo):
        memo.put(key(50), "x")
        memo.close()
        assert memo.client._calls.conn.closed
