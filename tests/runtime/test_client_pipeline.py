"""MemoClient demultiplexing and deferred-ack accounting.

The pipelined client tags every request with a correlation id and matches
replies by id, so the server is free to answer out of order; posted-put
acknowledgements that die with a connection are *counted* — accurately,
across repeated losses — and surface as exactly one MemoError.
"""

import pytest

from repro import Cluster, system_default_adf
from repro.core.keys import FolderName, Key, Symbol
from repro.errors import MemoError
from repro.network.protocol import PutRequest, StatsRequest
from repro.transferable.wire import encode


@pytest.fixture
def cluster():
    adf = system_default_adf(["solo"], app="cp")
    with Cluster(adf, idle_timeout=0.5) as c:
        c.register()
        yield c


def folder(i=0):
    return FolderName("cp", Key(Symbol("k"), (i,)))


class TestDemux:
    def test_request_matched_by_id_with_posts_in_flight(self, cluster):
        client = cluster.client_for("solo", origin="d")
        for i in range(10):
            client.post(PutRequest(folder=folder(i), payload=encode(i)))
        # The request drains the 10 acks first, then matches its own id.
        reply = client.request(StatsRequest(origin="d"), timeout=5.0)
        assert reply.ok and reply.stats
        assert client.pending_acks == 0
        client.close()

    def test_sync_reads_see_pipelined_writes(self, cluster):
        memo = cluster.memo_api("solo", "cp")
        memo.put_many((Key(Symbol("rw"), (i,)), i) for i in range(50))
        # No explicit flush: request() drains pending acks first, so the
        # read-your-writes guarantee holds across the pipelined batch.
        assert memo.get(Key(Symbol("rw"), (7,))) == 7

    def test_stale_frames_are_skipped_not_mismatched(self, cluster):
        client = cluster.client_for("solo", origin="t")
        # A parked wait on an empty folder: its push is withheld.
        wait = client.get_wait(folder(99))
        with pytest.raises(TimeoutError):
            wait.result(timeout=0.2)
        # Satisfy the wait so its push arrives unasked, ahead of the next
        # request's reply.
        feeder = cluster.client_for("solo", origin="f")
        feeder.request(PutRequest(folder=folder(99), payload=encode("x")))
        # The next request gets its own reply; the push went to its wait.
        reply = client.request(StatsRequest(origin="t"), timeout=5.0)
        assert reply.ok and reply.stats
        assert wait.result(timeout=0) == encode("x")
        client.close()
        feeder.close()


class TestLossAccounting:
    def test_single_loss_reports_count_once(self, cluster):
        client = cluster.client_for("solo", origin="l")
        client.post(PutRequest(folder=folder(1), payload=encode(1)))
        client.post(PutRequest(folder=folder(2), payload=encode(2)))
        with client._lock:
            client._discard_connection_locked()
        with pytest.raises(MemoError, match="2 unacknowledged"):
            client.flush()
        # Raised exactly once: the books are clean afterwards.
        client.flush()
        assert client.pending_acks == 0
        client.close()

    def test_repeated_losses_accumulate_accurately(self, cluster):
        """A second loss before the first was reported must add, not reset.

        The old accounting zeroed the counter while composing the first
        error, so a reconnect could silently forget unacknowledged puts.
        """
        client = cluster.client_for("solo", origin="l2")
        client.post(PutRequest(folder=folder(1), payload=encode(1)))
        client.post(PutRequest(folder=folder(2), payload=encode(2)))
        with client._lock:
            client._discard_connection_locked()
            client._calls.conn = client._transport.connect(client.server_address)
        client.post(PutRequest(folder=folder(3), payload=encode(3)))
        with client._lock:
            client._discard_connection_locked()
        with pytest.raises(MemoError, match="3 unacknowledged"):
            client.flush()
        client.flush()  # exactly once
        client.close()

    def test_server_error_and_loss_surface_together_once(self, cluster):
        client = cluster.client_for("solo", origin="l3")
        # An async put to an unregistered app draws an error reply.
        client.post(
            PutRequest(folder=FolderName("ghost-app", Key(Symbol("x"))), payload=encode(1))
        )
        with pytest.raises(MemoError, match="asynchronous put failed"):
            client.flush()
        client.post(PutRequest(folder=folder(5), payload=encode(5)))
        with client._lock:
            client._discard_connection_locked()
        with pytest.raises(MemoError, match="1 unacknowledged"):
            client.flush()
        client.flush()
        client.close()

    def test_put_many_reconnect_midstream_keeps_books(self, cluster):
        """A connection cut under put_many resends the unsent burst and
        counts the dead wire's acks, still raising exactly once."""
        client = cluster.client_for("solo", origin="l4")
        client.post(PutRequest(folder=folder(0), payload=encode(0)))
        with client._lock:
            client._calls.conn.close()  # cut the wire; reconnect happens lazily
        client.put_many(
            PutRequest(folder=folder(i), payload=encode(i)) for i in range(1, 70)
        )
        with pytest.raises(MemoError, match="1 unacknowledged"):
            client.flush()
        assert client.pending_acks == 0
        # The resent burst landed: the memos are all there.
        from repro.core.api import NIL

        memo = cluster.memo_api("solo", "cp")
        found = sum(
            1 for i in range(1, 70) if memo.get_skip(Key(Symbol("k"), (i,))) is not NIL
        )
        assert found == 69
        client.close()
