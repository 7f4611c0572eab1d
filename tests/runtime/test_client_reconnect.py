"""MemoClient connection hygiene: timeout desync and reconnect-on-failover.

The timeout bug this guards against: a ``TimeoutError`` inside
``request`` used to leave the reply in flight on the socket, so the *next*
request would read the stale reply — every later request/reply pair off by
one.  The client now discards the connection on timeout.
"""

import threading
import time

import pytest

from repro import Cluster, system_default_adf
from repro.core.keys import FolderName, Key, Symbol
from repro.errors import ConnectionClosedError
from repro.network.connection import Address
from repro.network.protocol import (
    GetRequest,
    PutRequest,
    Reply,
    StatsRequest,
    recv_tagged,
    send_message,
)
from repro.network.transport import InMemoryTransport, NetworkFabric
from repro.runtime.client import MemoClient
from repro.transferable.wire import encode


@pytest.fixture
def cluster():
    adf = system_default_adf(["solo"], app="rc")
    with Cluster(adf, idle_timeout=0.5) as c:
        c.register()
        yield c


def folder(i=0):
    return FolderName("rc", Key(Symbol("k"), (i,)))


class TestTimeoutDesync:
    def test_timeout_discards_connection_so_no_stale_reply(self, cluster):
        client = cluster.client_for("solo", origin="t")
        # A parked wait on an empty folder: its push is withheld, so it
        # cannot answer in time.  The timeout withdraws it.
        with pytest.raises(TimeoutError):
            client.get_wait(folder()).wait(timeout=0.2)
        # A request whose deadline passes before its reply is read leaves
        # that reply in flight; the client drops the connection with it.
        with pytest.raises(TimeoutError):
            client.request(StatsRequest(origin="t"), timeout=0)
        # The put the withdrawn wait would have consumed stays put.
        feeder = cluster.client_for("solo", origin="feeder")
        feeder.request(PutRequest(folder=folder(), payload=encode("x")))
        time.sleep(0.1)

        # The next request must get *its own* reply, not a stale one.
        reply = client.request(GetRequest(folder(), mode="skip"), timeout=5.0)
        assert reply.ok and reply.found and not reply.stats
        client.close()
        feeder.close()

    def test_client_usable_for_real_work_after_timeout(self, cluster):
        client = cluster.client_for("solo", origin="t2")
        with pytest.raises(TimeoutError):
            client.get_wait(folder(1)).wait(timeout=0.2)
        reply = client.request(
            PutRequest(folder=folder(2), payload=encode("v")), timeout=5.0
        )
        assert reply.ok
        reply = client.request(GetRequest(folder(2), mode="skip"), timeout=5.0)
        assert reply.ok and reply.found
        client.close()


class TestReconnect:
    def test_request_rides_through_server_restart(self):
        adf = system_default_adf(["solo"], app="rc2")
        with Cluster(adf, idle_timeout=0.5) as cluster:
            cluster.register()
            memo = cluster.memo_api("solo", "rc2")
            memo.put(Key(Symbol("a")), 1, wait=True)

            cluster.kill_host("solo")
            cluster.restart_host("solo")

            # The old connection is dead; the client reconnects and the
            # re-registered server serves the request.
            memo.put(Key(Symbol("b")), 2, wait=True)
            assert memo.get(Key(Symbol("b"))) == 2

    def test_reconnect_budget_exhausts_against_a_dead_server(self):
        adf = system_default_adf(["solo"], app="rc3")
        cluster = Cluster(adf).start()
        cluster.register()
        client = cluster.client_for("solo", origin="doomed")
        cluster.stop()
        from repro.errors import CommunicationError

        # TimeoutError is a legitimate outcome too: when stop() closes the
        # listener before the accept loop dequeued this client's connection,
        # no peer ever exists to close the server end, so the request dies
        # by timing out instead of by a connection error.
        with pytest.raises((CommunicationError, ConnectionError, TimeoutError)):
            client.request(StatsRequest(origin="doomed"), timeout=2.0)

    def test_lost_async_acks_surface_as_deferred_error(self):
        adf = system_default_adf(["solo"], app="rc4")
        with Cluster(adf) as cluster:
            cluster.register()
            client = cluster.client_for("solo", origin="p")
            client.post(PutRequest(folder=FolderName("rc4", Key(Symbol("x"))), payload=encode(1)))
            # Simulate the connection dying with the ack un-drained.
            with client._lock:
                client._discard_connection_locked()
            from repro.errors import MemoError

            with pytest.raises(MemoError, match="unacknowledged"):
                client.flush()
            client.close()


class TestSendFailure:
    def test_a_put_whose_send_fails_goes_out_once_on_the_reconnect(self):
        """The first send raises: the slot it opened is forgotten, so the
        reconnect neither resends the put nor leaves an id behind, and
        the put goes out once, on the fresh connection."""
        transport = InMemoryTransport(NetworkFabric(), "h")
        listener = transport.listen(Address("h", 1))
        client = MemoClient(transport, listener.address, origin="t")
        dead = listener.accept(timeout=2)
        conn = client._calls.conn

        def broken(_payload: bytes) -> None:
            conn.close()
            raise ConnectionClosedError("send on closed connection")

        conn.send = broken
        live = None
        try:
            future = client.put_future(PutRequest(folder=folder(), payload=encode(1)))
            settled: list = []
            future.add_done_callback(settled.append)
            live = listener.accept(timeout=2)
            msg, cid = recv_tagged(live, timeout=2)
            assert isinstance(msg, PutRequest)
            with pytest.raises(TimeoutError):
                recv_tagged(live, timeout=0.2)  # sent exactly once
            with pytest.raises(ConnectionClosedError):
                recv_tagged(dead, timeout=0.2)  # nothing reached the old one
            send_message(live, Reply(), corr_id=cid)
            assert future.result(timeout=5) is None
            assert settled == [future]
            assert client._calls._slots == {} and client._resend == []
        finally:
            client.close()
            if live is not None:
                live.close()
            listener.close()


class TestSynchronisationObjects:
    def test_an_acked_put_makes_no_event_and_one_lock(self, cluster, monkeypatch):
        """On the calling thread, a ``put(wait=True)`` builds no
        ``threading.Event`` and one lock: its future's gate."""
        memo = cluster.memo_api("solo", "rc")
        memo.put(Key(Symbol("warm")), 0, wait=True)
        caller = threading.get_ident()
        made: list = []

        def counted(name, real):
            def make(*args, **kwargs):
                if threading.get_ident() == caller:
                    made.append(name)
                return real(*args, **kwargs)

            return make

        monkeypatch.setattr(threading, "Lock", counted("Lock", threading.Lock))
        monkeypatch.setattr(threading, "Event", counted("Event", threading.Event))
        memo.put(Key(Symbol("k")), 1, wait=True)
        monkeypatch.undo()
        assert made == ["Lock"]
        assert memo.get(Key(Symbol("k"))) == 1
