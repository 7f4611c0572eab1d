"""MemoClient connection hygiene: timeout desync and reconnect-on-failover.

The timeout bug this guards against: a ``TimeoutError`` inside
``request`` used to leave the reply in flight on the socket, so the *next*
request would read the stale reply — every later request/reply pair off by
one.  The client now discards the connection on timeout.
"""

import time

import pytest

from repro import Cluster, system_default_adf
from repro.core.keys import FolderName, Key, Symbol
from repro.network.protocol import GetRequest, PutRequest, StatsRequest
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
