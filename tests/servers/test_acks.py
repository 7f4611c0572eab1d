"""A lane round's put acks travel as one ``Acks`` frame.

A server answering a set of more than one request sends the ids of the
puts it accepted in one id-less :class:`~repro.network.protocol.Acks`
frame, and every other reply as a correlated ``Reply`` of its own.  Each
receiver reads an id in it as the shared ``PUT_ACK``: the client on every
read path (a drain, a future's pump, a synchronous request whose own id
rides the frame), a peer link for each member of a burst.  A session
never serves one: reading it closes the connection.
"""

from __future__ import annotations

import threading

import pytest

from repro.adf.defaults import system_default_adf
from repro.core.keys import FolderName, Key, Symbol
from repro.errors import ConnectionClosedError, MemoError
from repro.network.codec import decode_tagged, encode_message
from repro.network.connection import Address
from repro.network.protocol import (
    PUT_ACK,
    Acks,
    PipelineBatch,
    PutRequest,
    Reply,
    recv_tagged,
    send_message,
)
from repro.network.transport import InMemoryTransport, NetworkFabric
from repro.runtime.client import MemoClient
from repro.runtime.cluster import Cluster
from repro.servers.link import PeerLink
from repro.servers.router import Router
from repro.transferable.wire import encode

APP = "acks"


def put(i: int, app: str = APP) -> PutRequest:
    return PutRequest(folder=FolderName(app, Key(Symbol("k"), (i,))), payload=encode(i))


def stored(cluster) -> int:
    return sum(
        fs.memo_count()
        for server in cluster.servers.values()
        for fs in server.local_folder_servers().values()
    )


@pytest.fixture
def scripted():
    """A client whose server is the test: ``(client, server end)``."""
    transport = InMemoryTransport(NetworkFabric(), "h")
    listener = transport.listen(Address("h", 1))
    client = MemoClient(transport, listener.address, origin="t")
    server = listener.accept(timeout=2)
    yield client, server
    server.close()
    client.close()
    listener.close()


def read_ids(server, n: int) -> list[int]:
    """The correlation ids of the next *n* requests, a batch's one by one."""
    ids: list[int] = []
    while len(ids) < n:
        msg, cid = recv_tagged(server, timeout=2)
        if isinstance(msg, PipelineBatch):
            ids += [decode_tagged(frame)[1] for frame in msg.frames]
        else:
            ids.append(cid)
    return ids


class TestClient:
    def test_posts_futures_and_a_request_resolve_from_one_frame(self, scripted):
        """The request's own id rides an Acks frame between a posted
        put's and an ack future's: all three resolve, nothing is left."""
        client, server = scripted
        client.post(put(1))
        future = client.put_future(put(2))
        answered = threading.Event()

        def serve() -> None:
            posted, awaited, requested = read_ids(server, 3)
            send_message(server, Acks((posted, requested, awaited)))
            answered.set()

        thread = threading.Thread(target=serve)
        thread.start()
        reply = client.request(put(3), timeout=5, drain=False)
        thread.join(5)
        assert answered.is_set()
        assert reply is PUT_ACK
        assert future.result(timeout=0) is None
        assert client.pending_acks == 0
        client.flush()  # nothing owed, nothing raised

    def test_a_put_many_drains_on_acks_frames(self, scripted):
        client, server = scripted
        client.put_many(put(i) for i in range(100))
        ids = read_ids(server, 100)
        send_message(server, Acks(tuple(ids[:60])))
        send_message(server, Acks(tuple(reversed(ids[60:]))))
        client.flush()
        assert client.pending_acks == 0

    def test_a_connection_lost_mid_round_counts_the_rest_lost(self, scripted):
        client, server = scripted
        client.put_many(put(i) for i in range(10))
        ids = read_ids(server, 10)
        send_message(server, Acks(tuple(ids[:4])))
        server.close()
        with pytest.raises(MemoError, match="6 unacknowledged"):
            client.flush()
        client.flush()  # raised once: the books are clean
        assert client.pending_acks == 0

    def test_ids_not_owed_are_skipped(self, scripted):
        """An Acks frame naming ids nothing waits for (a previous
        connection's) changes nothing."""
        client, server = scripted
        client.post(put(1))
        (mine,) = read_ids(server, 1)
        send_message(server, Acks((mine + 1000, mine, mine + 1001)))
        client.flush()
        assert client.pending_acks == 0


@pytest.fixture
def solo():
    adf = system_default_adf(["solo"], app=APP)
    with Cluster(adf, idle_timeout=0.5) as cluster:
        cluster.register()
        yield cluster


def count_acks_frames(monkeypatch) -> list[int]:
    """Patch the client's frame router; returns the sizes of the Acks
    frames it routes."""
    sizes: list[int] = []
    route = MemoClient._route_frame_locked

    def spy(client, msg, cid):
        if type(msg) is Acks:
            sizes.append(len(msg.cids))
        return route(client, msg, cid)

    monkeypatch.setattr(MemoClient, "_route_frame_locked", spy)
    return sizes


class TestServer:
    def test_a_round_with_a_failing_put_raises_once_and_acks_the_rest(
        self, solo, monkeypatch
    ):
        sizes = count_acks_frames(monkeypatch)
        memo = solo.memo_api("solo", APP)
        msgs = [put(i) for i in range(40)]
        msgs[17] = put(17, app="unregistered")
        memo.client.put_many(msgs)
        with pytest.raises(MemoError, match="NotRegisteredError") as info:
            memo.flush()
        assert "unacknowledged" not in str(info.value)
        memo.flush()  # the error surfaced exactly once
        assert sum(sizes) == 39 and max(sizes) > 1
        assert stored(solo) == 39
        memo.close()

    def test_a_lone_put_keeps_its_reply(self, solo, monkeypatch):
        sizes = count_acks_frames(monkeypatch)
        memo = solo.memo_api("solo", APP)
        for i in range(5):
            memo.put(Key(Symbol("lone"), (i,)), i, wait=True)
        assert sizes == []
        memo.close()

    @pytest.mark.parametrize("carried", [False, True])
    def test_a_session_that_reads_acks_closes(self, solo, carried):
        backend = solo.backend
        conn = backend.transport_for("solo").connect(backend.address_of("solo"))
        frame = encode_message(Acks((1, 2)))
        if carried:
            frame = encode_message(PipelineBatch((encode_message(put(0), 1), frame)))
        conn.send(frame)
        with pytest.raises(ConnectionClosedError):
            while True:
                conn.recv(timeout=5.0)
        conn.close()


def keys_owned_by(cluster, host: str, n: int) -> list[Key]:
    placement = cluster.servers["h0"].registration(APP).placement
    keys = []
    i = 0
    while len(keys) < n:
        key = Key(Symbol("o"), (i,))
        if placement.replica_chain(FolderName(APP, key))[0][1] == host:
            keys.append(key)
        i += 1
    return keys


class TestLink:
    def test_a_burst_is_answered_with_the_put_ack_itself(self, monkeypatch):
        frames: list = []
        take = PeerLink._take

        def spy(link, msg, cid):
            if link.host == "h1":
                frames.append(type(msg))
            return take(link, msg, cid)

        monkeypatch.setattr(PeerLink, "_take", spy)
        adf = system_default_adf(["h0", "h1"], app=APP)
        # A monitor this slow sends no heartbeat (whose reply is a Reply).
        with Cluster(adf, heartbeat_interval=30.0) as cluster:
            cluster.register()
            keys = keys_owned_by(cluster, "h1", 20)
            entries = [
                (PutRequest(folder=FolderName(APP, key), payload=encode(i)), None)
                for i, key in enumerate(keys)
            ]
            results = cluster.servers["h0"].router.forward_burst(APP, "h1", entries)
            assert all(result is PUT_ACK for result in results)
            assert Acks in frames and Reply not in frames
            assert stored(cluster) == 20

    def test_a_replica_copy_burst_counts_its_acked_copies(self, monkeypatch):
        bursts: list = []
        forward_burst = Router.forward_burst

        def spy(router, app, owner, entries):
            results = forward_burst(router, app, owner, entries)
            bursts.append(results)
            return results

        monkeypatch.setattr(Router, "forward_burst", spy)
        adf = system_default_adf(["h0", "h1"], app=APP, replication_factor=2)
        with Cluster(adf) as cluster:
            cluster.register()
            keys = keys_owned_by(cluster, "h0", 60)
            h0 = cluster.servers["h0"]
            before = h0.stats.snapshot()["replications_out"]
            with cluster.memo_api("h0", APP) as memo:
                memo.put_many((key, i) for i, key in enumerate(keys))
                memo.flush()
            copies = [r for results in bursts if len(results) > 1 for r in results]
            assert copies and all(r is PUT_ACK for r in copies)
            assert h0.stats.snapshot()["replications_out"] - before == 60
            replicas = sum(
                fs.memo_count()
                for fs in cluster.servers["h1"].local_replica_servers().values()
            )
            assert replicas == 60
