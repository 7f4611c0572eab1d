"""Unit tests for the memo server: registration, routing, forwarding."""

import pytest

from repro.core.keys import FolderName, Key, Symbol
from repro.network import codec
from repro.network import protocol as p
from repro.network.protocol import StatsRequest
from repro.runtime.client import MemoClient
from repro.servers.memo_server import HANDLERS


def key(i=0):
    return Key(Symbol("k"), (i,))


class TestLocalDispatch:
    def test_put_get_roundtrip(self, one_host_cluster):
        memo = one_host_cluster.memo_api("solo", "test")
        memo.put(key(), "hello", wait=True)
        assert memo.get(key()) == "hello"

    def test_unregistered_app_rejected(self, one_host_cluster):
        memo = one_host_cluster.memo_api("solo", "ghost-app")
        from repro.errors import MemoError

        with pytest.raises(MemoError, match="not registered"):
            memo.get_skip(key())

    def test_stats_reply(self, one_host_cluster):
        memo = one_host_cluster.memo_api("solo", "test")
        memo.put(key(), 1, wait=True)
        stats = one_host_cluster.stats()["solo"]
        assert stats["memo.requests"] >= 1
        assert any(k.endswith(".puts") and v >= 1 for k, v in stats.items())


class TestForwarding:
    def test_cross_host_traffic(self, two_host_cluster):
        """Folders owned by beta are reachable from alpha (Figure 2)."""
        memo_a = two_host_cluster.memo_api("alpha", "test", "pa")
        memo_b = two_host_cluster.memo_api("beta", "test", "pb")
        # Spray enough folders that both hosts own some.
        for i in range(40):
            memo_a.put(key(i), i, wait=True)
        for i in range(40):
            assert memo_b.get(key(i)) == i
        stats = two_host_cluster.stats()
        forwards = sum(s["memo.forwards_out"] for s in stats.values())
        assert forwards > 0

    def test_placement_spreads_over_hosts(self, two_host_cluster):
        memo = two_host_cluster.memo_api("alpha", "test")
        for i in range(60):
            memo.put(key(i), i)
        memo.flush()
        stats = two_host_cluster.stats()
        puts_per_host = {
            host: sum(v for k, v in s.items() if k.endswith(".puts"))
            for host, s in stats.items()
        }
        assert all(p > 0 for p in puts_per_host.values()), puts_per_host

    def test_blocking_get_across_hosts(self, two_host_cluster):
        import threading
        import time

        memo_a = two_host_cluster.memo_api("alpha", "test", "pa")
        memo_b = two_host_cluster.memo_api("beta", "test", "pb")
        results = []

        def getter():
            # Whichever host owns folder key(7), this blocks until the put.
            results.append(memo_b.get(key(7)))

        t = threading.Thread(target=getter)
        t.start()
        time.sleep(0.1)
        assert results == []
        memo_a.put(key(7), "released")
        t.join(timeout=5)
        assert results == ["released"]

    def test_get_alt_spanning_hosts(self, two_host_cluster):
        memo = two_host_cluster.memo_api("alpha", "test")
        keys = [key(i) for i in range(20)]
        memo.put(keys[13], "somewhere", wait=True)
        found_key, value = memo.get_alt(keys, timeout=5)
        assert value == "somewhere"
        assert found_key == keys[13]


class TestMultiApp:
    def test_apps_share_servers_but_not_data(self, two_host_cluster):
        from repro import system_default_adf

        adf2 = system_default_adf(["alpha", "beta"], app="other")
        two_host_cluster.register(adf2)

        memo1 = two_host_cluster.memo_api("alpha", "test")
        memo2 = two_host_cluster.memo_api("alpha", "other")
        memo1.put(key(), "from-test", wait=True)
        memo2.put(key(), "from-other", wait=True)
        assert memo2.get(key()) == "from-other"
        assert memo1.get(key()) == "from-test"

    def test_same_app_name_shares_data(self, two_host_cluster):
        """'By using common application names, different programs will be
        able to communicate' — distribution in time and space."""
        producer = two_host_cluster.memo_api("alpha", "test", "producer")
        consumer = two_host_cluster.memo_api("beta", "test", "consumer")
        producer.put(key(3), "shared", wait=True)
        producer.client.close()  # producer long gone (distributed in time)
        assert consumer.get(key(3)) == "shared"


class TestAsyncPut:
    def test_put_returns_before_ack(self, one_host_cluster):
        memo = one_host_cluster.memo_api("solo", "test")
        memo.put(key(), 1)
        assert memo.client.pending_acks == 1
        memo.flush()
        assert memo.client.pending_acks == 0

    def test_async_put_error_surfaces_on_next_call(self, one_host_cluster):
        from repro.errors import MemoError

        client = one_host_cluster.client_for("solo")
        from repro.core.api import Memo

        memo = Memo(client, "never-registered")
        memo.put(key(), 1)  # silently queued; server will reject
        with pytest.raises(MemoError, match="asynchronous put failed"):
            memo.put(key(), 2)
            memo.flush()

    def test_read_your_writes_ordering(self, one_host_cluster):
        memo = one_host_cluster.memo_api("solo", "test")
        for i in range(20):
            memo.put(key(i), i)  # async
        for i in range(20):
            assert memo.get(key(i)) == i  # drained before each get


class TestNoBroadcast:
    def test_fabric_broadcast_count_zero(self, two_host_cluster):
        memo = two_host_cluster.memo_api("alpha", "test")
        for i in range(30):
            memo.put(key(i), i)
        memo.flush()
        assert two_host_cluster.fabric.broadcast_count == 0


class TestStop:
    def test_blocked_get_gets_error_on_stop(self, two_host_cluster):
        import threading
        import time

        from repro.errors import MemoError

        memo = two_host_cluster.memo_api("alpha", "test")
        outcome = []

        def getter():
            try:
                memo.get(key(999))
            except (MemoError, Exception) as exc:  # noqa: BLE001
                outcome.append(type(exc).__name__)

        t = threading.Thread(target=getter)
        t.start()
        time.sleep(0.1)
        two_host_cluster.stop()
        t.join(timeout=5)
        assert outcome, "blocked getter was not woken by shutdown"


class TestRetiredMessages:
    def test_retired_tag_9_frame_closes_only_its_own_connection(
        self, one_host_cluster
    ):
        """An old peer's full anti-entropy pull (tag 9) is undecodable now,
        and a request without a correlation id is a protocol violation:
        the session that received either ends, unserved, and the server
        keeps serving — over both transports."""
        from repro import NIL, Cluster, system_default_adf
        from repro.errors import ConnectionClosedError
        from repro.network import codec as c

        tag_9 = bytearray(b"DC\x01\x09")
        for field in ("test", "ghost", ""):  # app, requester, origin
            c._w_str(tag_9, field)
        idless = p.encode_message(p.PutRequest(FolderName("test", key(2)), b"x", "t"))
        adf = system_default_adf(["solo"], app="test")
        with Cluster(adf, idle_timeout=0.5, transport_kind="tcp") as over_tcp:
            over_tcp.register()
            for cluster in (one_host_cluster, over_tcp):
                backend = cluster.backend
                bystander = cluster.memo_api("solo", "test")
                bystander.put(key(), "before", wait=True)
                for frame in (bytes(tag_9), idless):
                    conn = backend.transport_for("solo").connect(
                        backend.address_of("solo")
                    )
                    conn.send(frame)
                    with pytest.raises(ConnectionClosedError):
                        conn.recv(timeout=5.0)
                    conn.close()

                assert bystander.get(key()) == "before"  # its connection is untouched
                assert bystander.get_skip(key(2)) is NIL  # the id-less put was not served
                bystander.put(key(1), "after", wait=True)
                assert cluster.memo_api("solo", "test").get(key(1)) == "after"


    def test_tlv_control_frame_closes_its_connection(self, one_host_cluster):
        """A server decodes compact frames only.  A protocol message spelt
        as a TLV struct ends the session that sent it, unserved, whether
        it comes as a frame, as an Envelope member or as a PipelineBatch
        member — and the server keeps serving."""
        from repro import NIL
        from repro.errors import ConnectionClosedError
        from repro.transferable.registry import TransferableRegistry
        from repro.transferable.wire import encode as tlv_encode

        structs = TransferableRegistry()  # under the names seed-era peers used
        for cls in (Symbol, Key, FolderName):
            structs.register_struct(cls, name=f"dmemo.{cls.__name__}")
        structs.register_struct(p.PutRequest, name="dmemo.proto.PutRequest")
        tlv_put = tlv_encode(
            p.PutRequest(FolderName("test", key(3)), b"x", "t"), registry=structs
        )
        frames = (
            tlv_put,
            p.encode_message(p.Envelope("test", "solo", (tlv_put,))),
            p.encode_message(p.PipelineBatch((tlv_put,))),
        )
        backend = one_host_cluster.backend
        bystander = one_host_cluster.memo_api("solo", "test")
        bystander.put(key(), "before", wait=True)
        for frame in frames:
            conn = backend.transport_for("solo").connect(backend.address_of("solo"))
            conn.send(frame)
            with pytest.raises(ConnectionClosedError):
                conn.recv(timeout=5.0)
            conn.close()
        assert bystander.get_skip(key(3)) is NIL  # no spelling was served
        assert bystander.get(key()) == "before"


#: Replies and pushes: what a server sends, never serves.
NON_REQUESTS = {p.Reply, p.Acks, p.MemoReady, p.WaitCancelled}
#: What carries requests rather than being one.
CARRIERS = {p.PipelineBatch, p.Envelope}
#: The codec's own registry, narrowed to the protocol's messages (it also
#: holds the WAL record tags).
PROTOCOL = [
    spec.cls
    for spec in codec._SPECS_BY_TAG.values()
    if spec.cls.__module__ == p.__name__
]


def samples(folder, other):
    """One instance of every protocol message, aimed at *folder*."""
    put = p.PutRequest(folder, b"x", "t")
    frame = p.encode_message(put, 7)
    return {
        p.PutRequest: put,
        p.PutDelayedRequest: p.PutDelayedRequest(folder, other, b"d", "t"),
        p.GetRequest: p.GetRequest(folder, "skip", "t"),
        p.GetAltSkipRequest: p.GetAltSkipRequest((folder,), "t"),
        p.GetWaitRequest: p.GetWaitRequest(folder, "copy", 1, "t"),
        p.CancelWaitRequest: p.CancelWaitRequest(1, "t"),
        p.ReplicatePut: p.ReplicatePut("test", folder, b"r", "t", False, None, "", 0),
        p.RegisterRequest: p.RegisterRequest("other", {}, {}, (), 1),
        p.MigrateRequest: p.MigrateRequest("test", "t"),
        p.Heartbeat: p.Heartbeat("s1", "t"),
        p.DeltaSyncPull: p.DeltaSyncPull("test", "s1", {}, {}, {}, "t"),
        p.StatsRequest: p.StatsRequest("t"),
        p.ShutdownRequest: p.ShutdownRequest("t"),
        p.ResyncRequest: p.ResyncRequest(("test",), "t"),
        p.PipelineBatch: p.PipelineBatch((frame,)),
        p.Envelope: p.Envelope("test", "s2", (frame,), ()),
        p.Reply: p.Reply(),
        p.Acks: p.Acks((1, 2)),
        p.MemoReady: p.MemoReady(1, folder, b"x"),
        p.WaitCancelled: p.WaitCancelled(1, "r"),
    }


class TestHandlerTable:
    """``HANDLERS`` is the server's only dispatch: a protocol tag added
    without a row fails here instead of falling through to ``unhandled
    message`` in production."""

    def test_every_protocol_message_has_a_row_or_is_not_a_request(self):
        for cls in PROTOCOL:
            assert (cls in HANDLERS) != (cls in NON_REQUESTS), cls.__name__
        assert set(HANDLERS) | NON_REQUESTS == set(PROTOCOL)

    def test_envelope_flag_is_what_a_relay_hop_serves(self, star_cluster):
        """From s1, aimed at s2: the hub relays every envelope member; s2
        serves exactly the classes whose row says they may ride one.  (A
        carrier is no member: it closes the session, see
        :class:`TestEnvelopeMembers`.)"""
        reg = star_cluster.servers["s1"].registration("test")
        owned = [
            name
            for name in (FolderName("test", key(i)) for i in range(400))
            if reg.placement.place_host(name)[1] == "s2"
        ]
        by_class = samples(owned[0], owned[1])
        assert set(by_class) == set(PROTOCOL), "a protocol tag has no sample here"
        backend = star_cluster.backend
        conn = backend.transport_for("s1").connect(backend.address_of("s1"))
        relayed_before = star_cluster.stats()["hub"]["memo.forwards_relayed"]
        members = {cls: msg for cls, msg in by_class.items() if cls not in CARRIERS}
        for cid, (cls, msg) in enumerate(members.items(), start=1):
            envelope = p.Envelope("test", "s2", (p.encode_message(msg, cid),), ())
            p.send_message(conn, envelope)
            reply, got = p.recv_tagged(conn, timeout=10)
            while got is None:  # a push: the relayed wait's memo arriving
                reply, got = p.recv_tagged(conn, timeout=10)
            assert got == cid, cls.__name__
            if cls in HANDLERS and HANDLERS[cls].enveloped:
                assert reply.ok, (cls.__name__, reply.error)
            else:
                assert f"envelope carried unexpected {cls.__name__}" in reply.error
        conn.close()
        relayed = star_cluster.stats()["hub"]["memo.forwards_relayed"] - relayed_before
        assert relayed == len(members)
        assert backend.is_live("s2")  # the enveloped ShutdownRequest was refused


class TestEnvelopeMembers:
    """One refusal rule for what a peer's envelope carries: a member that
    may not ride one is answered with a ``ProtocolError`` and the session
    serves on; a member that breaks the frame rules ends the session."""

    @staticmethod
    def connect(cluster):
        backend = cluster.backend
        return backend.transport_for("solo").connect(backend.address_of("solo"))

    def test_a_member_that_may_not_ride_is_refused_and_the_session_stays(
        self, one_host_cluster
    ):
        put = p.PutRequest(FolderName("test", key(5)), b"x", "t")
        conn = self.connect(one_host_cluster)
        try:
            for cid, member in enumerate((p.StatsRequest("t"), put), start=1):
                frame = p.encode_message(member, cid)
                p.send_message(conn, p.Envelope("test", "solo", (frame,)))
                reply, got = p.recv_tagged(conn, timeout=5.0)
                assert got == cid
                if member is put:
                    assert reply.ok  # served on the same session
                else:
                    assert not reply.ok
                    assert "envelope carried unexpected StatsRequest" in reply.error
        finally:
            conn.close()

    def test_a_member_breaking_the_frame_rules_closes_the_session(
        self, one_host_cluster
    ):
        from repro import NIL
        from repro.errors import ConnectionClosedError

        put = p.PutRequest(FolderName("test", key(6)), b"x", "t")
        nested = (p.encode_message(put, 3),)
        members = {
            "undecodable": b"DC\x02\xee\x01",
            "id-less": p.encode_message(put),
            "nested envelope": p.encode_message(p.Envelope("test", "solo", nested), 2),
            "nested batch": p.encode_message(p.PipelineBatch(nested)),
        }
        bystander = one_host_cluster.memo_api("solo", "test")
        bystander.put(key(), "before", wait=True)
        for what, member in members.items():
            conn = self.connect(one_host_cluster)
            conn.send(p.encode_message(p.Envelope("test", "solo", (member,))))
            with pytest.raises(ConnectionClosedError):
                conn.recv(timeout=5.0)
                pytest.fail(f"an envelope with an {what} member was answered")
            conn.close()
        assert bystander.get_skip(key(6)) is NIL  # no member was served
        assert bystander.get(key()) == "before"
