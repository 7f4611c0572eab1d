"""Per-connection pipelining: out-of-order replies, per-folder FIFO, bursts.

The memo server used to serve each connection strictly request-by-request;
every request now carries a correlation id, runs where its handler row
says, and its reply comes back tagged, out of order.  These tests pin down
the load-bearing guarantees:

* a waiting request never stalls the requests pipelined behind it: a
  parked wait answers at once and resolves later by push;
* puts to the same folder are applied in submission order, pipelining or
  not — including across a burst-forward to the owning host;
* a lone put on an idle session is served on the reader, while a
  batch's puts are served in lane rounds.
"""

import math
import threading
import time

import pytest

from repro import Cluster, system_default_adf
from repro.core.keys import FolderName, Key, Symbol
from repro.network.protocol import (
    PUT_ACK,
    Acks,
    GetRequest,
    GetWaitRequest,
    MemoReady,
    PipelineBatch,
    PutRequest,
    Reply,
    recv_tagged,
    send_message,
)
from repro.network.codec import encode_message
from repro.servers.session import _LANE_BATCH_MAX
from repro.transferable.wire import decode as tlv_decode
from repro.transferable.wire import encode as tlv_encode


def folder(app, name, i=0):
    return FolderName(app, Key(Symbol(name), (i,)))


@pytest.fixture
def solo_cluster():
    adf = system_default_adf(["solo"], app="pipe")
    with Cluster(adf, idle_timeout=0.5) as cluster:
        cluster.register()
        yield cluster


def recv_replies(conn, count, timeout=10.0):
    """Collect *count* tagged replies, an Acks frame id by id, in arrival
    order."""
    out = []
    deadline = time.monotonic() + timeout
    while len(out) < count:
        msg, cid = recv_tagged(conn, timeout=max(0.01, deadline - time.monotonic()))
        if isinstance(msg, Acks):
            out.extend((PUT_ACK, icid) for icid in msg.cids)
        else:
            out.append((msg, cid))
    return out


class TestOutOfOrderReplies:
    """A wait on an empty folder is a request whose memo never comes until
    someone puts one: its push is withheld, and nothing behind it waits."""

    def test_blocking_get_does_not_stall_pipelined_put(self, solo_cluster):
        server = solo_cluster.servers["solo"]
        conn = solo_cluster.backend.transport_for("solo").connect(server.address)
        empty = folder("pipe", "empty")
        other = folder("pipe", "other")
        # cid 1: a wait that parks (folder is empty).  cid 2: a put to a
        # different folder, sent while the wait is still parked.
        send_message(conn, GetWaitRequest(empty, waiter=1), corr_id=1)
        send_message(
            conn, PutRequest(folder=other, payload=tlv_encode("v")), corr_id=2
        )
        replies = dict((cid, msg) for msg, cid in recv_replies(conn, 2))
        assert replies[1].ok and not replies[1].found  # parked
        assert replies[2].ok
        # Satisfy the parked wait; its push then arrives too.
        feeder = solo_cluster.client_for("solo", origin="feeder")
        feeder.request(PutRequest(folder=empty, payload=tlv_encode("x")))
        msg, cid = recv_tagged(conn, timeout=5.0)
        assert cid is None and isinstance(msg, MemoReady) and msg.waiter == 1
        assert tlv_decode(msg.payload) == "x"
        conn.close()
        feeder.close()

    def test_many_gets_block_in_parallel(self, solo_cluster):
        server = solo_cluster.servers["solo"]
        conn = solo_cluster.backend.transport_for("solo").connect(server.address)
        for i in range(4):
            send_message(
                conn,
                GetWaitRequest(folder("pipe", "par", i), waiter=10 + i),
                corr_id=10 + i,
            )
        parked = recv_replies(conn, 4)
        assert sorted(cid for _msg, cid in parked) == [10, 11, 12, 13]
        assert all(msg.ok and not msg.found for msg, _cid in parked)
        feeder = solo_cluster.client_for("solo", origin="feeder")
        # Release in reverse order: pushes must come back accordingly.
        for i in reversed(range(4)):
            feeder.request(
                PutRequest(folder=folder("pipe", "par", i), payload=tlv_encode(i))
            )
        pushes = recv_replies(conn, 4)
        got = dict((msg.waiter, tlv_decode(msg.payload)) for msg, _cid in pushes)
        assert got == {10: 0, 11: 1, 12: 2, 13: 3}
        assert [msg.waiter for msg, _cid in pushes] == [13, 12, 11, 10]
        conn.close()
        feeder.close()


class TestPerFolderFifo:
    def test_pipelined_puts_apply_in_submission_order(self, solo_cluster):
        memo = solo_cluster.memo_api("solo", "pipe")
        target = Key(Symbol("fifo"), (0,))
        memo.put_many((target, i) for i in range(100))
        memo.flush()
        fname = folder("pipe", "fifo")
        stores = solo_cluster.servers["solo"].local_folder_servers()
        order = None
        for fs in stores.values():
            snapshot = fs.snapshot_folders(lambda name: name == fname)
            for _name, memos, _delayed in snapshot:
                order = [tlv_decode(r.payload) for r in memos]
        assert order == list(range(100)), "per-folder arrival order broken"

    def test_put_delayed_then_trigger_keeps_order(self, solo_cluster):
        """A delayed park followed by its trigger must not reorder.

        If the pipelined path applied the trigger put before the
        put_delayed parked, the release would never fire.
        """
        memo = solo_cluster.memo_api("solo", "pipe")
        k1, k2 = Key(Symbol("park")), Key(Symbol("dest"))
        memo.put_delayed(k1, k2, "payload")
        memo.put(k1, "trigger")
        memo.flush()
        assert memo.get(k2) == "payload"


class TestInlineRule:
    """A request runs on the thread that read it when nothing waits behind
    it; a batch's lane requests are served in lane rounds."""

    @pytest.fixture
    def rounds(self, monkeypatch):
        """``(served on the reader?, round size)`` of every lane round."""
        from repro.servers.session import _ConnectionSession

        readers, seen = set(), []
        serve, serve_round = _ConnectionSession.serve, _ConnectionSession._serve_round

        def spy_serve(session):
            readers.add(threading.current_thread())
            serve(session)

        def spy_round(session, batch):
            seen.append((threading.current_thread() in readers, len(batch)))
            return serve_round(session, batch)

        monkeypatch.setattr(_ConnectionSession, "serve", spy_serve)
        monkeypatch.setattr(_ConnectionSession, "_serve_round", spy_round)
        return seen

    def test_lone_put_on_an_idle_session_is_served_on_the_reader(
        self, solo_cluster, rounds
    ):
        server = solo_cluster.servers["solo"]
        conn = solo_cluster.backend.transport_for("solo").connect(server.address)
        submitted = None
        for i in range(20):
            put = PutRequest(folder=folder("pipe", "lone", i), payload=tlv_encode(i))
            send_message(conn, put, corr_id=2 * i + 1)
            msg, cid = recv_tagged(conn, timeout=5.0)
            assert cid == 2 * i + 1 and msg.ok
            # A worker row (a read) on an idle session is served there too.
            send_message(conn, GetRequest(put.folder, "skip"), corr_id=2 * i + 2)
            msg, cid = recv_tagged(conn, timeout=5.0)
            assert cid == 2 * i + 2 and msg.found
            if submitted is None:  # the accept path's submit is behind us
                submitted = server.cache.stats.snapshot()["submitted"]
        assert rounds == [(True, 1)] * 20
        assert server.cache.stats.snapshot()["submitted"] == submitted
        conn.close()

    def test_batch_is_served_in_lane_rounds_in_order_per_folder(
        self, solo_cluster, rounds
    ):
        server = solo_cluster.servers["solo"]
        conn = solo_cluster.backend.transport_for("solo").connect(server.address)
        n = 300
        frames = tuple(
            encode_message(
                PutRequest(folder=folder("pipe", "round", i % 2), payload=tlv_encode(i)),
                corr_id=i + 1,
            )
            for i in range(n)
        )
        conn.send(encode_message(PipelineBatch(frames)))
        # Every put is accepted, in rounds of many: each round answers
        # with one Acks frame, listing its ids in the order it served them.
        acked = []
        while sum(map(len, acked)) < n:
            msg, cid = recv_tagged(conn, timeout=5.0)
            assert type(msg) is Acks and cid is None, msg
            acked.append(msg.cids)
        assert len(acked) == len(rounds)
        assert sorted(cid for cids in acked for cid in cids) == list(range(1, n + 1))
        for parity in (0, 1):
            ids = [cid for cids in acked for cid in cids if (cid - 1) % 2 == parity]
            assert ids == sorted(ids)
        assert not any(on_reader for on_reader, _size in rounds)
        assert sum(size for _on_reader, size in rounds) == n
        assert max(size for _on_reader, size in rounds) > 1
        for parity in (0, 1):
            name = folder("pipe", "round", parity)
            for fs in server.local_folder_servers().values():
                for _n, memos, _d in fs.snapshot_folders(lambda f: f == name):
                    assert [tlv_decode(r.payload) for r in memos] == list(
                        range(parity, n, 2)
                    )
        conn.close()

    @pytest.mark.parametrize("rf", [1, 2])
    def test_acked_puts_take_no_hand_off_on_any_host(self, rf, monkeypatch):
        """Every hop of an acked put on a 3-host TCP cluster — the client's
        request, a forward to the owner, a replica copy — is served on the
        reader of the connection that carried it, and the reply to every
        exchange with a peer is read by the thread that sent it."""
        from repro.network.calls import Calls
        from repro.servers.link import PeerLink

        calling = threading.local()
        read_by_caller: list = []
        exchange, dispatch = PeerLink._exchange, Calls.dispatch

        def spy_exchange(link, *args):
            calling.on = True
            try:
                return exchange(link, *args)
            finally:
                calling.on = False

        def spy_dispatch(calls, msg, cid):
            if isinstance(calls.role, PeerLink):
                read_by_caller.append(getattr(calling, "on", False))
            return dispatch(calls, msg, cid)

        monkeypatch.setattr(PeerLink, "_exchange", spy_exchange)
        monkeypatch.setattr(Calls, "dispatch", spy_dispatch)
        adf = system_default_adf(["h0", "h1", "h2"], app="pipe", replication_factor=rf)
        with Cluster(adf, transport_kind="tcp", heartbeat_interval=0.5) as cluster:
            cluster.register()
            memo = cluster.memo_api("h0", "pipe")
            memo.put(Key(Symbol("warm")), 0, wait=True)

            def submitted():
                return {
                    host: server.cache.stats.snapshot()["submitted"]
                    for host, server in cluster.servers.items()
                }

            before = submitted()
            read_by_caller.clear()
            puts = 2000
            for i in range(puts):
                memo.put(Key(Symbol("acked"), (i,)), i, wait=True)
            after = submitted()
        per_put = {host: (after[host] - before[host]) / puts for host in before}
        assert all(rate <= 0.1 for rate in per_put.values()), per_put
        # About two puts in three are forwarded (and at rf 2 copied too).
        assert len(read_by_caller) > puts // 2
        assert read_by_caller.count(False) <= len(read_by_caller) // 100

    @pytest.mark.parametrize("rf", [1, 2])
    @pytest.mark.parametrize("read", ["get_skip", "get"])
    def test_forwarded_reads_take_no_hand_off_at_the_owner(self, read, rf):
        """A ``get_skip`` forwarded to its folder's owner, and a ``get``
        whose wait is relayed there, are served on the reader of the
        owner's session with the forwarding peer: the owner makes no
        thread-cache submit for them."""
        adf = system_default_adf(["h0", "h1", "h2"], app="pipe", replication_factor=rf)
        with Cluster(adf, transport_kind="tcp", heartbeat_interval=0.5) as cluster:
            cluster.register()
            chain = cluster.servers["h0"].registration("pipe").placement.replica_chain
            candidates = (Key(Symbol("forwarded"), (i,)) for i in range(4000))
            keys = [k for k in candidates if chain(FolderName("pipe", k))[0][1] == "h1"]
            keys = keys[:1000]
            memo = cluster.memo_api("h0", "pipe")
            for i, k in enumerate(keys):
                memo.put(k, i, wait=True)
            owner = cluster.servers["h1"]
            before = owner.cache.stats.snapshot()["submitted"]
            for i, k in enumerate(keys):
                assert getattr(memo, read)(k) == i
            submitted = owner.cache.stats.snapshot()["submitted"] - before
        reads = len(keys)
        assert reads == 1000
        assert submitted <= 0.001 * reads, submitted


class TestBurstForwarding:
    def test_remote_puts_ride_bursts_and_survive_roundtrip(self):
        adf = system_default_adf(["a", "b"], app="pipe")
        with Cluster(adf, idle_timeout=0.5) as cluster:
            cluster.register()
            memo = cluster.memo_api("a", "pipe")
            n = 300
            memo.put_many((Key(Symbol("burst"), (i,)), {"i": i}) for i in range(n))
            memo.flush()
            # Every memo retrievable with intact payloads, wherever it landed.
            for i in range(n):
                assert memo.get(Key(Symbol("burst"), (i,))) == {"i": i}
            # And the remote side actually served pipelined traffic.
            stats_b = cluster.servers["b"].stats.snapshot()
            assert stats_b["pipelined_requests"] > 0
            assert stats_b["forwards_in"] > 0

    def test_a_put_many_reaches_the_owner_as_bursts(self):
        """A lone put is forwarded on its own, but a client's pipelined
        puts still reach their owner in bursts: at least one per lane
        round's worth of remote puts.  A round takes up to
        ``_LANE_BATCH_MAX`` requests — more than a client's 64-frame batch
        when the session reader has queued the next batch before the round
        starts — so that, not 64, is what the code guarantees."""
        adf = system_default_adf(["a", "b"], app="pipe")
        with Cluster(adf, idle_timeout=0.5) as cluster:
            cluster.register()
            memo = cluster.memo_api("a", "pipe")
            memo.put(Key(Symbol("warm")), 0, wait=True)
            owner = cluster.servers["a"].registration("pipe").placement.replica_chain
            keys = [Key(Symbol("many"), (i,)) for i in range(256)]
            remote = sum(owner(FolderName("pipe", k))[0][1] == "b" for k in keys)
            b = cluster.servers["b"]
            before = b.stats.snapshot()["pipelined_batches"]
            memo.put_many((k, i) for i, k in enumerate(keys))
            memo.flush()
            bursts = b.stats.snapshot()["pipelined_batches"] - before
        assert remote >= 64
        assert bursts >= math.ceil(remote / _LANE_BATCH_MAX), (bursts, remote)

    def test_burst_forward_preserves_same_folder_order(self):
        adf = system_default_adf(["a", "b"], app="pipe")
        with Cluster(adf, idle_timeout=0.5) as cluster:
            cluster.register()
            memo = cluster.memo_api("a", "pipe")
            # Find a folder owned by the *remote* host b.
            reg = cluster.servers["a"].registration("pipe")
            key = None
            for i in range(500):
                candidate = Key(Symbol("remote"), (i,))
                chain = reg.placement.replica_chain(FolderName("pipe", candidate))
                if chain[0][1] == "b":
                    key = candidate
                    break
            assert key is not None
            memo.put_many((key, i) for i in range(80))
            memo.flush()
            fname = FolderName("pipe", key)
            order = None
            for fs in cluster.servers["b"].local_folder_servers().values():
                for _n, memos, _d in fs.snapshot_folders(lambda n: n == fname):
                    order = [tlv_decode(r.payload) for r in memos]
            assert order == list(range(80))


    def test_one_connection_overlaps_injected_forward_rtts(self):
        """On 2 ms links strict service would pay one forward round trip
        per remote put; the pipelined lane bursts them, so the batch costs
        far less than the sum of the injected delays alone."""
        latency, n = 0.002, 150
        adf = system_default_adf(["near", "far"], app="pipe")
        with Cluster(adf, idle_timeout=5.0) as cluster:
            cluster.fabric.set_latency("near", "far", latency)
            cluster.register()
            reg = cluster.servers["near"].registration("pipe")
            remote_keys = []
            i = 0
            while len(remote_keys) < n:
                key = Key(Symbol("rtt"), (i,))
                if reg.placement.replica_chain(FolderName("pipe", key))[0][1] == "far":
                    remote_keys.append(key)
                i += 1
            memo = cluster.memo_api("near", "pipe")
            memo.put(remote_keys[0], "warm", wait=True)

            start = time.perf_counter()
            memo.put_many((k, 1) for k in remote_keys)
            memo.flush()
            elapsed = time.perf_counter() - start

        serial_floor = n * 2 * latency  # injected delay of per-put forwards
        assert elapsed < serial_floor / 2, (elapsed, serial_floor)


class TestPipelineWithFailover:
    def test_pipelined_puts_interleaved_with_kill_host(self):
        """A liveness flip mid-stream must not wedge or corrupt the client.

        The kill bumps the placement cache (via the failure detector's
        transition hook) while put lanes are busy routing; the client's
        accounting must stay exact: every put is either acknowledged or
        counted in the single deferred error.
        """
        adf = system_default_adf(["a", "b", "c"], app="pipe", replication_factor=2)
        with Cluster(
            adf, idle_timeout=1.0, heartbeat_interval=0.05, failure_threshold=2
        ) as cluster:
            cluster.register()
            memo = cluster.memo_api("a", "pipe")
            epoch_before = cluster.servers["a"].placement_cache.epoch
            stop = threading.Event()

            def killer():
                time.sleep(0.05)
                cluster.kill_host("b")
                stop.set()

            thread = threading.Thread(target=killer)
            thread.start()
            sent = 0
            from repro.errors import MemoError

            lost = 0
            for round_no in range(30):
                memo.put_many(
                    (Key(Symbol(f"r{round_no}"), (i,)), i) for i in range(40)
                )
                sent += 40
                try:
                    memo.flush()
                except MemoError as exc:
                    assert "unacknowledged" in str(exc) or "asynchronous" in str(exc)
                    lost += 1
                if stop.is_set() and round_no > 20:
                    break
            thread.join()
            # The client must still be fully usable afterwards.
            memo.put(Key(Symbol("sentinel")), "ok", wait=True)
            assert memo.get(Key(Symbol("sentinel"))) == "ok"
            # The liveness flip invalidated cached routes.
            assert cluster.servers["a"].placement_cache.epoch > epoch_before
            assert memo.client.pending_acks == 0


class TestSessionShutdownDrain:
    def test_queued_requests_get_shutdown_replies_not_silence(self):
        """Stopping the server answers queued pipelined work, never drops it."""
        adf = system_default_adf(["solo"], app="pipe")
        cluster = Cluster(adf, idle_timeout=1.0).start()
        cluster.register()
        server = cluster.servers["solo"]
        conn = cluster.backend.transport_for("solo").connect(server.address)
        n = 200
        frames = tuple(
            encode_message(
                PutRequest(
                    folder=folder("pipe", "drain", i), payload=tlv_encode(i)
                ),
                corr_id=i + 1,
            )
            for i in range(n)
        )
        conn.send(encode_message(PipelineBatch(frames)))
        cluster.stop()
        # Every id resolves: an ok ack (applied before the stop) or a
        # shutdown error (drained) — but never silence with an open peer.
        seen = {}
        try:
            while len(seen) < n:
                msg, cid = recv_tagged(conn, timeout=2.0)
                if isinstance(msg, Acks):
                    seen.update(dict.fromkeys(msg.cids, PUT_ACK))
                else:
                    seen[cid] = msg
        except Exception:
            pass  # connection closing mid-drain loses the tail, that's fine
        for cid, reply in seen.items():
            assert isinstance(reply, Reply)
            assert reply.ok or reply.error.startswith("shutdown:")
