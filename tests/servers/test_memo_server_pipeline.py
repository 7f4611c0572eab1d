"""Per-connection pipelining: out-of-order replies, per-folder FIFO, bursts.

The memo server used to serve each connection strictly request-by-request;
correlated requests now dispatch onto a per-connection worker set and the
replies come back tagged, out of order.  These tests pin down the three
load-bearing guarantees:

* a blocked request no longer stalls the requests pipelined behind it
  (replies genuinely reorder);
* puts to the same folder are applied in submission order, pipelining or
  not — including across a burst-forward to the owning host;
* id-less (legacy) frames still get strict request/reply service, ordered
  after the pipelined puts that preceded them.
"""

import threading
import time

import pytest

from repro import Cluster, system_default_adf
from repro.core.keys import FolderName, Key, Symbol
from repro.network.protocol import (
    GetRequest,
    PipelineBatch,
    PutRequest,
    Reply,
    recv_tagged,
    send_message,
)
from repro.network.codec import encode_message
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
    """Collect *count* tagged replies, unpacking batches, in arrival order."""
    out = []
    deadline = time.monotonic() + timeout
    while len(out) < count:
        msg, cid = recv_tagged(conn, timeout=max(0.01, deadline - time.monotonic()))
        if isinstance(msg, PipelineBatch):
            from repro.network.protocol import iter_batch_frames

            out.extend(iter_batch_frames(msg.frames))
        else:
            out.append((msg, cid))
    return out


class TestOutOfOrderReplies:
    def test_blocking_get_does_not_stall_pipelined_put(self, solo_cluster):
        server = solo_cluster.servers["solo"]
        conn = solo_cluster.backend.transport_for("solo").connect(server.address)
        empty = folder("pipe", "empty")
        other = folder("pipe", "other")
        # cid 1: a get that blocks (folder is empty).  cid 2: a put to a
        # different folder, sent while the get is still parked.
        send_message(conn, GetRequest(empty, mode="get"), corr_id=1)
        send_message(
            conn, PutRequest(folder=other, payload=tlv_encode("v")), corr_id=2
        )
        msg, cid = recv_tagged(conn, timeout=5.0)
        assert cid == 2, "the put's reply must overtake the blocked get"
        assert msg.ok
        # Satisfy the parked get; its tagged reply then arrives too.
        feeder = solo_cluster.client_for("solo", origin="feeder")
        feeder.request(PutRequest(folder=empty, payload=tlv_encode("x")))
        msg, cid = recv_tagged(conn, timeout=5.0)
        assert cid == 1
        assert msg.ok and msg.found
        assert tlv_decode(msg.payload) == "x"
        conn.close()
        feeder.close()

    def test_many_gets_block_in_parallel(self, solo_cluster):
        server = solo_cluster.servers["solo"]
        conn = solo_cluster.backend.transport_for("solo").connect(server.address)
        for i in range(4):
            send_message(
                conn, GetRequest(folder("pipe", "par", i), mode="get"), corr_id=10 + i
            )
        feeder = solo_cluster.client_for("solo", origin="feeder")
        # Release in reverse order: replies must come back accordingly.
        for i in reversed(range(4)):
            feeder.request(
                PutRequest(folder=folder("pipe", "par", i), payload=tlv_encode(i))
            )
        got = dict(
            (cid, tlv_decode(msg.payload)) for msg, cid in recv_replies(conn, 4)
        )
        assert got == {10: 0, 11: 1, 12: 2, 13: 3}
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

    def test_legacy_frame_ordered_after_pipelined_puts(self, solo_cluster):
        """An id-less request observes every pipelined put sent before it."""
        server = solo_cluster.servers["solo"]
        conn = solo_cluster.backend.transport_for("solo").connect(server.address)
        target = folder("pipe", "legacy")
        n = 50
        frames = tuple(
            encode_message(
                PutRequest(folder=target, payload=tlv_encode(i)), corr_id=i + 1
            )
            for i in range(n)
        )
        conn.send(encode_message(PipelineBatch(frames)))
        # Strict frame right behind the burst: must see all 50 memos.
        send_message(conn, GetRequest(target, mode="skip"))
        replies = recv_replies(conn, n + 1)
        legacy = [entry for entry in replies if entry[1] is None]
        assert len(legacy) == 1
        assert legacy[0][0].found, "legacy get ran before pipelined puts landed"
        conn.close()


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
                if isinstance(msg, PipelineBatch):
                    from repro.network.protocol import iter_batch_frames

                    for inner, icid in iter_batch_frames(msg.frames):
                        seen[icid] = inner
                else:
                    seen[cid] = msg
        except Exception:
            pass  # connection closing mid-drain loses the tail, that's fine
        for cid, reply in seen.items():
            assert isinstance(reply, Reply)
            assert reply.ok or reply.error.startswith("shutdown:")
