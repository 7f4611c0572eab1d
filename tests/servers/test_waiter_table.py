"""The session waiter table: O(1)-thread parking, cancellation, fail-over.

The acceptance bar for the futures redesign: a large fan-in of blocked
``get_async`` waiters is held as table entries, not threads — killing the
pre-redesign ceiling where every blocked get pinned a per-connection
worker (ROADMAP: "an event-driven waiter table would decouple waiting
from threads").
"""

import sys
import threading
import time

import pytest

from repro import NIL, Cluster, as_completed, system_default_adf
from repro.adf.model import ADF, FolderDecl, HostDecl, LinkDecl, ProcessDecl
from repro.core.keys import FolderName, Key, Symbol
from repro.errors import ConnectionClosedError, MemoError
from repro.network.calls import Calls
from repro.network.codec import decode_message, encode_message
from repro.network.protocol import (
    PUT_ACK,
    Acks,
    Envelope,
    GetWaitRequest,
    MemoReady,
    Reply,
    recv_tagged,
    send_message,
)
from repro.servers.memo_server import HANDLERS
from repro.servers.link import PeerLink

FANIN = 1000

#: Server-side thread allowance for the whole fan-in: the puts that
#: complete the waiters ride a handful of lane/cache workers, and the
#: heartbeat/accept machinery wobbles by a couple — nothing may scale
#: with the number of parked waiters.
THREAD_SLACK = 8


def key(i=0):
    return Key(Symbol("wt"), (i,))


def keys_owned_by(cluster, host, n, app="test", start=0):
    """*n* keys whose folder the cluster's placement gives to *host*."""
    reg = next(iter(cluster.servers.values())).registration(app)
    out = []
    i = start
    while len(out) < n:
        k = key(i)
        if reg.placement.place_host(FolderName(app, k))[1] == host:
            out.append(k)
        i += 1
    return out


def active(server):
    return server.stats["waiters_active"]


def costly(adf, host):
    """*adf* with *host* priced out of owning anything."""
    adf.hosts = [
        HostDecl(h.name, h.num_procs, h.arch, 10_000.0 if h.name == host else h.cost)
        for h in adf.hosts
    ]
    return adf


def wait_until(predicate, timeout=5.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {message}")


class TestThousandWaiterFanIn:
    def test_parked_waiters_hold_no_threads(self, one_host_cluster):
        """1000 blocked get_asyncs on one server: O(1) additional threads."""
        self.fan_in(one_host_cluster, waiting="solo", owner="solo")

    def test_parked_waiters_hold_no_threads_from_a_non_owner(self, two_host_cluster):
        """The same from a server that does not own the folders: both
        hosts run in this process, so a relayed wait's two ends are both
        counted."""
        self.fan_in(two_host_cluster, waiting="alpha", owner="beta")

    def fan_in(self, cluster, waiting, owner):
        keys = keys_owned_by(cluster, owner, FANIN)
        memo = cluster.memo_api(waiting, "test", "fanin")
        baseline = threading.active_count()

        futures = [memo.get_async(k) for k in keys]
        # Registration is pipelined: the server's reader is still draining
        # GetWait frames when get_async returns, so poll the gauge up.
        server = cluster.servers[waiting]
        wait_until(
            lambda: active(server) == active(cluster.servers[owner]) == FANIN,
            timeout=15,
            message="all waiters parked",
        )
        parked = threading.active_count()
        assert parked - baseline <= THREAD_SLACK, (
            f"{FANIN} parked waiters grew the thread count by "
            f"{parked - baseline} (baseline {baseline})"
        )
        assert server.stats["waiters_parked"] == FANIN

        feeder = cluster.memo_api(owner, "test", "feeder")
        feeder.put_many((k, i) for i, k in enumerate(keys))
        feeder.flush()

        got = sorted(f.result() for f in as_completed(futures, timeout=30))
        assert got == list(range(FANIN))
        stats = server.stats.snapshot()
        assert stats["waiters_active"] == active(cluster.servers[owner]) == 0
        assert stats["waiters_completed"] == FANIN
        assert stats["push_frames"] >= FANIN
        # And the completion burst still did not scale threads.
        assert threading.active_count() - baseline <= THREAD_SLACK

    def test_gauges_surface_in_cluster_debugging(self, one_host_cluster):
        memo = one_host_cluster.memo_api("solo", "test", "g")
        f = memo.get_async(key(5000))
        wait_until(
            lambda: one_host_cluster.waiter_gauges()["solo"]["active"] == 1,
            message="waiter parked",
        )
        gauges = one_host_cluster.waiter_gauges()["solo"]
        assert gauges["active"] == 1 and gauges["parked"] == 1
        report = one_host_cluster.debug_report()
        assert "waiters active=1" in report
        f.cancel()
        assert one_host_cluster.waiter_gauges()["solo"]["cancelled"] == 1


class TestCancellationPaths:
    def test_client_disconnect_cancels_parked_waiters(self, one_host_cluster):
        self.disconnect(one_host_cluster, waiting="solo", owner="solo")

    def test_client_disconnect_detaches_relayed_waiters_at_the_owner(
        self, two_host_cluster
    ):
        """The teardown is forwarded by token."""
        self.disconnect(two_host_cluster, waiting="alpha", owner="beta")

    def disconnect(self, cluster, waiting, owner):
        server, owning = cluster.servers[waiting], cluster.servers[owner]
        memo = cluster.memo_api(waiting, "test", "dc")
        for k in keys_owned_by(cluster, owner, 10, start=100):
            memo.get_async(k)
        wait_until(
            lambda: active(server) == active(owning) == 10,
            message="waiters parked",
        )
        memo.client._calls.conn.close()  # simulate the process dying
        wait_until(
            lambda: active(server) == active(owning) == 0,
            message="disconnect cancellation",
        )
        assert server.stats["waiters_cancelled"] == 10
        assert owning.stats["waiters_cancelled"] == 10
        # The waited-on folders vanished with their waiters: nothing leaks.
        live = sum(
            fs.folder_count() for fs in owning.local_folder_servers().values()
        )
        assert live == 0

    @pytest.mark.parametrize("how", ["cancel", "timeout"])
    def test_withdrawn_remote_wait_leaves_no_ghost_getter(
        self, two_host_cluster, how
    ):
        """A wait parked from a non-owner and then cancelled (or timed
        out) is detached at the owner: no waiter, no thread, and the next
        put stays put — nobody consumes and requeues it."""
        alpha, beta = (two_host_cluster.servers[h] for h in ("alpha", "beta"))
        (store,) = beta.local_folder_servers().values()
        warm, k = keys_owned_by(two_host_cluster, "beta", 2, start=200)
        memo = two_host_cluster.memo_api("alpha", "test", "g")
        # One relayed wait first, so the baseline already counts the
        # per-peer link (its reader on alpha, its session on beta).
        assert memo.get_async(warm).cancel()
        wait_until(
            lambda: beta.stats["waiters_cancelled"] == 1,
            message="warm-up detached",
        )
        threads = threading.active_count()
        before = store.stats.snapshot()

        future = memo.get_async(k)
        wait_until(lambda: active(beta) == 1, message="parked at the owner")
        if how == "cancel":
            assert future.cancel()
        else:
            with pytest.raises(TimeoutError):
                future.wait(timeout=0.1)
        wait_until(lambda: active(beta) == 0, message="owner's waiter detached")
        assert active(alpha) == 0
        assert store.stats["async_cancelled"] == before["async_cancelled"] + 1
        assert store.folder_count() == 0  # no waiter left pinning the folder
        wait_until(
            lambda: threading.active_count() <= threads, message="no thread kept"
        )

        forwards = alpha.stats["forwards_out"]
        two_host_cluster.memo_api("beta", "test", "gf").put(k, "stays", wait=True)
        time.sleep(0.1)  # a ghost would have taken it by now
        after = store.stats.snapshot()
        assert store.memo_count() == 1
        assert after["gets"] == before["gets"]
        assert after["puts"] == before["puts"] + 1
        assert alpha.stats["forwards_out"] == forwards  # no requeue
        assert memo.get_skip(k) == "stays"

    def test_cancelled_waiter_never_eats_a_memo(self, one_host_cluster):
        memo = one_host_cluster.memo_api("solo", "test", "c")
        f = memo.get_async(key(200))
        assert f.cancel()
        feeder = one_host_cluster.memo_api("solo", "test", "cf")
        feeder.put(key(200), "intact", wait=True)
        assert memo.get_skip(key(200)) == "intact"


class TestWireLevel:
    def _connect(self, cluster):
        server = cluster.servers["solo"]
        return cluster.backend.transport_for("solo").connect(server.address)

    def test_duplicate_waiter_token_rejected(self, one_host_cluster):
        conn = self._connect(one_host_cluster)
        try:
            folder = FolderName("test", key(300))
            send_message(
                conn, GetWaitRequest(folder=folder, waiter=7), corr_id=1
            )
            msg, cid = recv_tagged(conn, 5.0)
            assert cid == 1 and isinstance(msg, Reply)
            assert msg.ok and not msg.found  # parked
            send_message(
                conn, GetWaitRequest(folder=folder, waiter=7), corr_id=2
            )
            msg, cid = recv_tagged(conn, 5.0)
            assert cid == 2 and not msg.ok and "already parked" in msg.error
        finally:
            conn.close()

    def test_idless_get_wait_rejected_no_push_to_legacy_peers(
        self, one_host_cluster
    ):
        """An id-less wait is a protocol violation: its session ends
        without ever growing a waiter table."""
        conn = self._connect(one_host_cluster)
        try:
            folder = FolderName("test", key(301))
            send_message(conn, GetWaitRequest(folder=folder, waiter=9))
            with pytest.raises(ConnectionClosedError):
                recv_tagged(conn, 5.0)
            stats = one_host_cluster.servers["solo"].stats.snapshot()
            assert stats["waiters_parked"] == 0
        finally:
            conn.close()

    def test_push_frame_is_idless_and_token_routed(self, one_host_cluster):
        conn = self._connect(one_host_cluster)
        try:
            folder = FolderName("test", key(302))
            send_message(
                conn, GetWaitRequest(folder=folder, waiter=42), corr_id=1
            )
            msg, _cid = recv_tagged(conn, 5.0)
            assert msg.ok and not msg.found
            feeder = one_host_cluster.memo_api("solo", "test", "pf")
            feeder.put(key(302), "pushed", wait=True)
            msg, cid = recv_tagged(conn, 5.0)
            assert cid is None  # unsolicited: no correlation id
            assert isinstance(msg, MemoReady)
            assert msg.waiter == 42
        finally:
            conn.close()


class TestAsyncWaiterSemantics:
    def test_copy_waiters_never_starved_by_consumers(self):
        """Copies complete first on any arrival, regardless of parking order."""
        from repro.core.memo import MemoRecord
        from repro.servers.folder_server import FolderServer

        fs = FolderServer("0")
        name = FolderName("t", key(600))
        got = []
        fs.get_async(name, "get", lambda r, e: got.append(("get", r and r.payload, e)))
        fs.get_async(name, "copy", lambda r, e: got.append(("copy", r and r.payload, e)))
        fs.put(name, MemoRecord(payload=b"v", origin=""))
        assert ("copy", b"v", None) in got
        assert ("get", b"v", None) in got
        assert fs.get_skip(name) is None  # the get waiter consumed it

    def test_delivered_push_is_salvaged_off_a_discarded_connection(
        self, one_host_cluster
    ):
        """A MemoReady already sitting in the receive queue completes its
        future even when the connection is torn down unread — the server
        consumed that memo, so dropping the frame would lose it."""
        server = one_host_cluster.servers["solo"]
        memo = one_host_cluster.memo_api("solo", "test", "s")
        future = memo.get_async(key(601))
        wait_until(
            lambda: server.stats["waiters_active"] == 1,
            message="wait parked",
        )
        feeder = one_host_cluster.memo_api("solo", "test", "sf")
        feeder.put(key(601), "salvaged", wait=True)
        wait_until(
            lambda: server.stats["waiters_completed"] == 1,
            message="push sent",
        )
        # Nobody pumped: the push is queued client-side.  Discard the
        # connection as a timeout would.
        client = memo.client
        with client._lock:
            client._discard_connection_locked()
        assert future.done() and future.result() == "salvaged"


class TestMigrationAndFailover:
    def test_parked_wait_resubscribes_through_rebalance(self):
        """Migration cancels the parked wait; the client transparently
        re-subscribes at the folder's new home and still completes."""
        self.rebalance_under_a_wait(waiting="alpha")

    def test_relayed_wait_reparks_through_rebalance(self):
        """Parked from a non-owner, the folder moves to a third host: the
        waiting server re-subscribes — the client's rule, one hop later."""
        self.rebalance_under_a_wait(waiting="gamma")

    def rebalance_under_a_wait(self, waiting):
        hosts = ["alpha", "beta", "gamma"]
        adf = system_default_adf(hosts, app="mig")
        with Cluster(adf, idle_timeout=0.5) as cluster:
            cluster.register()
            # Rebalancing will price alpha out; take a key alpha owns now
            # that then lands on beta — a third host for the remote case.
            lopsided = costly(system_default_adf(hosts, app="mig"), "alpha")
            then = registration_placement(lopsided)
            k = next(
                k
                for k in keys_owned_by(cluster, "alpha", 200, app="mig")
                if then.place_host(FolderName("mig", k))[1] == "beta"
            )
            memo = cluster.memo_api(waiting, "mig", "w")
            future = memo.get_async(k)
            wait_until(lambda: active(cluster.servers["alpha"]) == 1, message="parked")
            assert not future.done()

            cluster.rebalance(lopsided)
            feeder = cluster.memo_api("beta", "mig", "f")
            feeder.put(k, "after-move", wait=True)
            assert future.wait(timeout=10) == "after-move"
            assert [active(s) for s in cluster.servers.values()] == [0, 0, 0]

    def test_parked_wait_survives_kill_and_restart(self):
        self.kill_and_restart(owner="alpha", victim="alpha")

    def test_relayed_wait_survives_its_waiting_server_restarting(self):
        """The client re-subscribes and completes; the dead link's waiter
        was detached at the owner — not left there to eat a memo."""
        self.kill_and_restart(owner="beta", victim="alpha")

    def test_relayed_wait_survives_its_sole_owner_restarting(self):
        """Nobody else to re-park at: the client paces the retry toward
        the owner's next incarnation, as it does for its own server."""
        self.kill_and_restart(owner="beta", victim="beta")

    def kill_and_restart(self, owner, victim):
        adf = system_default_adf(["alpha", "beta"], app="kr")
        with Cluster(adf, idle_timeout=0.5) as cluster:
            cluster.register()
            (k,) = keys_owned_by(cluster, owner, 1, app="kr", start=400)
            memo = cluster.memo_api("alpha", "kr", "w")
            future = memo.get_async(k)
            wait_until(lambda: active(cluster.servers[owner]) == 1, message="parked")

            cluster.kill_host(victim)
            survivor = "beta" if victim == "alpha" else "alpha"
            if owner != victim:
                wait_until(
                    lambda: active(cluster.servers[survivor]) == 0,
                    message="dead link's waiter detached at the owner",
                )
            cluster.restart_host(victim)

            feeder = cluster.memo_api("alpha", "kr", "f")
            feeder.put(k, "rescued", wait=True)
            assert future.wait(timeout=10) == "rescued"
            assert active(cluster.servers["alpha"]) == 0
            assert active(cluster.servers["beta"]) == 0
            stores = cluster.servers[owner].local_folder_servers().values()
            assert sum(fs.memo_count() for fs in stores) == 0

    def test_remote_folder_wait_completes(self, two_host_cluster):
        """A wait on a remotely-owned folder still resolves as a push."""
        reg = two_host_cluster.servers["alpha"].registration("test")
        i = 0
        while True:
            k = Key(Symbol("rk"), (i,))
            if reg.placement.place_host(FolderName("test", k))[1] == "beta":
                break
            i += 1
        memo = two_host_cluster.memo_api("alpha", "test", "w")
        future = memo.get_async(k)
        time.sleep(0.05)
        assert not future.done()
        stats = two_host_cluster.servers["alpha"].stats.snapshot()
        assert stats["waiters_active"] == 1  # parked on alpha, relayed to beta
        feeder = two_host_cluster.memo_api("beta", "test", "f")
        feeder.put(k, "remote", wait=True)
        assert future.wait(timeout=10) == "remote"


def registration_placement(adf):
    """The placement every memo server derives from *adf*'s registration."""
    from repro.network.routing import RoutingTable
    from repro.runtime.registration import registration_request_for
    from repro.servers.hashing import FolderPlacement

    msg = registration_request_for(adf)
    routing = RoutingTable(
        {src: dict(nbrs) for src, nbrs in msg.links.items()},
        hosts=list(msg.host_costs),
    )
    return FolderPlacement(
        list(msg.folder_servers), host_power=dict(msg.host_costs), routing=routing
    )


class TestRelayedWaits:
    def test_line_topology_relays_hop_by_hop(self):
        """h0 – h1 – h2, every folder on h2, waiters on h0: the wait
        travels (and its memo returns) link by link as envelopes do —
        nothing crosses h0–h2 directly, and h1 holds table entries, not
        threads."""
        adf = ADF(app="line")
        adf.hosts = [HostDecl(h) for h in ("h0", "h1", "h2")]
        adf.folders = [FolderDecl("0", "h2")]
        adf.processes = [ProcessDecl("0", "boss", "h0")]
        adf.links = [LinkDecl("h0", "h1", 1.0), LinkDecl("h1", "h2", 1.0)]
        n = 50
        with Cluster(adf, idle_timeout=0.5) as cluster:
            cluster.register()
            cluster.fabric.reset_traffic()  # registration is a unicast to each
            h0, h1, h2 = (cluster.servers[h] for h in ("h0", "h1", "h2"))
            memo = cluster.memo_api("h0", "line", "w")
            baseline = threading.active_count()
            futures = [memo.get_async(key(i)) for i in range(n)]
            wait_until(
                lambda: active(h0) == active(h1) == active(h2) == n,
                message="parked at the owner through the relay",
            )
            assert threading.active_count() - baseline <= THREAD_SLACK
            assert h1.stats["forwards_relayed"] == n

            feeder = cluster.memo_api("h2", "line", "f")
            feeder.put_many((key(i), i) for i in range(n))
            feeder.flush()
            got = sorted(f.result() for f in as_completed(futures, timeout=10))
            assert got == list(range(n))
            assert active(h0) == active(h1) == active(h2) == 0
            traffic = cluster.fabric.traffic()
            assert ("h0", "h2") not in traffic and ("h2", "h0") not in traffic
            assert traffic[("h1", "h2")].messages >= n

            # A cancel is relayed the same way.
            future = memo.get_async(key(n))
            wait_until(lambda: active(h2) == 1, message="parked")
            assert future.cancel()
            wait_until(
                lambda: active(h1) == active(h2) == 0, message="detached hop by hop"
            )

            # A hit crosses every hop as replies only: no push anywhere.
            pushes = [s.stats["push_frames"] for s in (h0, h1, h2)]
            feeder.put(key(n + 1), "hit", wait=True)
            assert memo.get(key(n + 1)) == "hit"
            assert [s.stats["push_frames"] for s in (h0, h1, h2)] == pushes
            assert active(h0) == active(h1) == active(h2) == 0

    def test_disagreeing_registrations_refuse_instead_of_bouncing(
        self, two_host_cluster
    ):
        """Re-registration reaches hosts one at a time.  While alpha
        believes beta owns a folder and beta believes alpha does, a
        relayed wait is refused where it was aimed — one hop, an error —
        not passed back and forth."""
        only = {}
        for owner in ("alpha", "beta"):
            adf = system_default_adf(["alpha", "beta"], app="test")
            adf.folders = [f for f in adf.folders if f.host == owner]
            only[owner] = adf
        two_host_cluster._register_one(only["beta"], "alpha")
        two_host_cluster._register_one(only["alpha"], "beta")
        alpha, beta = (two_host_cluster.servers[h] for h in ("alpha", "beta"))

        future = two_host_cluster.memo_api("alpha", "test", "w").get_async(key(700))
        with pytest.raises(MemoError, match="not chained to beta"):
            future.wait(timeout=10)
        assert alpha.stats["forwards_out"] == 1
        assert beta.stats["forwards_out"] == 0
        assert active(alpha) == active(beta) == 0

    def test_relayed_wait_refuses_a_routing_loop(self, two_host_cluster):
        """The envelope's trail is checked for a wait as for any forward."""
        beta = two_host_cluster.servers["beta"]
        conn = two_host_cluster.backend.transport_for("alpha").connect(beta.address)
        try:
            wait = GetWaitRequest(folder=FolderName("test", key(701)), waiter=1)
            envelope = Envelope(
                app="test",
                target_host="alpha",
                frames=(encode_message(wait, corr_id=1),),
                trail=("alpha", "beta"),
            )
            send_message(conn, envelope)
            msg, cid = recv_tagged(conn, 5.0)
            assert cid == 1 and not msg.ok and "routing loop" in msg.error
            assert active(beta) == 0
        finally:
            conn.close()


def record_frames(client):
    """Every ``(cid, message)`` *client*'s call engine dispatches from now
    on, in order: an ``Acks`` frame as ``PUT_ACK`` for each of its ids."""
    seen = []
    dispatch = client._calls.dispatch

    def recording(msg, cid):
        if type(msg) is Acks:
            seen.extend((acked, PUT_ACK) for acked in msg.cids)
        else:
            seen.append((cid, msg))
        dispatch(msg, cid)

    client._calls.dispatch = recording
    return seen


def waits_in_flight(client) -> list[int]:
    """The ids of *client*'s GetWaits still awaiting their reply: the
    slots whose callback is the GetWait's."""
    slots = client._calls._slots
    return [cid for cid, slot in slots.items() if slot.then == client._on_wait_reply_locked]


def pump_until(client, predicate, message, timeout=5.0):
    """Drive *client*'s frames until *predicate* holds."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {message}"
        client.pump(0.02)


def settle(client):
    """Pump *client* until no GetWait of its own awaits a reply."""
    pump_until(client, lambda: not waits_in_flight(client), "every GetWait answered")


def replies_to(seen, cid):
    return [msg for c, msg in seen if c == cid]


class TestOneReplyPerRelayedWait:
    """A relayed GetWait's correlation id gets exactly one reply on every
    path: the owner's hit itself, or the parked ack ahead of whatever
    ends the wait — and the client's in-flight wait map empties."""

    @pytest.fixture
    def gate(self, monkeypatch):
        """Hold beta's answer to a relayed wait until ``gate.set()``;
        ``gate.entered`` is set once beta has the wait in hand."""
        gate = threading.Event()
        gate.entered = threading.Event()
        row = HANDLERS[GetWaitRequest]

        def held(session, msg, cid, envelope=None, raw=None):
            if envelope is not None and session.server.host == "beta":
                gate.entered.set()
                gate.wait(10)
            return row.handler(session, msg, cid, envelope, raw)

        monkeypatch.setitem(HANDLERS, GetWaitRequest, row._replace(handler=held))
        yield gate
        gate.set()

    def start(self, cluster, k):
        """A relayed get_async on alpha for *k*, and its GetWait's id."""
        memo = cluster.memo_api("alpha", "test", "w")
        seen = record_frames(memo.client)
        future = memo.get_async(k)
        (cid,) = waits_in_flight(memo.client)
        return memo, seen, future, cid

    def test_a_owner_hit_is_the_one_reply(self, two_host_cluster):
        alpha, beta = (two_host_cluster.servers[h] for h in ("alpha", "beta"))
        (k,) = keys_owned_by(two_host_cluster, "beta", 1, start=800)
        two_host_cluster.memo_api("beta", "test", "f").put(k, "hit", wait=True)
        memo, seen, future, cid = self.start(two_host_cluster, k)
        assert future.wait(timeout=5) == "hit"
        settle(memo.client)
        (reply,) = replies_to(seen, cid)
        assert reply.ok and reply.found
        assert [m for c, m in seen if c is None] == []  # no push at all
        assert alpha.stats["push_frames"] == beta.stats["push_frames"] == 0
        assert alpha.stats["waiters_completed"] == 1
        assert active(alpha) == active(beta) == 0
        assert memo.get_skip(k) is NIL

    def test_b_owner_parks_then_a_put_completes(self, two_host_cluster):
        alpha, beta = (two_host_cluster.servers[h] for h in ("alpha", "beta"))
        (k,) = keys_owned_by(two_host_cluster, "beta", 1, start=810)
        memo, seen, future, cid = self.start(two_host_cluster, k)
        wait_until(lambda: active(beta) == 1, message="parked at the owner")
        two_host_cluster.memo_api("beta", "test", "f").put(k, "later", wait=True)
        assert future.wait(timeout=5) == "later"
        settle(memo.client)
        (reply,) = replies_to(seen, cid)
        assert reply.ok and not reply.found  # the parked ack
        assert [type(m) for c, m in seen if c is None] == [MemoReady]
        assert active(alpha) == active(beta) == 0
        assert memo.get_skip(k) is NIL

    def test_c_owner_error_acks_then_cancels(self, two_host_cluster):
        """beta believes alpha owns every folder: it refuses the wait."""
        adf = system_default_adf(["alpha", "beta"], app="test")
        adf.folders = [f for f in adf.folders if f.host == "alpha"]
        two_host_cluster._register_one(adf, "beta")
        alpha = two_host_cluster.servers["alpha"]
        (k,) = keys_owned_by(two_host_cluster, "beta", 1, start=820)
        memo, seen, future, cid = self.start(two_host_cluster, k)
        with pytest.raises(MemoError, match="not chained to beta"):
            future.wait(timeout=5)
        settle(memo.client)
        (reply,) = replies_to(seen, cid)
        assert reply.ok and not reply.found
        assert active(alpha) == 0

    def test_d_cancel_before_the_owner_answers(self, two_host_cluster, gate):
        alpha, beta = (two_host_cluster.servers[h] for h in ("alpha", "beta"))
        (k,) = keys_owned_by(two_host_cluster, "beta", 1, start=830)
        memo, seen, future, cid = self.start(two_host_cluster, k)
        assert gate.entered.wait(5)
        assert future.cancel()
        gate.set()
        # beta parks the wait, then serves the cancel queued behind it.
        wait_until(
            lambda: beta.stats["waiters_cancelled"] == 1,
            message="detached at the owner",
        )
        settle(memo.client)
        (reply,) = replies_to(seen, cid)
        assert reply.ok and not reply.found
        assert active(alpha) == 0
        two_host_cluster.memo_api("beta", "test", "f").put(k, "kept", wait=True)
        assert memo.get_skip(k) == "kept"  # no ghost took it
        assert memo.get_skip(k) is NIL

    def test_e_cancel_races_a_hit_and_the_memo_returns(
        self, two_host_cluster, gate
    ):
        alpha, beta = (two_host_cluster.servers[h] for h in ("alpha", "beta"))
        (store,) = beta.local_folder_servers().values()
        (k,) = keys_owned_by(two_host_cluster, "beta", 1, start=840)
        two_host_cluster.memo_api("beta", "test", "f").put(k, "raced", wait=True)
        memo, seen, future, cid = self.start(two_host_cluster, k)
        assert gate.entered.wait(5)
        assert future.cancel()  # alpha's entry is gone before beta hits
        gate.set()
        # beta consumes for a wait alpha no longer holds: alpha re-deposits.
        wait_until(lambda: store.stats["gets"] == 1, message="owner hit")
        wait_until(lambda: store.memo_count() == 1, message="memo re-deposited")
        settle(memo.client)
        (reply,) = replies_to(seen, cid)
        assert reply.ok and not reply.found
        assert active(alpha) == active(beta) == 0
        assert memo.get_skip(k) == "raced"
        assert memo.get_skip(k) is NIL

    def test_f_link_lost_before_the_answer_reparks(self, two_host_cluster, gate):
        alpha, beta = (two_host_cluster.servers[h] for h in ("alpha", "beta"))
        (k,) = keys_owned_by(two_host_cluster, "beta", 1, start=850)
        memo, seen, future, cid = self.start(two_host_cluster, k)
        assert gate.entered.wait(5)
        alpha.router._links["beta"].conn.close()
        gate.set()
        wait_until(
            lambda: beta.stats["waiters_cancelled"] == 1,
            message="the lost link's wait detached at the owner",
        )
        # The sole owner is "shutting down" as far as alpha can tell: the
        # client is told so, re-subscribes, and the wait parks anew.
        pump_until(memo.client, lambda: active(beta) == 1, "re-parked at the owner")
        two_host_cluster.memo_api("beta", "test", "f").put(k, "again", wait=True)
        assert future.wait(timeout=5) == "again"
        settle(memo.client)
        (reply,) = replies_to(seen, cid)
        assert reply.ok and not reply.found
        resent = [c for c, m in seen if c is not None and c != cid]
        assert len(resent) == len(set(resent)) == 1  # one reply for the re-park
        assert active(alpha) == active(beta) == 0
        assert memo.get_skip(k) is NIL

    def test_g_waiting_server_stops(self, gate):
        adf = system_default_adf(["alpha", "beta"], app="test")
        with Cluster(adf, idle_timeout=0.5) as cluster:
            cluster.register()
            (k,) = keys_owned_by(cluster, "beta", 1, start=860)
            memo, seen, future, cid = self.start(cluster, k)
            assert gate.entered.wait(5)
            cluster.kill_host("alpha")
            gate.set()
            beta = cluster.servers["beta"]
            wait_until(
                lambda: beta.stats["waiters_cancelled"] == 1,
                message="dead link's wait detached at the owner",
            )
            cluster.restart_host("alpha")
            cluster.memo_api("beta", "test", "f").put(k, "rescued", wait=True)
            assert future.wait(timeout=10) == "rescued"
            settle(memo.client)
            (reply,) = replies_to(seen, cid)
            assert reply.ok and not reply.found
            assert active(cluster.servers["alpha"]) == active(beta) == 0
            assert memo.get_skip(k) is NIL

    def test_h_hit_answered_before_relay_wait_returns(
        self, two_host_cluster, monkeypatch
    ):
        """The link's reader handles the owner's hit while the session's
        reader is still inside ``relay_wait``: the hit is still the one
        reply — no late parked ack overtakes or follows it.  (Another wait
        parked on the link keeps its standing reader: a link nobody reads
        is read by the thread that relays the wait.)"""
        parked, k = keys_owned_by(two_host_cluster, "beta", 2, start=870)
        elsewhere = two_host_cluster.memo_api("alpha", "test", "p").get_async(parked)
        wait_until(lambda: active(two_host_cluster.servers["beta"]) == 1)
        answered = threading.Event()
        send, dispatch = PeerLink.send, Calls.dispatch

        def reader_first(link, frame):
            sent = send(link, frame)
            if isinstance(decode_message(frame), Envelope):
                assert answered.wait(5)
            return sent

        def handled(calls, msg, cid):
            dispatch(calls, msg, cid)
            if isinstance(calls.role, PeerLink) and isinstance(msg, Reply):
                answered.set()

        monkeypatch.setattr(PeerLink, "send", reader_first)
        monkeypatch.setattr(Calls, "dispatch", handled)
        two_host_cluster.memo_api("beta", "test", "f").put(k, "first", wait=True)
        memo, seen, future, cid = self.start(two_host_cluster, k)
        assert future.wait(timeout=5) == "first"
        settle(memo.client)
        time.sleep(0.1)  # a late parked ack would be on the wire by now
        memo.client.pump(0.1)
        (reply,) = replies_to(seen, cid)
        assert reply.ok and reply.found
        assert elsewhere.cancel()
        assert active(two_host_cluster.servers["alpha"]) == 0

    def test_stress_every_relayed_wait_is_answered_once(self, two_host_cluster):
        """More client threads than cores and a short switch interval:
        hits and parks race the relay send on both of alpha's readers.
        Every GetWait gets one reply, every value arrives once, and
        nothing stays parked."""
        alpha, beta = (two_host_cluster.servers[h] for h in ("alpha", "beta"))
        keys = keys_owned_by(two_host_cluster, "beta", 4, start=900)
        errors = []

        def work(i, k):
            try:
                memo = two_host_cluster.memo_api("alpha", "test", f"w{i}")
                feeder = two_host_cluster.memo_api("beta", "test", f"f{i}")
                seen = record_frames(memo.client)
                for n in range(40):
                    if n % 2:
                        feeder.put(k, n, wait=True)  # a hit at the owner
                    future = memo.get_copy_async(k) if n % 4 == 1 else memo.get_async(k)
                    (cid,) = waits_in_flight(memo.client)
                    if not n % 2:
                        feeder.put(k, n, wait=True)  # usually parks first
                    assert future.wait(timeout=10) == n
                    if n % 4 == 1:
                        assert memo.get(k) == n
                    settle(memo.client)
                    assert len(replies_to(seen, cid)) == 1, (n, replies_to(seen, cid))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=work, args=(i, k)) for i, k in enumerate(keys)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        wait_until(lambda: active(alpha) == active(beta) == 0, message="all settled")
        (store,) = beta.local_folder_servers().values()
        assert store.memo_count() == 0


def test_a_relayed_hit_moves_two_frames_on_the_clients_link(two_host_cluster):
    """The client on alpha, the memo already in a folder beta owns: one
    blocking get is a GetWait and its found reply on the (alpha, alpha)
    link — no parked ack and no push."""
    (k,) = keys_owned_by(two_host_cluster, "beta", 1, start=880)
    two_host_cluster.memo_api("beta", "test", "f").put(k, "x", wait=True)
    memo = two_host_cluster.memo_api("alpha", "test", "w")

    def on_the_link():
        return two_host_cluster.metrics().link_messages.get(("alpha", "alpha"), 0)

    # Reading the metrics itself sends a stats request to each host.
    first = on_the_link()
    idle = on_the_link() - first
    before = on_the_link()
    assert memo.get(k) == "x"
    assert on_the_link() - before - idle == 2
