"""Crash semantics, identical under both cluster backends.

The contract of the backend seam: SIGKILLing a host mid-traffic (a real
``kill -9`` in process mode, a thread-pool stop in-process) flips the
failure detector, routing fails over to backups, and ``restart_host``
recovers the host from its WAL and pulls only the outage delta — the
same assertions, parameterized over ``backend={"inprocess", "process"}``
on the same TCP transport with the same durability config.

Plus the supervision guarantees only the process backend can have:
unexpected child death is noticed and mapped onto the parent's failure
detector, and ``stop()`` reaps every child (no zombies).
"""

import os
import signal
import time

import pytest

from repro.adf.defaults import system_default_adf
from repro.core.keys import FolderName, Key, Symbol
from repro.durability.config import DurabilityConfig
from repro.network.routing import RoutingTable
from repro.runtime.cluster import Cluster
from repro.runtime.registration import registration_request_for
from repro.servers.hashing import FolderPlacement

HOSTS = ["h0", "h1", "h2"]
VICTIM = "h1"
APP = "rep"

BACKENDS = ["inprocess", "process"]


def make_cluster(backend: str, tmp_path, durable: bool = True) -> Cluster:
    adf = system_default_adf(HOSTS, app=APP, replication_factor=2)
    cluster = Cluster(
        adf,
        backend=backend,
        transport_kind="tcp",
        durability=(
            DurabilityConfig(data_dir=str(tmp_path), fsync="always")
            if durable
            else None
        ),
        idle_timeout=0.5,
        heartbeat_interval=0.05,
        failure_threshold=2,
    ).start()
    cluster.register()
    return cluster


def placement_for(adf):
    """The placement every memo server derives from this ADF's registration.

    Computed client-side (the process backend has no server objects to ask),
    from the same RegisterRequest fields the servers receive — so chains
    match what the cluster actually routes on.
    """
    msg = registration_request_for(adf)
    routing = RoutingTable(
        {src: dict(nbrs) for src, nbrs in msg.links.items()},
        hosts=list(msg.host_costs),
    )
    return FolderPlacement(
        [(sid, host) for sid, host in msg.folder_servers],
        host_power=dict(msg.host_costs),
        routing=routing,
        replication_factor=msg.replication_factor,
    )


def keys_with(cluster, picker, n, start=0):
    """Keys whose replica chain satisfies *picker*."""
    placement = placement_for(cluster.adf)
    out = []
    i = start
    while len(out) < n:
        key = Key(Symbol("d"), (i,))
        if picker(placement.replica_chain(FolderName(APP, key))):
            out.append(key)
        i += 1
        if i - start > 10_000:  # pragma: no cover - hash would be broken
            raise AssertionError("could not find enough matching keys")
    return out


def primaried_on(host):
    return lambda chain: chain[0][1] == host


@pytest.fixture(params=BACKENDS)
def cluster(request, tmp_path):
    c = make_cluster(request.param, tmp_path)
    yield c
    c.stop()


class TestCrashSemantics:
    def test_acked_puts_survive_sigkill(self, cluster):
        memo = cluster.memo_api("h0", APP)
        keys = keys_with(cluster, primaried_on(VICTIM), 20)
        for i, key in enumerate(keys):
            memo.put(key, i, wait=True)  # acked ⇒ replicated

        cluster.kill_host(VICTIM)

        got = sorted(memo.get(key) for key in keys)
        assert got == list(range(len(keys)))

    def test_detector_flips_and_writes_fail_over(self, cluster):
        memo = cluster.memo_api("h0", APP)
        cluster.kill_host(VICTIM)

        # Routing fails over: writes primaried on the dead host are
        # accepted by surviving chain members mid-outage.
        keys = keys_with(cluster, primaried_on(VICTIM), 10)
        for i, key in enumerate(keys):
            memo.put(key, i, wait=True)
        assert sorted(memo.get(key) for key in keys) == list(range(len(keys)))

        # And some surviving peer's failure detector has flipped the host.
        from repro.network.protocol import StatsRequest

        def suspected_count():
            total = 0
            for host in HOSTS:
                if host == VICTIM:
                    continue
                with cluster.client_for(host, origin="probe") as client:
                    reply = client.request(StatsRequest(origin="probe"))
                total += reply.stats["failure.suspected_hosts"]
            return total

        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if suspected_count() >= 1:
                break
            time.sleep(0.05)
        assert suspected_count() >= 1

    def test_restart_recovers_wal_and_pulls_only_the_delta(self, cluster):
        memo = cluster.memo_api("h0", APP)
        keys = keys_with(cluster, primaried_on(VICTIM), 25)
        pre, post = keys[:20], keys[20:]
        for key in pre:
            memo.put(key, "pre", wait=True)

        cluster.kill_host(VICTIM)
        time.sleep(0.3)  # let detectors notice and fail over
        for key in post:
            memo.put(key, "post", wait=True)

        stats = cluster.restart_host(VICTIM)
        moved = sum(s["returned"] + s["reseeded"] for s in stats.values())
        # The 5 outage writes come back (returned and/or reseeded); the 20
        # pre-outage writes, already WAL-recovered, must not travel again.
        assert len(post) <= moved <= 2 * len(post)

        values = [memo.get(key) for key in keys]
        assert values.count("pre") == len(pre)
        assert values.count("post") == len(post)

    def test_traffic_flows_normally_after_restart(self, cluster):
        memo = cluster.memo_api("h0", APP)
        cluster.kill_host(VICTIM)
        time.sleep(0.2)
        cluster.restart_host(VICTIM)
        time.sleep(0.3)  # detectors converge back to alive
        for i in range(30):
            memo.put(Key(Symbol("after"), (i,)), i, wait=True)
        assert sorted(
            memo.get(Key(Symbol("after"), (i,))) for i in range(30)
        ) == list(range(30))

    def test_relayed_wait_reparks_at_the_backup_when_the_primary_dies(self, cluster):
        """Waits parked from a non-owner sit in the primary's table.  Kill
        the primary: the waiting server re-enters routing, each wait
        re-parks at its backup — another host, or the waiting server's own
        replica store — and completes from a put that fails over too."""
        memo = cluster.memo_api("h0", APP)

        def chained(*hosts):
            return lambda chain: [h for _sid, h in chain] == list(hosts)

        (far,) = keys_with(cluster, chained(VICTIM, "h2"), 1)
        (near,) = keys_with(cluster, chained(VICTIM, "h0"), 1)
        futures = {far: memo.get_async(far), near: memo.get_async(near)}

        def active(host):
            return cluster.waiter_gauges()[host].get("active")

        wait_for(lambda: active(VICTIM) == 2, "both waits parked at the primary")
        cluster.kill_host(VICTIM)
        # h0 keeps one table entry per wait throughout; h2 gains the one
        # relayed to it.
        wait_for(lambda: active("h2") == 1, "re-parked at the backup")
        assert active("h0") == 2 and not any(f.done() for f in futures.values())

        feeder = cluster.memo_api("h2", APP)
        for key, value in ((far, "far"), (near, "near")):
            feeder.put(key, value, wait=True)
            assert futures[key].wait(timeout=10) == value
        assert active("h0") == 0 and active("h2") == 0


def wait_for(predicate, message, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


class TestBursts:
    def test_a_replicated_put_many_reaches_the_servers_in_few_carriers(
        self, cluster
    ):
        """A 512-put round at rf 2 over TCP: its remote puts ride one
        envelope per chain head, whose copies ride one envelope per chain
        member, so the servers receive at most one carrier per 8 puts (an
        envelope per remote put and per copy makes ~700)."""
        n = 512
        memo = cluster.memo_api("h0", APP)
        memo.put(Key(Symbol("warm")), 0, wait=True)
        keys = [Key(Symbol("burst"), (i % 128,)) for i in range(n)]
        before = cluster.stats()
        memo.put_many(zip(keys, range(n)))
        memo.flush()
        after = cluster.stats()
        carriers = sum(
            after[h]["memo.pipelined_batches"] - before[h]["memo.pipelined_batches"]
            for h in HOSTS
        )
        assert carriers <= n // 8, carriers
        assert sorted(memo.get_skip(k) for k in keys) == list(range(n))


@pytest.fixture(params=BACKENDS)
def logless_cluster(request, tmp_path):
    c = make_cluster(request.param, tmp_path, durable=False)
    yield c
    c.stop()


def in_chain_of(host):
    return lambda chain: host in [h for _sid, h in chain]


class TestLogLessRestart:
    """Without a WAL the restarted host holds nothing and its pull says
    so (LSN 0, or a clock rebased past the dead incarnation with the gap
    advertised as a floor): peers hand back everything."""

    def test_restart_gets_every_acked_memo_back_once(self, logless_cluster):
        cluster = logless_cluster
        memo = cluster.memo_api("h0", APP)
        # The victim primaries some of these folders and backs up others.
        keys = keys_with(cluster, in_chain_of(VICTIM), 30)
        placement = placement_for(cluster.adf)
        primaries = {placement.replica_chain(FolderName(APP, k))[0][1] for k in keys}
        assert VICTIM in primaries and len(primaries) > 1
        for i, key in enumerate(keys):
            memo.put(key, f"pre-{i}", wait=True)

        cluster.kill_host(VICTIM)
        time.sleep(0.3)  # let detectors notice and fail over
        for i, key in enumerate(keys):
            memo.put(key, f"mid-{i}", wait=True)

        stats = cluster.restart_host(VICTIM)
        assert sum(s["returned"] for s in stats.values()) > 0
        assert sum(s["reseeded"] for s in stats.values()) > 0
        time.sleep(0.3)  # detectors converge back to alive
        for i, key in enumerate(keys):
            assert sorted(memo.drain(key)) == [f"mid-{i}", f"pre-{i}"]

    def test_write_landing_before_the_pull_shadows_nothing(self, logless_cluster):
        """Traffic can reach the reborn host between its re-registration
        and its pull.  Those stamps must not reuse the dead incarnation's
        origin coordinates, or the peers conclude it already holds the
        crash-lost memos and never return them."""
        cluster = logless_cluster
        memo = cluster.memo_api("h0", APP)
        keys = keys_with(cluster, primaried_on(VICTIM), 10)
        for i, key in enumerate(keys):
            memo.put(key, f"pre-{i}", wait=True)
        cluster.kill_host(VICTIM)
        time.sleep(0.3)

        # restart_host, taken apart so a write lands before the pull.
        cluster.backend.respawn_host(VICTIM)
        cluster._register_one(cluster.adf, VICTIM)
        with cluster.memo_api(VICTIM, APP) as early:
            for i, key in enumerate(keys):
                early.put(key, f"early-{i}", wait=True)
        cluster.backend.resync_host(VICTIM, [APP])

        time.sleep(0.3)
        for i, key in enumerate(keys):
            assert sorted(memo.drain(key)) == [f"early-{i}", f"pre-{i}"]


class TestSupervision:
    """Process-backend-only guarantees: real PIDs, really supervised."""

    @pytest.fixture
    def pcluster(self, tmp_path):
        c = make_cluster("process", tmp_path)
        yield c
        c.stop()

    def test_kill_host_is_a_real_sigkill(self, pcluster):
        child = pcluster.backend._children[VICTIM]
        assert child.alive
        pcluster.kill_host(VICTIM)
        assert child.proc.returncode == -signal.SIGKILL
        assert not pcluster.backend.is_live(VICTIM)

    def test_supervisor_notices_unexpected_death(self, pcluster):
        # Murder the child behind the cluster's back — no kill_host.
        pid = pcluster.backend._children[VICTIM].proc.pid
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if VICTIM in pcluster.backend.failure.dead_hosts():
                break
            time.sleep(0.05)
        assert VICTIM in pcluster.backend.failure.dead_hosts()
        assert [e["host"] for e in pcluster.backend.exit_events] == [VICTIM]
        assert "down" in pcluster.debug_report()

    def test_restart_is_a_new_pid_at_the_same_port(self, pcluster):
        old_port = pcluster.address_book[VICTIM].port
        old_pid = pcluster.backend._children[VICTIM].proc.pid
        pcluster.kill_host(VICTIM)
        pcluster.restart_host(VICTIM)
        assert pcluster.backend._children[VICTIM].proc.pid != old_pid
        assert pcluster.address_book[VICTIM].port == old_port
        # Nobody was told anything: a forward to the reborn host works.
        memo = pcluster.memo_api("h0", APP)
        (key,) = keys_with(pcluster, primaried_on(VICTIM), 1, start=5000)
        memo.put(key, "reborn", wait=True)
        assert memo.get(key) == "reborn"

    def test_stop_reaps_every_child(self, tmp_path):
        cluster = make_cluster("process", tmp_path)
        procs = [child.proc for child in cluster.backend._children.values()]
        assert len(procs) == len(HOSTS)
        cluster.stop()
        for proc in procs:
            assert proc.returncode is not None  # waited on: no zombies
        # Idempotent: a second stop (e.g. context-manager exit after an
        # explicit stop) must not raise.
        cluster.stop()
