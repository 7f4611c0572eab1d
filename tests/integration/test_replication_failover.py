"""Integration: replica chains, fail-over, and anti-entropy resync.

The acceptance scenario for the replication subsystem: on a three-host
in-memory cluster with ``replication_factor=2``, killing a primary host
mid-workload loses zero acknowledged puts, blocked ``get``s complete via a
backup, and a restarted host is healed by one anti-entropy round.
"""

import threading
import time

import pytest

from repro import NIL, Cluster, system_default_adf
from repro.core.keys import FolderName, Key, Symbol

HOSTS = ["h1", "h2", "h3"]
VICTIM = "h2"


@pytest.fixture
def cluster():
    adf = system_default_adf(HOSTS, app="rep", replication_factor=2)
    with Cluster(
        adf, idle_timeout=0.5, heartbeat_interval=0.05, failure_threshold=2
    ) as c:
        c.register()
        yield c


def keys_with(cluster, picker, n, start=0):
    """Keys whose replica chain satisfies *picker*, from a scan of keys."""
    reg = cluster.servers[HOSTS[0]].registration("rep")
    out = []
    i = start
    while len(out) < n:
        key = Key(Symbol("d"), (i,))
        if picker(reg.placement.replica_chain(FolderName("rep", key))):
            out.append(key)
        i += 1
        if i - start > 10_000:  # pragma: no cover - hash would be broken
            raise AssertionError("could not find enough matching keys")
    return out


def primaried_on(host):
    return lambda chain: chain[0][1] == host


class TestFailover:
    def test_acked_puts_survive_primary_kill(self, cluster):
        memo = cluster.memo_api("h1", "rep")
        keys = keys_with(cluster, primaried_on(VICTIM), 40)
        for i, key in enumerate(keys):
            memo.put(key, i, wait=True)  # acked ⇒ replicated

        cluster.kill_host(VICTIM)

        got = sorted(memo.get(key) for key in keys)
        assert got == list(range(len(keys)))

    def test_blocked_get_completes_via_backup(self, cluster):
        (key,) = keys_with(cluster, primaried_on(VICTIM), 1, start=5000)
        waiter = cluster.memo_api("h1", "rep", "waiter")
        out = []
        t = threading.Thread(target=lambda: out.append(waiter.get(key)))
        t.start()
        time.sleep(0.2)  # the get is blocked inside the primary

        cluster.kill_host(VICTIM)
        filler = cluster.memo_api("h3", "rep", "filler")
        filler.put(key, "rescued", wait=True)

        t.join(timeout=15)
        assert out == ["rescued"]

    def test_writes_during_outage_are_accepted_and_served(self, cluster):
        memo = cluster.memo_api("h1", "rep")
        cluster.kill_host(VICTIM)
        keys = keys_with(cluster, primaried_on(VICTIM), 20)
        for i, key in enumerate(keys):
            memo.put(key, i, wait=True)
        assert sorted(memo.get(key) for key in keys) == list(range(len(keys)))

    def test_delayed_memos_replicate_and_fire_through_failover(self, cluster):
        memo = cluster.memo_api("h1", "rep")
        (trigger,) = keys_with(cluster, primaried_on(VICTIM), 1, start=7000)
        dest = Key(Symbol("dest"))
        memo.put_delayed(trigger, dest, "delayed-payload", wait=True)

        cluster.kill_host(VICTIM)
        memo.put(trigger, "arrival", wait=True)  # fires on the backup
        assert memo.get(dest) == "delayed-payload"

    def test_failover_stats_are_reported(self, cluster):
        memo = cluster.memo_api("h1", "rep")
        keys = keys_with(cluster, primaried_on(VICTIM), 10)
        for key in keys:
            memo.put(key, "x", wait=True)
        stats = [cluster.servers[host].stats for host in HOSTS]
        assert sum(s["replications_out"] for s in stats) >= len(keys)
        assert sum(s["replications_in"] for s in stats) >= len(keys)


class TestResync:
    def test_restart_returns_missed_and_pre_crash_memos(self, cluster):
        memo = cluster.memo_api("h1", "rep")
        keys = keys_with(cluster, primaried_on(VICTIM), 40)
        pre, post = keys[:20], keys[20:]
        for key in pre:
            memo.put(key, "pre", wait=True)

        cluster.kill_host(VICTIM)
        time.sleep(0.15)  # let detectors notice
        for key in post:
            memo.put(key, "post", wait=True)

        stats = cluster.restart_host(VICTIM)
        returned = sum(s["returned"] for s in stats.values())
        assert returned == len(keys)
        # Every memo is back on the rejoined primary and retrievable.
        live = sum(
            fs.memo_count()
            for fs in cluster.servers[VICTIM].local_folder_servers().values()
        )
        assert live == len(keys)
        values = {memo.get_skip(key) for key in keys}
        assert NIL not in values and values == {"pre", "post"}

    def test_restart_reseeds_replica_copies(self, cluster):
        memo = cluster.memo_api("h1", "rep")
        backed = keys_with(
            cluster,
            lambda chain: chain[0][1] != VICTIM
            and any(h == VICTIM for _s, h in chain[1:]),
            15,
        )
        for key in backed:
            memo.put(key, "v", wait=True)

        cluster.kill_host(VICTIM)
        time.sleep(0.15)
        stats = cluster.restart_host(VICTIM)

        assert sum(s["reseeded"] for s in stats.values()) == len(backed)
        replica_live = sum(
            fs.memo_count()
            for fs in cluster.servers[VICTIM].local_replica_servers().values()
        )
        assert replica_live == len(backed)

    def test_traffic_flows_normally_after_restart(self, cluster):
        memo = cluster.memo_api("h1", "rep")
        cluster.kill_host(VICTIM)
        time.sleep(0.15)
        cluster.restart_host(VICTIM)
        time.sleep(0.2)  # detectors converge back to alive
        for i in range(30):
            memo.put(Key(Symbol("after"), (i,)), i, wait=True)
        assert sorted(
            memo.get(Key(Symbol("after"), (i,))) for i in range(30)
        ) == list(range(30))


class TestParallelFanOut:
    def test_third_replica_leg_overlaps_the_second(self):
        """With 5 ms injected per direction on every link, an acked put at
        factor 2 pays one backup round trip over factor 1 — and because
        the legs run concurrently, factor 3 still pays about one, where a
        sequential fan-out would pay their sum."""
        import statistics

        medians = {}
        for factor in (1, 2, 3):
            adf = system_default_adf(HOSTS, app="rep", replication_factor=factor)
            with Cluster(
                adf, idle_timeout=5.0, heartbeat_interval=0.5, failure_threshold=5
            ) as c:
                for i, a in enumerate(HOSTS):
                    for b in HOSTS[i + 1 :]:
                        c.fabric.set_latency(a, b, 0.005)
                c.register()
                # Local primaries: the ack pays only the fan-out round trips.
                keys = keys_with(c, primaried_on("h1"), 13)
                memo = c.memo_api("h1", "rep")
                memo.put(keys[0], "warm", wait=True)
                timings = []
                for key in keys[1:]:
                    start = time.perf_counter()
                    memo.put(key, "v", wait=True)
                    timings.append(time.perf_counter() - start)
                medians[factor] = statistics.median(timings)
        over2 = medians[2] - medians[1]
        over3 = medians[3] - medians[1]
        assert over2 >= 0.010, medians  # the injected round trip is really paid
        assert over3 <= 1.6 * over2, medians


class TestSingleOwnerEquivalence:
    """``replication_factor=1`` must reproduce seed behaviour exactly."""

    def test_no_replication_machinery_runs_by_default(self):
        adf = system_default_adf(HOSTS, app="solo")
        with Cluster(adf, idle_timeout=0.5) as c:
            c.register()
            memo = c.memo_api("h1", "solo")
            for i in range(50):
                memo.put(Key(Symbol("k"), (i,)), i, wait=True)
            for i in range(50):
                assert memo.get(Key(Symbol("k"), (i,))) == i
            for host in HOSTS:
                server = c.servers[host]
                stats = server.stats.snapshot()
                assert stats["replications_out"] == 0
                assert stats["replications_in"] == 0
                assert stats["failover_dispatches"] == 0
                assert not server._monitor.running
                assert server.local_replica_servers() == {}

    def test_chain_placement_equals_single_owner_placement(self, cluster):
        reg = cluster.servers["h1"].registration("rep")
        for i in range(500):
            name = FolderName("rep", Key(Symbol("e"), (i,)))
            assert reg.placement.replica_chain(name)[0] == (
                reg.placement.place_host(name)
            )
