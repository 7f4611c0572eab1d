"""Delta anti-entropy: WAL-recovered restarts pull only the outage delta,
and the opt-in periodic sweep heals divergence without a restart."""

import time
from collections import Counter

import pytest

from repro.adf.defaults import system_default_adf
from repro.core.keys import FolderName, Key, Symbol
from repro.durability.config import DurabilityConfig
from repro.errors import RuntimeLaunchError
from repro.runtime.cluster import Cluster
from repro.servers.replicator import Replicator
from repro.sim.netsim import latency_spike, partitioned

HOSTS = ["h0", "h1", "h2"]
APP = "delta"


def make_cluster(tmp_path, *, durable=True):
    adf = system_default_adf(HOSTS, app=APP, replication_factor=2)
    cfg = (
        DurabilityConfig(data_dir=str(tmp_path), fsync="always")
        if durable
        else None
    )
    cluster = Cluster(adf, durability=cfg, idle_timeout=0.5).start()
    cluster.register()
    return cluster


def chain_for(cluster, name: str):
    """The replica chain ((sid, host), ...) the cluster places *name* on."""
    reg = cluster.servers[HOSTS[0]]._registrations[APP]
    return reg.placement.replica_chain(FolderName(APP, Key(Symbol(name))))


def key_primaried_on(cluster, host: str) -> Key:
    """A folder key whose primary lands on *host* under the current placement."""
    for i in range(200):
        name = f"k{i}"
        if chain_for(cluster, name)[0][1] == host:
            return Key(Symbol(name))
    raise AssertionError(f"no probed folder hashes to {host}")


def drain(cluster, host, key) -> Counter:
    got = Counter()
    with cluster.memo_api(host, APP) as memo:
        for value in memo.drain(key):
            got[value] += 1
    return got


class TestDeltaRestart:
    def test_restart_sends_no_full_syncpull(self, tmp_path, monkeypatch):
        """A durable restart advertises its recovered LSNs in every pull,
        so nothing the WAL already replayed travels again."""
        pulls = []
        original = Replicator.handle_delta_sync

        def spy(self, msg):
            pulls.append(msg)
            return original(self, msg)

        monkeypatch.setattr(Replicator, "handle_delta_sync", spy)
        cluster = make_cluster(tmp_path)
        try:
            with cluster.memo_api("h0", APP) as memo:
                for i in range(12):
                    memo.put(Key(Symbol(f"k{i}")), f"v{i}", wait=True)
            cluster.kill_host("h1")
            stats = cluster.restart_host("h1")
            assert {msg.requester for msg in pulls} == {"h1"}
            assert all(any(msg.primary_lsns.values()) for msg in pulls)
            # Nothing was written during the outage: the recovered WAL
            # already covers everything, so the round moves zero records.
            for peer_stats in stats.values():
                assert peer_stats == {"returned": 0, "reseeded": 0}
        finally:
            cluster.stop()

    def test_restart_pulls_only_outage_writes(self, tmp_path):
        cluster = make_cluster(tmp_path)
        try:
            key = key_primaried_on(cluster, "h1")
            with cluster.memo_api("h0", APP) as memo:
                for i in range(20):
                    memo.put(key, f"pre-{i}", wait=True)
            cluster.kill_host("h1")
            time.sleep(0.5)  # let peers suspect h1 and fail over
            with cluster.memo_api("h0", APP) as memo:
                for i in range(5):
                    memo.put(key, f"mid-{i}", wait=True)
            stats = cluster.restart_host("h1")
            moved = sum(s["returned"] + s["reseeded"] for s in stats.values())
            # The 5 outage writes come back (returned to the primary and/or
            # reseeded into its replica stores); the 20 pre-outage writes,
            # already WAL-recovered, must not travel again.
            assert 5 <= moved <= 10
            got = drain(cluster, "h2", key)
            assert set(got) == {f"pre-{i}" for i in range(20)} | {
                f"mid-{i}" for i in range(5)
            }
            assert all(count == 1 for count in got.values())
        finally:
            cluster.stop()

    def test_restart_during_latency_spike_loses_nothing(self, tmp_path):
        """Chaos: the rejoin round runs while one link is congested and
        another is partitioned; after healing, resync_all converges with
        no lost acked puts and bounded duplicates."""
        cluster = make_cluster(tmp_path)
        try:
            key = key_primaried_on(cluster, "h1")
            acked = []
            with cluster.memo_api("h0", APP) as memo:
                for i in range(15):
                    memo.put(key, f"a{i}", wait=True)
                    acked.append(f"a{i}")
            cluster.kill_host("h1")
            time.sleep(0.5)
            with cluster.memo_api("h0", APP) as memo:
                for i in range(5):
                    memo.put(key, f"late{i}", wait=True)
                    acked.append(f"late{i}")
            fabric = cluster.fabric
            with latency_spike(fabric, "h0", "h1", 0.05):
                with partitioned(fabric, "h1", "h2"):
                    cluster.restart_host("h1")  # h2 unreachable: skipped
            cluster.resync_all()  # healed: the skipped peer contributes now
            got = drain(cluster, "h2", key)
            assert set(got) == set(acked)  # no acked put lost
            assert all(count <= 2 for count in got.values())  # bounded dups
        finally:
            cluster.stop()


class TestColdRestartClockContinuity:
    def test_regrown_clock_does_not_shadow_crash_lost_writes(self, tmp_path):
        """A log-less restart resumes the LSN clock past the dead
        incarnation and advertises the gap as a resync floor.

        Without the rebase, the fresh clock regrows through the crash-lost
        range and a later delta sweep concludes the primary "already
        holds" the pre-crash writes sitting in its backup's replica store
        — permanently stranding acked data.  The sequence: ack writes,
        crash the primary, restart it while its backup is unreachable
        (the rejoin round cannot return anything), regrow the clock with
        fresh traffic, heal, then run one ordinary delta sweep.
        """
        cluster = make_cluster(tmp_path, durable=False)
        try:
            key = key_primaried_on(cluster, "h1")
            backup = chain_for(cluster, key.symbol.name)[1][1]
            with cluster.memo_api("h0", APP) as memo:
                for i in range(20):
                    memo.put(key, f"pre-{i}", wait=True)
            cluster.kill_host("h1")
            time.sleep(0.5)
            with partitioned(cluster.fabric, "h1", backup):
                cluster.restart_host("h1")  # rejoin pull cannot reach backup
                # Fresh traffic regrows the clock well past the lsn range
                # of the 20 crash-lost records.
                with cluster.memo_api("h0", APP) as memo:
                    for i in range(40):
                        memo.put(key, f"post-{i}", wait=True)
            cluster.resync_all()  # ordinary delta sweep, healed fabric
            got = drain(cluster, "h2", key)
            assert set(got) >= {f"pre-{i}" for i in range(20)}
            assert set(got) >= {f"post-{i}" for i in range(40)}
        finally:
            cluster.stop()

    def test_respawn_resumes_stamping_past_dead_incarnation(self, tmp_path):
        """Post-restart stamps must not reuse the dead incarnation's
        origin coordinates, or replica-side dedup drops fresh backups."""
        cluster = make_cluster(tmp_path, durable=False)
        try:
            key = key_primaried_on(cluster, "h1")
            with cluster.memo_api("h0", APP) as memo:
                for i in range(10):
                    memo.put(key, f"old-{i}", wait=True)
            sid = chain_for(cluster, key.symbol.name)[0][0]
            dead_clock = cluster.servers["h1"]._folder_servers[sid].current_lsn()
            cluster.kill_host("h1")
            time.sleep(0.5)
            cluster.restart_host("h1")
            store = cluster.servers["h1"]._folder_servers[sid]
            assert store.current_lsn() >= dead_clock
            assert store.resync_floor() >= dead_clock
        finally:
            cluster.stop()


class TestAntiEntropySweep:
    def test_sweep_heals_partition_divergence(self, tmp_path):
        cluster = make_cluster(tmp_path)
        try:
            key = key_primaried_on(cluster, "h0")
            chain = chain_for(cluster, key.symbol.name)
            backup = chain[1][1]
            other = next(h for h in HOSTS if h not in (chain[0][1], backup))
            # Writes accepted while the primary cannot reach its backup
            # leave the replica store behind.
            with partitioned(cluster.fabric, "h0", backup):
                with cluster.memo_api("h0", APP) as memo:
                    for i in range(8):
                        memo.put(key, f"div-{i}", wait=True)
            # The backup keys the replica store by its own chain-entry sid.
            replica = cluster.servers[backup]._replica_server(chain[1][0])
            before = len(replica.snapshot_state()[1])

            cluster.start_anti_entropy(0.05)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if len(replica.snapshot_state()[1]) > before:
                    break
                time.sleep(0.05)
            cluster.stop_anti_entropy()

            dump = {
                name: [m.payload for m in memos]
                for name, memos, _delayed in replica.snapshot_state()[1]
            }
            healed = dump.get(FolderName(APP, key), [])
            assert len(healed) == 8  # the backup caught up without a restart

            # And the healed copies actually serve: fail the primary over.
            cluster.kill_host(chain[0][1])
            time.sleep(0.5)
            got = drain(cluster, other, key)
            assert set(got) == {f"div-{i}" for i in range(8)}
        finally:
            cluster.stop()

    def test_sweep_is_idempotent_when_healthy(self, tmp_path):
        cluster = make_cluster(tmp_path)
        try:
            with cluster.memo_api("h0", APP) as memo:
                for i in range(10):
                    memo.put(Key(Symbol(f"k{i}")), f"v{i}", wait=True)
            first = cluster.resync_all()
            second = cluster.resync_all()
            for round_stats in (first, second):
                for peers in round_stats.values():
                    for stats in peers.values():
                        assert stats == {"returned": 0, "reseeded": 0}
        finally:
            cluster.stop()

    def test_start_twice_rejected_and_stop_idempotent(self, tmp_path):
        cluster = make_cluster(tmp_path)
        try:
            cluster.start_anti_entropy(30.0)
            with pytest.raises(RuntimeLaunchError):
                cluster.start_anti_entropy(30.0)
            cluster.stop_anti_entropy()
            cluster.stop_anti_entropy()  # no-op
            cluster.start_anti_entropy(30.0)  # restartable after stop
        finally:
            cluster.stop()
