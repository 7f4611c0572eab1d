"""Cold restarts: kill everything, boot a fresh cluster on the same data
dir, and observe every acknowledged put come back — the tentpole guarantee
of the durable folder stores."""

from collections import Counter

import pytest

from repro.adf.defaults import system_default_adf
from repro.core.keys import Key, Symbol
from repro.durability.config import DurabilityConfig
from repro.runtime.cluster import Cluster

HOSTS = ["h0", "h1", "h2"]
KEYS = [Key(Symbol(name)) for name in ("alpha", "beta", "gamma")]


def make_cluster(tmp_path, *, fsync="always", snapshot_every=8):
    """A 3-host replicated cluster journaling into *tmp_path*."""
    adf = system_default_adf(HOSTS, app="cold", replication_factor=2)
    cfg = DurabilityConfig(
        data_dir=str(tmp_path), fsync=fsync, snapshot_every=snapshot_every
    )
    cluster = Cluster(adf, durability=cfg, idle_timeout=0.5).start()
    cluster.register()
    return cluster


def drain_all(cluster, host="h0"):
    """Consume every available memo from every test folder, as a Counter."""
    got = Counter()
    with cluster.memo_api(host, "cold") as memo:
        for key in KEYS:
            for value in memo.drain(key):
                got[value] += 1
    return got


class TestColdRestart:
    def test_kill_all_cold_restart_zero_acked_loss(self, tmp_path):
        cluster = make_cluster(tmp_path)
        acked = Counter()
        with cluster.memo_api("h0", "cold") as memo:
            for i in range(30):
                key = KEYS[i % len(KEYS)]
                memo.put(key, f"job-{i}", wait=True)
                acked[f"job-{i}"] += 1
        # Abrupt end: every host goes down; fsync=always means each acked
        # put already reached disk before its ack.
        for host in HOSTS:
            cluster.kill_host(host)
        cluster.stop()

        reborn = make_cluster(tmp_path)
        try:
            reborn.resync_all()
            got = drain_all(reborn)
            assert got == acked  # every acked put, exactly once
        finally:
            reborn.stop()

    def test_consumed_memos_stay_consumed(self, tmp_path):
        cluster = make_cluster(tmp_path)
        with cluster.memo_api("h1", "cold") as memo:
            for i in range(10):
                memo.put(KEYS[0], f"v{i}", wait=True)
            eaten = {memo.get(KEYS[0]) for _ in range(4)}
        cluster.stop()

        reborn = make_cluster(tmp_path)
        try:
            reborn.resync_all()
            got = drain_all(reborn)
            assert sum(got.values()) == 6
            assert set(got) == {f"v{i}" for i in range(10)} - eaten
        finally:
            reborn.stop()

    def test_delayed_puts_survive_and_trigger_after_restart(self, tmp_path):
        gate, out = Key(Symbol("gate")), Key(Symbol("out"))
        cluster = make_cluster(tmp_path)
        with cluster.memo_api("h0", "cold") as memo:
            memo.put_delayed(gate, out, "parked", wait=True)
        cluster.stop()

        reborn = make_cluster(tmp_path)
        try:
            reborn.resync_all()
            with reborn.memo_api("h2", "cold") as memo:
                memo.put(gate, "trigger", wait=True)
                assert memo.get(out) == "parked"
                assert memo.get(gate) == "trigger"
        finally:
            reborn.stop()

    def test_snapshots_bound_replay_not_correctness(self, tmp_path):
        """With aggressive snapshotting most of the state loads compacted,
        and the result is identical to pure-WAL replay."""
        cluster = make_cluster(tmp_path, snapshot_every=4)
        acked = Counter()
        with cluster.memo_api("h0", "cold") as memo:
            for i in range(40):
                memo.put(KEYS[i % len(KEYS)], f"s{i}", wait=True)
                acked[f"s{i}"] += 1
        cluster.stop()

        reborn = make_cluster(tmp_path, snapshot_every=4)
        try:
            reborn.resync_all()
            assert drain_all(reborn, host="h1") == acked
            replayed = sum(
                server.telemetry.snapshot()["durability.wal_replayed"]
                for server in reborn.servers.values()
            )
            assert replayed >= 40
        finally:
            reborn.stop()

    def test_fsync_batch_orderly_shutdown_loses_nothing(self, tmp_path):
        """Batched fsync defers durability, but stop() flushes everything."""
        cluster = make_cluster(tmp_path, fsync="batch")
        with cluster.memo_api("h0", "cold") as memo:
            for i in range(15):
                memo.put(KEYS[0], f"b{i}", wait=True)
        cluster.stop()

        reborn = make_cluster(tmp_path, fsync="batch")
        try:
            reborn.resync_all()
            got = drain_all(reborn, host="h2")
            assert sum(got.values()) == 15
        finally:
            reborn.stop()


class TestDurabilityViaADF:
    def test_adf_durability_section_drives_the_cluster(self, tmp_path):
        from repro.adf.parser import parse_adf

        text = (
            "APP adfdur\n"
            "HOSTS\n"
            "a1 1 sun4 1\n"
            "a2 1 sun4 1\n"
            "FOLDERS\n0 a1\n1 a2\n"
            "PROCESSES\n0 boss a1\n"
            "PPC\na1 <-> a2 1\n"
            f"DURABILITY\ndata_dir {tmp_path}\nfsync always\n"
        )
        adf = parse_adf(text)
        key = Key(Symbol("k"))
        with Cluster(adf, idle_timeout=0.5) as cluster:
            assert cluster.durability is not None
            cluster.register()
            with cluster.memo_api("a1", "adfdur") as memo:
                memo.put(key, "persisted", wait=True)

        with Cluster(parse_adf(text), idle_timeout=0.5) as reborn:
            reborn.register()
            with reborn.memo_api("a2", "adfdur") as memo:
                assert memo.get(key) == "persisted"
