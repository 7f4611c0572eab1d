"""Placement caching: unit behaviour and routing invalidation.

The epoch-guarded :class:`PlacementCache` memoizes the memo server's
steady-state routing decision; these tests pin the invalidation contract —
re-registration and liveness flips must change routing immediately, never
serve a stale cached chain.
"""

import pytest

from repro import Cluster, system_default_adf
from repro.adf.model import ADF, FolderDecl, HostDecl, ProcessDecl
from repro.adf.topology import fully_connected_links
from repro.core.keys import FolderName, Key, Symbol
from repro.errors import ServerError
from repro.servers.hashing import PlacementCache


def folder(i, app="app"):
    return FolderName(app, Key(Symbol("f"), (i,)))


class TestPlacementCacheUnit:
    def test_get_put_roundtrip(self):
        cache = PlacementCache()
        assert cache.get("k") is None
        cache.put("k", cache.epoch, "value")
        assert cache.get("k") == "value"
        assert len(cache) == 1

    def test_bump_invalidates_everything(self):
        cache = PlacementCache()
        cache.put("a", cache.epoch, 1)
        cache.put("b", cache.epoch, 2)
        cache.bump()
        assert cache.get("a") is None
        assert cache.get("b") is None
        assert len(cache) == 0

    def test_stale_epoch_publish_is_dropped(self):
        """A bump racing a computation must win: the late put is rejected."""
        cache = PlacementCache()
        epoch = cache.epoch  # captured before the "computation"
        cache.bump()  # ...which a registration/failure event interrupts
        cache.put("k", epoch, "stale-route")
        assert cache.get("k") is None

    def test_size_bound_clears(self):
        cache = PlacementCache(max_entries=4)
        for i in range(4):
            cache.put(i, cache.epoch, i)
        cache.put(99, cache.epoch, 99)  # overflow clears, then inserts
        assert len(cache) == 1
        assert cache.get(99) == 99

    def test_rejects_bad_bound(self):
        with pytest.raises(ServerError):
            PlacementCache(max_entries=0)


class TestRoutingInvalidation:
    def test_reregistration_changes_routing(self):
        """After re-registering with a different folder-server set, puts
        must land on the new owner — a cached pre-registration route would
        send them to a host that no longer serves the app's folders."""
        hosts = ["h1", "h2"]
        cluster = Cluster(system_default_adf(hosts, app="app")).start()
        try:
            cluster.register()
            memo = cluster.memo_api("h1", "app")
            # Warm every server's placement cache across both owners.
            for i in range(16):
                memo.put(Key(Symbol("f"), (i,)), i, wait=True)

            # Re-register the same app with all folders served on h1 only.
            new_adf = ADF(app="app")
            new_adf.hosts = [HostDecl(h) for h in hosts]
            new_adf.folders = [FolderDecl("only", "h1")]
            new_adf.processes = [ProcessDecl("0", "boss", "h1")]
            new_adf.links = fully_connected_links(hosts)
            cluster.register(new_adf)

            # Re-put the *same* warmed keys: their cached routes named the
            # old owners, so only a bumped cache lands them on "only"@h1.
            for i in range(16):
                memo.put(Key(Symbol("f"), (i,)), i + 100, wait=True)
            server_h1 = cluster.servers["h1"]
            stores = server_h1.local_folder_servers()
            assert "only" in stores
            held = {
                name
                for name, _m, _d in stores["only"].snapshot_folders(
                    lambda n: n.app == "app"
                )
            }
            assert {folder(i) for i in range(16)} <= held
        finally:
            cluster.stop()

    def test_kill_host_changes_routing(self):
        """A liveness flip must invalidate cached candidate lists: reads of
        folders primaried on the dead host have to fail over to a backup."""
        hosts = ["h1", "h2", "h3"]
        adf = system_default_adf(hosts, app="app", replication_factor=2)
        cluster = Cluster(
            adf, heartbeat_interval=0.05, failure_threshold=2
        ).start()
        try:
            cluster.register()
            memo = cluster.memo_api("h1", "app")
            reg = cluster.servers["h1"].registration("app")
            victims = [
                Key(Symbol("f"), (i,))
                for i in range(200)
                if reg.placement.replica_chain(folder(i))[0][1] == "h2"
            ][:10]
            assert victims, "no folder primaried on h2 in the sample"
            for key in victims:
                memo.put(key, "v", wait=True)
            # Warm h1's routing cache with the healthy candidate lists.
            for key in victims:
                assert memo.get_copy(key) == "v"

            epoch_before = cluster.servers["h1"].placement_cache.epoch
            cluster.kill_host("h2")
            # Every get must now route past the dead primary to a backup.
            for key in victims:
                assert memo.get_copy(key) == "v"
            assert cluster.servers["h1"].placement_cache.epoch > epoch_before
            assert cluster.servers["h1"].stats["failover_dispatches"] >= 0
        finally:
            cluster.stop()

    def test_steady_state_routing_uses_cache(self):
        """Repeated requests for the same folder hit the cache, and the
        cached route stays byte-identical to the recomputed one."""
        cluster = Cluster(system_default_adf(["h1", "h2"], app="app")).start()
        try:
            cluster.register()
            memo = cluster.memo_api("h1", "app")
            key = Key(Symbol("hot"), (7,))
            for _ in range(5):
                memo.put(key, 1, wait=True)
            server = cluster.servers["h1"]
            name = FolderName("app", key)
            cached = server.placement_cache.get(("app", name.canonical()))
            assert cached is not None
            chain, candidates = cached
            reg = server.registration("app")
            assert chain == reg.placement.replica_chain(name)
            assert list(chain) == list(candidates)
        finally:
            cluster.stop()
