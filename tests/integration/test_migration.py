"""Integration: dynamic data migration (ownership rebalancing).

The paper's abstract promises "dynamic data migration across HC machines".
In the reproduction, a re-registration with new host costs changes the
cost-weighted placement, and :meth:`Cluster.rebalance` physically moves
folder contents to their new owners through ordinary routed puts.
"""

import copy

import pytest

from repro import Cluster
from repro.adf.model import ADF, FolderDecl, HostDecl, LinkDecl, ProcessDecl
from repro.core.keys import FolderName, Key, Symbol


def make_adf(weak_cost: float, strong_cost: float) -> ADF:
    adf = ADF(app="mig")
    adf.hosts = [
        HostDecl("h1", 1, "x", weak_cost),
        HostDecl("h2", 1, "x", strong_cost),
    ]
    adf.folders = [FolderDecl("0", "h1"), FolderDecl("1", "h2")]
    adf.processes = [ProcessDecl("0", "boss", "h1")]
    adf.links = [LinkDecl("h1", "h2")]
    return adf


N = 120


@pytest.fixture
def cluster():
    with Cluster(make_adf(1.0, 1.0), idle_timeout=0.5) as c:
        c.register()
        yield c


def owner_counts(cluster, app="mig", n=N):
    reg = cluster.servers["h1"].registration(app)
    counts = {"h1": 0, "h2": 0}
    for i in range(n):
        _sid, owner = reg.placement.place_host(
            FolderName(app, Key(Symbol("d"), (i,)))
        )
        counts[owner] += 1
    return counts


class TestRebalance:
    def test_data_survives_ownership_change(self, cluster):
        memo = cluster.memo_api("h1", "mig")
        for i in range(N):
            memo.put(Key(Symbol("d"), (i,)), i, wait=True)

        before = owner_counts(cluster)
        # h2 becomes 8x cheaper: most folders should move to it.
        stats = cluster.rebalance(make_adf(1.0, 0.125))
        after = owner_counts(cluster)
        assert after["h2"] > before["h2"]
        assert sum(s["migrated_memos"] for s in stats.values()) > 0

        # Every memo is still exactly once in the space.
        for i in range(N):
            assert memo.get(Key(Symbol("d"), (i,))) == i

    def test_migration_moves_live_memos_between_hosts(self, cluster):
        memo = cluster.memo_api("h1", "mig")
        for i in range(N):
            memo.put(Key(Symbol("d"), (i,)), {"v": i}, wait=True)
        live_before = {
            host: sum(
                fs.memo_count()
                for fs in cluster.servers[host].local_folder_servers().values()
            )
            for host in ("h1", "h2")
        }
        cluster.rebalance(make_adf(1.0, 0.125))
        live_after = {
            host: sum(
                fs.memo_count()
                for fs in cluster.servers[host].local_folder_servers().values()
            )
            for host in ("h1", "h2")
        }
        assert sum(live_after.values()) == sum(live_before.values()) == N
        assert live_after["h2"] > live_before["h2"]

    def test_delayed_memos_migrate_intact(self, cluster):
        memo = cluster.memo_api("h1", "mig")
        trigger = Key(Symbol("trigger"))
        dest = Key(Symbol("dest"))
        memo.put_delayed(trigger, dest, "delayed-payload", wait=True)
        cluster.rebalance(make_adf(1.0, 0.125))
        # The delayed memo still fires on arrival after migration.
        memo.put(trigger, "arrival", wait=True)
        assert memo.get(dest) == "delayed-payload"

    def test_rebalance_is_idempotent_when_nothing_changes(self, cluster):
        memo = cluster.memo_api("h1", "mig")
        for i in range(20):
            memo.put(Key(Symbol("d"), (i,)), i, wait=True)
        cluster.rebalance(make_adf(1.0, 0.125))
        stats2 = cluster.rebalance(make_adf(1.0, 0.125))
        assert all(s["migrated_memos"] == 0 for s in stats2.values())

    def test_new_puts_use_new_placement(self, cluster):
        cluster.rebalance(make_adf(1.0, 0.125))
        memo = cluster.memo_api("h1", "mig")
        for i in range(60):
            memo.put(Key(Symbol("fresh"), (i,)), i, wait=True)
        per_host = {
            host: sum(
                fs.stats["puts"]
                for fs in cluster.servers[host].local_folder_servers().values()
            )
            for host in ("h1", "h2")
        }
        assert per_host["h2"] > per_host["h1"]
