"""The memo server's outside surface, pinned: the ``StatsRequest`` key set
(``bench/`` reads these names) and the error-text conventions clients act
on.  Both lists were written from the commit before ``memo_server.py`` was
split into session / router / replicator; a refactor that moves either
fails here."""

import re
import time


from repro import Cluster, system_default_adf
from repro.core.keys import FolderName, Key, Symbol
from repro.durability.config import DurabilityConfig
from repro.errors import (
    CommunicationError,
    FolderMigratedError,
    HostDownError,
    NotRegisteredError,
    ProtocolError,
    RoutingError,
    ServerError,
    ShutdownError,
)
from repro.network.protocol import retryable, shutting_down

HOSTS = ["h1", "h2", "h3"]

#: Every host's sorted StatsRequest keys after the script below, folder
#: server ids normalised to ``<sid>``.
STATS_KEYS = """
cache.cache_hits cache.submitted cache.threads_created cache.threads_expired
codec.folder_intern_misses codec.folder_intern_size
durability.fsync_ms durability.fsyncs durability.snapshot_age_s
durability.snapshots_written durability.stores durability.wal_bytes
durability.wal_records durability.wal_replayed
failure.suspected_hosts
folder.<sid>.async_cancelled folder.<sid>.async_parked folder.<sid>.blocked_waits
folder.<sid>.copies folder.<sid>.delayed_parked folder.<sid>.delayed_released
folder.<sid>.folders_created folder.<sid>.folders_vanished folder.<sid>.gets
folder.<sid>.live_folders folder.<sid>.live_memos folder.<sid>.puts
folder.<sid>.skip_misses folder.<sid>.skips
memo.errors memo.failover_dispatches memo.forwards_in memo.forwards_out
memo.forwards_relayed memo.local_dispatches memo.peer_dials
memo.pipelined_batches memo.pipelined_requests memo.push_frames memo.registrations
memo.replication_failures memo.replications_in memo.replications_out
memo.requests memo.resync_reseed_skipped memo.resync_reseeded
memo.resync_returned memo.waiters_active memo.waiters_cancelled
memo.waiters_completed memo.waiters_parked
replica.<sid>.live_folders replica.<sid>.live_memos
""".split()


def test_stats_reply_key_set_is_the_parents(tmp_path):
    adf = system_default_adf(HOSTS, app="surf", replication_factor=2)
    cfg = DurabilityConfig(data_dir=str(tmp_path), fsync="always")
    with Cluster(
        adf, durability=cfg, idle_timeout=0.5, heartbeat_interval=0.05,
        failure_threshold=2,
    ) as cluster:
        cluster.register()
        reg = cluster.servers["h1"].registration("surf")
        memo = cluster.memo_api("h1", "surf", "m")
        for i in range(20):
            memo.put(Key(Symbol("k"), (i,)), i, wait=True)
        # A wait parked from a non-owner, then completed.
        wait_key = next(
            key
            for key in (Key(Symbol("w"), (i,)) for i in range(400))
            if reg.placement.replica_chain(FolderName("surf", key))[0][1] != "h1"
        )
        future = memo.get_async(wait_key)
        time.sleep(0.1)
        cluster.memo_api("h3", "surf", "p").put(wait_key, "woke", wait=True)
        assert future.wait(timeout=10) == "woke"
        memo.get_alt_skip([Key(Symbol("k"), (0,)), Key(Symbol("k"), (1,))])
        cluster.kill_host("h2")
        time.sleep(0.3)
        cluster.restart_host("h2")
        time.sleep(0.3)
        every = cluster.stats()
        for host, stats in every.items():
            keys = {re.sub(r"^(folder|replica)\.[^.]+\.", r"\1.<sid>.", k) for k in stats}
            assert sorted(keys) == STATS_KEYS, host
        # The values the script determines, not only the names.
        assert {h: s["memo.registrations"] for h, s in every.items()} == {
            h: 1 for h in HOSTS
        }
        def primary(key):
            return reg.placement.replica_chain(FolderName("surf", key))[0][1]

        # h2's counters restarted with it: count the puts whose primary
        # outlived the script.
        put_keys = [Key(Symbol("k"), (i,)) for i in range(20)] + [wait_key]
        made = sum(primary(key) != "h2" for key in put_keys)
        puts = sum(
            v for s in every.values() for k, v in s.items()
            if k.startswith("folder.") and k.endswith(".puts")
        )
        assert made > 0 and puts >= made
        owner = primary(wait_key)
        for host, s in every.items():
            assert s["memo.waiters_active"] == 0, host
        for host in ("h1", owner):
            s = every[host]
            assert s["memo.waiters_parked"] == (
                s["memo.waiters_completed"] + s["memo.waiters_cancelled"]
            ), host
        assert every["h1"]["memo.waiters_parked"] >= 1


def test_retry_predicates_agree_with_the_inline_tests_they_replaced(one_host_cluster):
    server = one_host_cluster.servers["solo"]

    def emitted(exc):
        def fail():
            raise exc

        return server.guarded(fail).error

    texts = [
        emitted(ShutdownError("folder server 0 is shut down")),
        emitted(HostDownError("no reachable replica for k (chain ['h2']): h2: shutdown: x")),
        emitted(NotRegisteredError("application 'a' is not registered")),
        emitted(RoutingError("routing loop: h1 already in trail ('h1',)")),
        emitted(ServerError("host h1 has no folder server '9'")),
        emitted(FolderMigratedError("folder k migrated away")),
        emitted(ProtocolError("unhandled message Reply")),
        emitted(CommunicationError("no listener at h2:7094")),
        "shutdown: server stopped before the request was served",
        "shutdown: server stopping; relayed wait ended",
        "shutdown: link to h2 lost",
        "FolderMigratedError: folder k migrated away",
        "folder k kept migrating; giving up",
        "internal error: KeyError: 'x'",
        "",
    ]
    prefixes = {text.split(":")[0] for text in texts[:8]}
    assert prefixes == {
        "shutdown", "host down", "NotRegisteredError", "RoutingError", "ServerError",
        "FolderMigratedError", "ProtocolError", "communication failure",
    }
    for text in texts:
        assert shutting_down(text) == text.startswith("shutdown:"), text
        assert retryable(text) == (
            "FolderMigratedError" in text or text.startswith("shutdown:")
        ), text
    assert [t for t in texts if retryable(t)] == [
        texts[0], texts[5], texts[8], texts[9], texts[10], texts[11]
    ]
