"""Anti-entropy and lane-round copies travel as bursts, one exchange per
peer rather than one per record — and what a burst leaves unsettled takes
the per-record path without losing or doubling a record."""

from collections import Counter

import pytest

from repro.adf.defaults import system_default_adf
from repro.core.keys import FolderName, Key, Symbol
from repro.errors import CommunicationError, ConnectionClosedError, RoutingError
from repro.network.protocol import Reply, ResyncRequest
from repro.runtime.cluster import Cluster
from repro.servers.router import Router
from repro.transferable.wire import decode

APP = "bursts"
#: Memos put before the restart; about two thirds of them involve the
#: restarted host (as primary: returned, as backup: re-seeded).
N = 600


def make_cluster(hosts):
    adf = system_default_adf(hosts, app=APP, replication_factor=2)
    cluster = Cluster(adf, idle_timeout=0.5).start()
    cluster.register()
    return cluster


def key(i: int) -> Key:
    return Key(Symbol("r"), (i % 97,))


def load(cluster, n: int = N) -> None:
    with cluster.memo_api("h0", APP) as memo:
        memo.put_many((key(i), i) for i in range(n))
        memo.flush()


def primary_of(cluster, k: Key) -> str:
    reg = cluster.servers["h0"].registration(APP)
    return reg.placement.replica_chain(FolderName(APP, k))[0][1]


def held(stores) -> Counter:
    """Every value in *stores* (folder servers), with multiplicity."""
    values = Counter()
    for fs in stores.values():
        for name, memos, delayed in fs.snapshot_folders(lambda _n: True):
            for record in memos + [r for r, _rel in delayed]:
                values[decode(record.payload)] += 1
    return values


def restart_counting(cluster, host: str, monkeypatch) -> tuple[dict, int]:
    """Kill and restart *host*; returns the resync stats and how many
    peer exchanges (envelopes, of one request or a burst) the restart
    made."""
    cluster.kill_host(host)
    calls = []
    original = Router.send

    def counted(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(Router, "send", counted)
    stats = cluster.restart_host(host)
    return stats, len(calls)


def drained(cluster) -> Counter:
    got = Counter()
    with cluster.memo_api("h0", APP) as memo:
        for f in range(97):
            for value in memo.drain(key(f)):
                got[value] += 1
    return got


def per_record_burst(self, app, owner, entries, then):
    """A ``forward_burst`` that never sends: every entry unresolved."""
    then([None] * len(entries))


class TestResyncCost:
    def test_exchanges_do_not_grow_with_the_record_count(self, monkeypatch):
        """A log-less restart moving hundreds of records makes a handful of
        exchanges per peer — and moves exactly what the per-record path
        moves, every memo ending up in the cluster once."""
        hosts = ["h0", "h1", "h2"]
        cluster = make_cluster(hosts)
        try:
            load(cluster)
            stats, exchanges = restart_counting(cluster, "h1", monkeypatch)
            assert drained(cluster) == Counter(range(N))
        finally:
            cluster.stop()
        monkeypatch.undo()
        moved = sum(s["returned"] + s["reseeded"] for s in stats.values())
        assert moved >= 200, stats
        peers = len(hosts) - 1
        # Per peer: one burst of returns, one of re-seeds, and the copies
        # the restarted host's lane sends back — one burst per round of
        # at most 128 returned puts.  Per record it would be > moved.
        assert exchanges <= 8 * peers, (exchanges, stats)

        monkeypatch.setattr(Router, "forward_burst", per_record_burst)
        cluster = make_cluster(hosts)
        try:
            load(cluster)
            baseline, slow_exchanges = restart_counting(cluster, "h1", monkeypatch)
            assert drained(cluster) == Counter(range(N))
        finally:
            cluster.stop()
        assert stats == baseline
        assert slow_exchanges >= moved


class TestFallback:
    def test_unsettled_entries_take_the_per_record_path(self, monkeypatch):
        """Every other entry left unresolved and one answered with a
        non-ack reply: the per-record path delivers each exactly once."""
        original = Router.forward_burst
        refused = Reply(ok=False, error="ServerError: refused by the test")

        def half_burst(self, app, owner, entries, then):
            results = [None] * len(entries)
            sent = [i for i in range(2, len(entries), 2)]
            if entries:
                results[0] = refused

            def answered(replies):
                for i, reply in zip(sent, replies):
                    results[i] = reply
                then(results)

            if sent:
                original(self, app, owner, [entries[i] for i in sent], answered)
            else:
                then(results)

        cluster = make_cluster(["h0", "h1"])
        try:
            load(cluster)
            mine = Counter(
                {v: 1 for v in range(N) if primary_of(cluster, key(v)) == "h1"}
            )
            theirs = Counter(range(N)) - mine
            cluster.kill_host("h1")
            monkeypatch.setattr(Router, "forward_burst", half_burst)
            stats = cluster.restart_host("h1")
            h0, h1 = cluster.servers["h0"], cluster.servers["h1"]
            # Returned: at the requester exactly once, and the peer holds
            # exactly the requester's one fresh copy — nothing put back
            # beside it, nothing lost between the two.
            assert held(h1.local_folder_servers()) == mine
            assert held(h0.local_replica_servers()) == mine
            # Re-seeded: the requester's replica store holds each once.
            assert held(h1.local_replica_servers()) == theirs
            assert held(h0.local_folder_servers()) == theirs
            assert stats == {
                "h0": {"returned": len(mine), "reseeded": len(theirs)}
            }
        finally:
            cluster.stop()

    def test_backup_killed_mid_round_is_demoted_and_puts_acked(self, monkeypatch):
        """The backup dies as a put_many round's copy burst leaves: the
        primary demotes it and acknowledges every put."""
        cluster = make_cluster(["h0", "h1"])
        original = Router.forward_burst
        killed = []

        def kill_then_send(self, app, owner, entries, then):
            if owner == "h1" and not killed:
                killed.append(len(entries))
                cluster.kill_host("h1")
            original(self, app, owner, entries, then)

        try:
            ours = [key(f) for f in range(97) if primary_of(cluster, key(f)) == "h0"]
            monkeypatch.setattr(Router, "forward_burst", kill_then_send)
            with cluster.memo_api("h0", APP) as memo:
                memo.put_many((ours[i % len(ours)], i) for i in range(400))
                memo.flush()  # raises if any put was not acknowledged
            assert killed and killed[0] > 1
            h0 = cluster.servers["h0"]
            assert not h0.failure.is_alive("h1")
            assert held(h0.local_folder_servers()) == Counter(range(400))
        finally:
            cluster.stop()


class TestPullErrors:
    """A restarted host's round (``Replicator.handle_resync_request``)
    skips a peer whose pull cannot be answered, and lets a bug raise."""

    @staticmethod
    def pull_raising(monkeypatch, error: Exception) -> dict:
        def raising(*_args):
            raise error

        cluster = make_cluster(["h0", "h1"])
        try:
            monkeypatch.setattr(Router, "call", raising)
            request = ResyncRequest(apps=(APP,), origin="test")
            return cluster.servers["h0"].replicator.handle_resync_request(request).stats
        finally:
            monkeypatch.undo()
            cluster.stop()

    @pytest.mark.parametrize(
        "error",
        [
            ConnectionClosedError("no listener"),
            CommunicationError("no reply from h1 in 10.0 s"),
            RoutingError("no address known for host 'h1'"),
        ],
    )
    def test_a_peer_that_cannot_answer_is_skipped(self, monkeypatch, error):
        stats = self.pull_raising(monkeypatch, error)
        assert stats == {"h1:returned": 0, "h1:reseeded": 0}

    def test_a_bug_in_the_reply_path_is_not_mistaken_for_a_dead_peer(
        self, monkeypatch
    ):
        with pytest.raises(TypeError):
            self.pull_raising(monkeypatch, TypeError("unsupported operand"))
