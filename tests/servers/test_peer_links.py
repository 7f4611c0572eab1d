"""One link per peer: a server dials each next hop once, and every
exchange with it — forwards, replica copies, heartbeats — rides that link.

``memo.peer_dials`` (a server's ``StatsRequest`` counter) counts the links
it dialled.  A call that finds nobody reading a link reads it itself,
answering whatever other calls and waits the frames it meets belong to;
a standing reader runs only while something no leader reads for is
outstanding.  A quiet link carries a heartbeat; a busy one is its own proof
of life.  A link that had answered and then fails is reset, and every
call on it runs once more on a fresh dial (the stale rule).  A peer the
detector declares dead fails every call on its link but a consuming
read, which, like a relayed wait, has no deadline either.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.adf.defaults import system_default_adf
from repro.core.api import NIL
from repro.core.keys import FolderName, Key, Symbol
from repro.errors import ShutdownError
from repro.network.calls import Calls
from repro.network.protocol import Envelope, Heartbeat, PutRequest
from repro.replication.failure import FailureDetector
from repro.runtime.cluster import Cluster
from repro.servers.link import DEADLINES, PeerLink
from repro.servers import threadcache
from repro.servers.replicator import Replicator
from repro.transferable.wire import encode

APP = "links"


def owned_by(cluster, *chain: str, start: int = 0) -> Key:
    """A key whose folder's replica chain starts with *chain*."""
    reg = cluster.servers["h0"].registration(APP)
    for i in range(start, start + 10_000):
        key = Key(Symbol("k"), (i,))
        hosts = [h for _sid, h in reg.placement.replica_chain(FolderName(APP, key))]
        if tuple(hosts[: len(chain)]) == chain:
            return key
    raise AssertionError(f"no key with chain {chain}")


def wait_until(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.01)


def dials(cluster) -> dict[str, int]:
    return {h: s["memo.peer_dials"] for h, s in cluster.stats().items()}


@pytest.mark.parametrize("transport_kind", ["memory", "tcp"])
def test_an_idle_cluster_dials_nothing(transport_kind):
    """Heartbeats ride the links: after warm-up no server dials again."""
    adf = system_default_adf(["h0", "h1", "h2"], app=APP, replication_factor=2)
    cluster = Cluster(adf, transport_kind=transport_kind, heartbeat_interval=0.05)
    with cluster:
        cluster.register()
        with cluster.memo_api("h0", APP) as memo:
            for i in range(20):
                memo.put(Key(Symbol("warm"), (i,)), i, wait=True)
        time.sleep(0.3)  # every monitor has probed every peer a few times
        before = dials(cluster)
        time.sleep(1.0)
        after = dials(cluster)
        assert after == before
        assert all(n <= 2 for n in after.values()), after
        assert all(not s.failure.dead_hosts() for s in cluster.servers.values())


def _server_threads(host: str) -> int:
    prefix = f"memo-{host}"
    return sum(1 for t in threading.enumerate() if t.name.startswith(prefix))


@pytest.mark.parametrize("transport_kind", ["memory", "tcp"])
def test_concurrent_clients_share_one_link_per_peer(transport_kind):
    """Many clients putting at once through h0, with a short switch
    interval: every put is acked and stored once, each server still dials
    each peer at most once, and the peers' thread counts do not grow
    with the number of clients."""
    adf = system_default_adf(["h0", "h1", "h2"], app=APP, replication_factor=2)
    with Cluster(adf, transport_kind=transport_kind) as cluster:
        cluster.register()

        def clients(n: int, puts: int) -> None:
            errors = []

            def work(c: int) -> None:
                try:
                    with cluster.memo_api("h0", APP, f"c{n}.{c}") as memo:
                        for i in range(puts):
                            memo.put(Key(Symbol("p"), (n, c, i)), i, wait=True)
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(c,)) for c in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
            assert not errors, errors

        clients(4, 50)  # warm-up: every link is up, and every lane busy
        few = {h: _server_threads(h) for h in ("h1", "h2")}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients(16, 50)
        finally:
            sys.setswitchinterval(interval)
        many = {h: _server_threads(h) for h in ("h1", "h2")}
        stored = sum(
            fs.memo_count()
            for server in cluster.servers.values()
            for fs in server.local_folder_servers().values()
        )
        assert stored == 4 * 50 + 16 * 50
        # Each server dialled each of its two peers once, ever.
        assert all(n <= 2 for n in dials(cluster).values()), dials(cluster)
        # The peers serve h0's forwards on one session per link: four
        # times the clients at h0 is not a thread more at h1 or h2.
        assert all(many[h] <= few[h] + 1 for h in few), (few, many)


def _keys_owned_by(cluster, host: str, name: str, n: int) -> list[Key]:
    chain = cluster.servers["h0"].registration(APP).placement.replica_chain
    keys = (Key(Symbol(name), (i,)) for i in range(50 * n))
    return [k for k in keys if chain(FolderName(APP, k))[0][1] == host][:n]


@pytest.mark.parametrize("transport_kind", ["memory", "tcp"])
def test_leaders_and_followers_answer_every_call_and_wait_once(transport_kind):
    """Sixteen clients on h0, with a short switch interval, share the link
    to h1: forwarded acked puts, relayed waits that puts from h2 complete,
    and cancels racing those puts.  Every call and wait is answered once,
    no memo is lost or duplicated, and once the load stops no link keeps
    a standing reader: each server's thread count is back to where it was."""
    adf = system_default_adf(["h0", "h1", "h2"], app=APP)
    clients, rounds = 16, 12
    with Cluster(adf, transport_kind=transport_kind, idle_timeout=0.2) as cluster:
        cluster.register()
        keys = iter(_keys_owned_by(cluster, "h1", "s", clients * rounds * 2 + 2))
        with cluster.memo_api("h0", APP) as near, cluster.memo_api("h2", APP) as far:
            # Both links up, read only by the calls' own threads.
            warm = next(keys)
            near.put(warm, "warm", wait=True)
            far.put(warm, "warm", wait=True)

        def settled() -> bool:
            return all(s.cache.idle_count() == 0 for s in cluster.servers.values())

        time.sleep(0.5)  # the warm-up clients' sessions are over
        wait_until(settled)
        baseline = {h: _server_threads(h) for h in cluster.servers}
        outcomes: list = []
        errors: list = []

        def work(c: int, mine: list) -> None:
            try:
                with cluster.memo_api("h0", APP, f"near{c}") as memo, cluster.memo_api(
                    "h2", APP, f"far{c}"
                ) as feeder:
                    for i, (key, value) in enumerate(mine):
                        if i % 3 == 0:
                            memo.put(key, value, wait=True)
                            outcomes.append((key, value, "stored"))
                            continue
                        waiting = memo.get_async(key)
                        feeder.put(key, value, wait=True)
                        if i % 3 == 2 and waiting.cancel():
                            outcomes.append((key, value, "stored"))
                        else:
                            assert waiting.result(10) == value
                            outcomes.append((key, value, "taken"))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        work_of = [
            [(next(keys), f"v{c}.{i}") for i in range(rounds)] for c in range(clients)
        ]
        threads = [
            threading.Thread(target=work, args=(c, work_of[c])) for c in range(clients)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(outcomes) == clients * rounds
        with cluster.memo_api("h1", APP) as owner:
            assert owner.get_skip(warm) == owner.get_skip(warm) == "warm"
            # A cancel that lost the race to a push re-deposits the memo
            # it took: wait for those before reading anything.
            for key, value, outcome in outcomes:
                if outcome == "stored":
                    assert owner.get_copy_async(key).result(10) == value
            for key, value, outcome in outcomes:
                left = [owner.get_skip(key), owner.get_skip(key)]
                if outcome == "stored":
                    assert left == [value, NIL], (key, value, left)
                else:
                    assert left == [NIL, NIL], (key, value, left)
        assert all(s.stats["waiters_active"] == 0 for s in cluster.servers.values())
        wait_until(lambda: all(_server_threads(h) <= baseline[h] for h in baseline))


def test_a_restarted_owner_is_reached_through_the_stale_rule():
    """A link to a host that restarted meets the dead incarnation: its
    session answers mid-teardown or the link drops.  The forward runs
    once more on a fresh dial, reaches the new incarnation, and nobody
    suspects the owner."""
    adf = system_default_adf(["h0", "h1"], app=APP)
    with Cluster(adf) as cluster:
        cluster.register()
        for round_ in range(5):
            key = owned_by(cluster, "h1", start=100 * round_)
            h0 = cluster.servers["h0"]
            put = PutRequest(FolderName(APP, key), encode(round_))
            assert h0.handle(put).ok  # the link to h1 has answered
            cluster.restart_host("h1")
            reply = h0.handle(put)
            assert reply.ok, reply.error
            assert h0.failure.dead_hosts() == ()
            assert cluster.servers["h1"].local_folder_servers()


def test_a_call_from_the_links_own_reader_is_answered_at_once(monkeypatch):
    """A call made on the thread that reads its link — as a memo that a
    cancelled relayed wait consumed is re-deposited from the push being
    delivered — has that reading handed on at once, not after the
    hand-off delay, which is here far longer than the call may take."""
    monkeypatch.setattr(threadcache, "HAND_OFF_AFTER", 5.0)
    nested: list = []
    dispatch = Calls.dispatch

    def dispatch_then_call(calls, msg, cid):
        dispatch(calls, msg, cid)
        link = calls.role
        if isinstance(link, PeerLink) and link.host == "h1" and nested == [None]:
            started = time.monotonic()
            results, error = link.call(Heartbeat(host="h0"))
            nested[:] = [time.monotonic() - started, results[0], error]

    monkeypatch.setattr(Calls, "dispatch", dispatch_then_call)
    with _cluster(1) as cluster:
        cluster.register()
        h0 = cluster.servers["h0"]
        assert h0.router.call("h1", Heartbeat(host="h0")).ok  # dialled
        nested.append(None)
        assert h0.router.call("h1", Heartbeat(host="h0")).ok
        took, reply, error = nested
        assert error is None and reply.ok
        assert took < 1.0, took


@pytest.fixture
def held_back(monkeypatch):
    """Hold back the end of every link's reader (its retire) until the
    test sets the returned event, and record every host declared dead:
    a link that died looks usable, as when its reader has not yet seen
    the loss."""
    held = threading.Event()
    read_ended = PeerLink.read_ended

    def held_back(link):
        held.wait(10)
        read_ended(link)

    held.suspected = []
    monkeypatch.setattr(PeerLink, "read_ended", held_back)
    monkeypatch.setattr(
        FailureDetector, "mark_dead", lambda _d, host: held.suspected.append(host)
    )
    yield held
    held.set()


def _cluster(rf: int) -> Cluster:
    adf = system_default_adf(["h0", "h1", "h2"], app=APP, replication_factor=rf)
    # A monitor this slow probes nobody during a test.
    return Cluster(adf, heartbeat_interval=30.0)


@pytest.mark.parametrize("rf", [1, 2])
def test_concurrent_forwards_cross_a_restart_through_the_stale_rule(held_back, rf):
    """h0's link to h1 has answered; h1 restarts, and eight forwards meet
    the dead link at once.  The first to fail resets it, and every one of
    them — not only the first — runs once more on a fresh dial and is
    stored by the new incarnation.  Nobody suspects h1."""
    with _cluster(rf) as cluster:
        cluster.register()
        h0 = cluster.servers["h0"]
        keys = [owned_by(cluster, "h1", start=100 * i) for i in range(9)]
        assert h0.handle(PutRequest(FolderName(APP, keys.pop()), b"")).ok
        cluster.restart_host("h1")
        start = threading.Barrier(len(keys))
        replies: list = []

        def forward(key: Key) -> None:
            start.wait(10)
            put = PutRequest(FolderName(APP, key), encode(str(key)))
            replies.append(h0.handle(put))

        threads = [threading.Thread(target=forward, args=(k,)) for k in keys]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        held_back.set()
        assert [r.error for r in replies if not r.ok] == []
        assert len(replies) == len(keys)
        with cluster.memo_api("h0", APP) as memo:
            assert [memo.get_copy(k) for k in keys] == [str(k) for k in keys]
        assert held_back.suspected == []


def test_a_wait_on_a_reset_link_is_sent_again(held_back):
    """A relayed wait rides a link that is lost under it, and a forward
    finds the link stale: the reset sends the wait again the same way,
    on a fresh dial, and it gets the next memo.  A stale link is no
    evidence against its peer: nobody suspects h1."""
    with _cluster(2) as cluster:
        cluster.register()
        h0 = cluster.servers["h0"]
        key, other = owned_by(cluster, "h1"), owned_by(cluster, "h1", start=50)
        with cluster.memo_api("h0", APP) as memo:
            waiting = memo.get_async(key)
            wait_until(lambda: cluster.servers["h1"].stats["waiters_active"] == 1)
            h0.router._links["h1"].conn.close()  # h1 withdraws the wait
            wait_until(lambda: cluster.servers["h1"].stats["waiters_active"] == 0)
            assert h0.handle(PutRequest(FolderName(APP, other), encode(1))).ok
            held_back.set()
            wait_until(lambda: cluster.servers["h1"].stats["waiters_active"] == 1)
            memo.put(key, "next", wait=True)
            assert waiting.wait(10) == "next"
        assert held_back.suspected == []


def test_a_teardown_reply_from_beyond_the_next_hop_keeps_the_link(
    star_cluster, monkeypatch
):
    """s1 reaches s2 through the hub.  s2 answers mid-teardown: the hub's
    own link to s2 is the stale one, and the hub judges it; s1's link to
    the hub is healthy and is neither reset nor dialled again."""
    put = Replicator.put

    def dying(replicator, *args):
        if replicator.host == "s2":
            raise ShutdownError("server stopping")
        return put(replicator, *args)

    s1 = star_cluster.servers["s1"]
    chain = s1.registration("test").placement.replica_chain
    folders = [FolderName("test", Key(Symbol("beyond"), (i,))) for i in range(200)]
    first, second = [f for f in folders if chain(f)[0][1] == "s2"][:2]
    assert s1.handle(PutRequest(first, encode(0))).ok  # every link has answered
    monkeypatch.setattr(Replicator, "put", dying)
    reply = s1.handle(PutRequest(second, encode(1)))
    assert reply.error.startswith("shutdown:")
    assert star_cluster.stats()["s1"]["memo.peer_dials"] == 1


@pytest.mark.parametrize("read", ["get_skip", "get_alt_skip"])
def test_a_consuming_read_outlasts_the_data_deadline(monkeypatch, read):
    """A consuming read has no deadline.  The owner freezes mid-read for
    longer than a (shortened) data deadline: the reader keeps waiting,
    and gets the memo the owner takes when it thaws — no error, no
    failed probe, no memo lost with an abandoned reply."""
    monkeypatch.setitem(DEADLINES, Envelope, 0.2)
    failures: list = []
    monkeypatch.setattr(
        FailureDetector, "record_failure", lambda _d, host: failures.append(host)
    )
    frozen, thaw = threading.Event(), threading.Event()

    def freezing(serve):
        def frozen_read(replicator, *args):
            if replicator.host == "h1":
                frozen.set()
                thaw.wait(10)
            return serve(replicator, *args)

        return frozen_read

    monkeypatch.setattr(Replicator, "get", freezing(Replicator.get))
    monkeypatch.setattr(Replicator, "get_alt", freezing(Replicator.get_alt))
    adf = system_default_adf(["h0", "h1"], app=APP)
    with Cluster(adf) as cluster:
        cluster.register()
        key = owned_by(cluster, "h1")
        with cluster.memo_api("h0", APP) as memo:
            memo.put(key, "only", wait=True)
            got: list = []

            def consume() -> None:
                try:
                    if read == "get_skip":
                        got.append(memo.get_skip(key))
                    else:
                        got.append(memo.get_alt_skip([key])[1])
                except Exception as exc:  # noqa: BLE001 - asserted below
                    got.append(exc)

            reader = threading.Thread(target=consume, daemon=True)
            reader.start()
            assert frozen.wait(5)
            time.sleep(3 * DEADLINES[Envelope])
            assert got == []  # still waiting on the frozen owner
            thaw.set()
            reader.join(10)
            assert got == ["only"]
    assert failures == []


def _process_cluster(interval: float, threshold: int) -> Cluster:
    adf = system_default_adf(["h0", "h1", "h2"], app=APP, replication_factor=2)
    return Cluster(
        adf,
        backend="process",
        transport_kind="tcp",
        heartbeat_interval=interval,
        failure_threshold=threshold,
    ).start()


def _placement_twin(*chain: str) -> Key:
    """A key with *chain*, found on an in-process twin: placement is the
    ADF's, on any backend."""
    adf = system_default_adf(["h0", "h1", "h2"], app=APP, replication_factor=2)
    with Cluster(adf) as twin:
        twin.register()
        return owned_by(twin, *chain)


def test_a_paused_owner_does_not_wedge_an_acked_put():
    """SIGSTOP the owner: heartbeats on its quiet link miss their deadline,
    the detector declares it dead, its link's calls fail, and the put
    acks from the backup within the detector's bound."""
    interval, threshold = 0.1, 3
    key = _placement_twin("h1")
    cluster = _process_cluster(interval, threshold)
    try:
        cluster.register()
        memo = cluster.memo_api("h0", APP, "probe")
        memo.put(key, "before", wait=True)
        acked = threading.Event()

        def put() -> None:
            memo.put(key, "during", wait=True)
            acked.set()

        cluster.pause_host("h1")
        try:
            putter = threading.Thread(target=put, daemon=True)
            putter.start()
            bound = threshold * (interval + DEADLINES[Heartbeat]) + 2.0
            assert acked.wait(bound), f"no ack within {bound} s"
        finally:
            cluster.resume_host("h1")
        putter.join(10)
    finally:
        cluster.stop()


def test_a_read_on_a_frozen_owner_declared_dead_is_not_abandoned():
    """The owner is SIGSTOPped and its backup is down: the detector soon
    declares the owner dead too, but a get_skip already sent to it keeps
    waiting rather than failing — when the owner thaws it takes the memo,
    and the reply must reach the reader, or the memo is lost."""
    key = _placement_twin("h1", "h2")
    cluster = _process_cluster(0.05, 2)
    try:
        cluster.register()
        memo = cluster.memo_api("h0", APP, "reader")
        memo.put(key, "only", wait=True)
        cluster.kill_host("h2")
        cluster.pause_host("h1")
        got: list = []

        def read() -> None:
            try:
                got.append(memo.get_skip(key))
            except Exception as exc:  # noqa: BLE001 - asserted below
                got.append(exc)

        reader = threading.Thread(target=read, daemon=True)
        try:
            reader.start()
            # Past the detector's bound: h0 now holds h1 dead.
            time.sleep(2 * (0.05 + DEADLINES[Heartbeat]) + 1.0)
        finally:
            cluster.resume_host("h1")
        reader.join(15)
        assert not reader.is_alive()
        assert got == ["only"], got
    finally:
        cluster.stop()
