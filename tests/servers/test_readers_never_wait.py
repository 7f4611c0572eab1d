"""Nothing that reads ever waits on a peer.

A session's reader serves what it reads and goes back to reading (paper
section 4.1); a request that needs a peer's answer is finished by a
continuation, run by whichever thread reads that answer.  So no reader —
and no thread dispatching a peer link's frame — ever waits on an engine
slot as a follower or on a join lock, and traffic crossing between two
hosts, each waiting on the other, never stalls.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.adf.defaults import system_default_adf
from repro.core.keys import FolderName, Key, Symbol
from repro.network.calls import Calls
from repro.network.protocol import PutRequest
from repro.runtime.cluster import Cluster
from repro.servers.session import _ConnectionSession
from repro.servers.threadcache import Join
from repro.transferable.wire import encode

APP = "readers"


def keys_owned_by(cluster, host: str, n: int, name: str = "k") -> list[Key]:
    """*n* keys whose folder's replica chain starts at *host*."""
    chain = cluster.servers[host].registration(APP).placement.replica_chain
    keys = (Key(Symbol(name), (i,)) for i in range(200 * n))
    return [k for k in keys if chain(FolderName(APP, k))[0][1] == host][:n]


@pytest.fixture
def waits(monkeypatch):
    """``(waits, readers)``: every wait a thread makes on a peer's answer —
    as a follower on an engine slot, or on a join lock — as ``(kind, on a
    reader?, inside a dispatch?)``, and the sessions' reading threads."""
    readers: set = set()
    dispatching = threading.local()
    seen: list = []
    serve, dispatch = _ConnectionSession.serve, Calls.dispatch
    make_done, join_wait = Calls._make_done, Join.wait

    def noted(kind: str) -> None:
        thread = threading.current_thread()
        seen.append((kind, thread in readers, getattr(dispatching, "depth", 0) > 0))

    def spy_serve(session):
        readers.add(threading.current_thread())
        serve(session)

    def spy_dispatch(calls, msg, cid):
        dispatching.depth = getattr(dispatching, "depth", 0) + 1
        try:
            dispatch(calls, msg, cid)
        finally:
            dispatching.depth -= 1

    def spy_make_done(slot):
        noted("follower")
        return make_done(slot)

    def spy_join_wait(join):
        noted("join")
        return join_wait(join)

    monkeypatch.setattr(_ConnectionSession, "serve", spy_serve)
    monkeypatch.setattr(Calls, "dispatch", spy_dispatch)
    monkeypatch.setattr(Calls, "_make_done", staticmethod(spy_make_done))
    monkeypatch.setattr(Join, "wait", spy_join_wait)
    return seen, readers


@pytest.mark.parametrize("rf", [1, 2])
def test_no_reader_or_dispatch_waits_on_a_peer(waits, rf):
    """Acked puts, forwarded ``get_skip``s, relayed ``get``s — hits and
    waits a feeder's put completes — and a cancelled relayed wait, on a
    3-host TCP cluster: the only waits are the test's own."""
    adf = system_default_adf(["h0", "h1", "h2"], app=APP, replication_factor=rf)
    with Cluster(adf, transport_kind="tcp", heartbeat_interval=0.5) as cluster:
        cluster.register()
        keys = keys_owned_by(cluster, "h1", 130)
        with cluster.memo_api("h0", APP) as memo, cluster.memo_api("h2", APP) as feeder:
            for i, key in enumerate(keys[:100]):
                memo.put(key, i, wait=True)
            assert [memo.get_skip(k) for k in keys[:50]] == list(range(50))
            assert [memo.get(k) for k in keys[50:100]] == list(range(50, 100))
            for i, key in enumerate(keys[100:120]):
                waiting = memo.get_async(key)
                feeder.put(key, i, wait=True)
                assert waiting.wait(10) == i
            cancelled = memo.get_async(keys[120])
            time.sleep(0.05)
            assert cancelled.cancel()
            # A caller that reads nothing may wait: the positive control.
            h0 = cluster.servers["h0"]
            put = PutRequest(FolderName(APP, keys[121]), encode(0))
            assert h0.handle(put).ok
    seen, readers = waits
    assert readers
    assert ("join", False, False) in seen
    assert [w for w in seen if w[1] or w[2]] == []


def test_crossed_replicated_puts_never_stall():
    """Two hosts at rf 2 over TCP, four clients a side, each putting into
    folders whose chain is (the other host, its own): every put forwards
    to the other host, whose copy comes back.  Every put completes, and
    none takes a second — there is no timer left to break a cycle of
    waits, because no reader waits."""
    adf = system_default_adf(["h0", "h1"], app=APP, replication_factor=2)
    clients, puts = 4, 800
    with Cluster(adf, transport_kind="tcp", heartbeat_interval=0.5) as cluster:
        cluster.register()
        owned = {h: keys_owned_by(cluster, h, 16 * clients) for h in ("h0", "h1")}
        took: list = []
        errors: list = []

        def work(host: str, other: str, c: int) -> None:
            mine = owned[other][16 * c : 16 * (c + 1)]
            try:
                with cluster.memo_api(host, APP, f"{host}.{c}") as memo:
                    for i in range(puts):
                        started = time.perf_counter()
                        memo.put(mine[i % 16], i, wait=True)
                        took.append(time.perf_counter() - started)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(host, other, c))
            for host, other in (("h0", "h1"), ("h1", "h0"))
            for c in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(took) == 2 * clients * puts
    assert max(took) < 1.0, max(took)
