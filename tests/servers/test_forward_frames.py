"""A forward is a hop: the owner reads the client's own frame.

A server that passes a request on — the entry server forwarding a lone
put or ``get_skip`` to the folder's owner, or a relay hop passing an
envelope member on toward its target — sends the frame it read, under a
link id, and never a re-encoding of what it decoded.  The frames below
spell a length with a two-byte uvarint where one byte would do: they
decode like the canonical spelling, but any re-encoding writes one byte,
so the bytes past the correlation id show which of the two left the
server.
"""

from __future__ import annotations

import pytest

from repro.adf.model import ADF, FolderDecl, HostDecl, LinkDecl, ProcessDecl
from repro.core.keys import FolderName, Key, Symbol
from repro.network.codec import decode_tagged, encode_message, split_correlated
from repro.network.protocol import (
    PUT_ACK,
    GetRequest,
    PutRequest,
    recv_tagged,
)
from repro.runtime.cluster import Cluster
from repro.servers.session import _ConnectionSession
from repro.transferable.wire import decode, encode

APP = "hop"


def line_cluster(*hosts: str) -> Cluster:
    """One folder server per host, linked in a line in the given order."""
    adf = ADF(app=APP)
    adf.hosts = [HostDecl(h, 1, "sun4", 1.0) for h in hosts]
    adf.folders = [FolderDecl(str(i), h) for i, h in enumerate(hosts)]
    adf.processes = [ProcessDecl("0", "boss", hosts[0])]
    adf.links = [LinkDecl(a, b, 1.0) for a, b in zip(hosts, hosts[1:])]
    return Cluster(adf, idle_timeout=0.5)


def owned_by(cluster, host: str) -> FolderName:
    chain = cluster.servers[host].registration(APP).placement.replica_chain
    names = (FolderName(APP, Key(Symbol("k"), (i,))) for i in range(400))
    return next(f for f in names if chain(f)[0][1] == host)


def long_spelled(msg, cid: int) -> bytes:
    """*msg*'s correlated frame with its last field's length (``origin``,
    a string under 128 bytes) spelled as a two-byte uvarint."""
    frame = encode_message(msg, cid)
    origin = msg.origin.encode()
    assert frame.endswith(bytes((len(origin),)) + origin)
    return frame[: -len(origin) - 1] + bytes((0x80 | len(origin), 0)) + origin


@pytest.fixture
def unpacked(monkeypatch):
    """``host -> member frames`` every session's ``_unpack`` read."""
    seen: dict[str, list[bytes]] = {}
    unpack = _ConnectionSession._unpack

    def spy(session, frames, envelope, refused):
        seen.setdefault(session.server.host, []).extend(frames)
        return unpack(session, frames, envelope, refused)

    monkeypatch.setattr(_ConnectionSession, "_unpack", spy)
    return seen


def exchange(cluster, host: str, frame: bytes, cid: int):
    """Send *frame* to *host* on a connection of its own; its reply."""
    server = cluster.servers[host]
    conn = cluster.backend.transport_for(host).connect(server.address)
    try:
        conn.send(frame)
        reply, got = recv_tagged(conn, timeout=5.0)
    finally:
        conn.close()
    assert got == cid
    return reply


def body(frame: bytes) -> bytes:
    """A correlated frame's bytes past its correlation id."""
    return split_correlated(frame)[1]


def test_the_spelling_survives_decode_and_not_re_encode():
    msg = PutRequest(folder=FolderName(APP, Key(Symbol("k"))), payload=b"v", origin="me")
    frame = long_spelled(msg, 9)
    assert decode_tagged(frame) == (msg, 9)
    assert body(frame) != body(encode_message(msg, 9))


@pytest.mark.parametrize("hosts", [("h0", "h1"), ("h0", "h1", "h2")])
def test_a_forwarded_put_and_get_skip_reach_the_owner_as_sent(unpacked, hosts):
    """A lone put and a ``get_skip`` sent to the first host for a folder
    the last one owns: every server they cross — a relay hop included —
    reads the client's bytes as the envelope member past its id."""
    with line_cluster(*hosts) as cluster:
        cluster.register()
        entry, owner = hosts[0], hosts[-1]
        folder = owned_by(cluster, owner)
        put = long_spelled(PutRequest(folder, encode(7), origin="client"), 41)
        get = long_spelled(GetRequest(folder, "skip", origin="client"), 42)
        assert exchange(cluster, entry, put, 41) is PUT_ACK
        reply = exchange(cluster, entry, get, 42)
        assert reply.found and decode(reply.payload) == 7
    for host in hosts[1:]:
        members = [body(frame) for frame in unpacked[host]]
        assert members == [body(put), body(get)], host
    assert entry not in unpacked  # the client's frames came alone
