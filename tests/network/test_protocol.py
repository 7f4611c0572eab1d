"""Unit tests for the typed protocol messages and their wire transfer."""

import threading

import pytest

from repro.core.keys import FolderName, Key, Symbol
from repro.errors import ProtocolError
from repro.network.codec import decode_message, encode_message
from repro.network.connection import Address
from repro.network.protocol import (
    PUT_ACK,
    Envelope,
    GetAltSkipRequest,
    GetRequest,
    PutDelayedRequest,
    PutRequest,
    RegisterRequest,
    Reply,
    ShutdownRequest,
    StatsRequest,
    decode_reply,
    put_ack_frame,
    recv_tagged,
    round_trip,
    send_message,
)
from repro.network.transport import InMemoryTransport, NetworkFabric
from repro.transferable.wire import encode


def folder(name="f", app="app"):
    return FolderName(app, Key(Symbol(name), (1, 2)))


class TestMessageEncoding:
    @pytest.mark.parametrize(
        "msg",
        [
            PutRequest(folder(), b"payload", "proc1"),
            PutDelayedRequest(folder("a"), folder("b"), b"x", "p"),
            GetRequest(folder(), mode="copy", origin="p"),
            GetAltSkipRequest(folders=(folder("a"), folder("b"))),
            RegisterRequest(
                app="inv",
                links={"h1": {"h2": 1.0}, "h2": {"h1": 1.0}},
                host_costs={"h1": 1.0, "h2": 2.0},
                folder_servers=(("0", "h1"), ("1", "h2")),
            ),
            StatsRequest("p"),
            ShutdownRequest("p"),
            Envelope("inv", "h2", (b"inner",), trail=("h1",)),
            Reply(ok=True, found=True, payload=b"v", folder=folder()),
            Reply(ok=False, error="boom"),
        ],
    )
    def test_roundtrip(self, msg):
        assert decode_message(encode_message(msg)) == msg

    def test_get_mode_validated(self):
        with pytest.raises(ProtocolError):
            GetRequest(folder(), mode="peek")

    def test_get_alt_requires_folders(self):
        with pytest.raises(ProtocolError):
            GetAltSkipRequest(folders=())

    def test_reply_stats_dict(self):
        msg = Reply(ok=True, stats={"memo.requests": 5, "age_s": -1.0})
        assert decode_message(encode_message(msg)).stats == {"memo.requests": 5, "age_s": -1.0}


class TestPutAckFrame:
    """A session's lone put ack is copied from a prebuilt frame, its id
    written in: the bytes the encoder writes, at every id width."""

    @pytest.mark.parametrize("cid", [0, 1, 127, 128, 16_383, 16_384, 2**63 - 1])
    def test_the_prebuilt_ack_is_the_encoded_ack(self, cid):
        frame = put_ack_frame(cid)
        assert frame == encode_message(PUT_ACK, cid)
        assert decode_reply(frame) == (PUT_ACK, cid)


class TestOverConnection:
    def test_send_recv_message(self):
        fabric = NetworkFabric()
        transport = InMemoryTransport(fabric, "h")
        listener = transport.listen(Address("h", 1))
        client = transport.connect(listener.address)
        server = listener.accept(timeout=2)

        sent = PutRequest(folder(), b"data", "me")
        size = send_message(client, sent)
        assert size > 0
        received, cid = recv_tagged(server, timeout=2)
        assert received == sent and cid is None

        send_message(server, Reply(ok=True, found=True, payload=b"data"), corr_id=5)
        reply, cid = recv_tagged(client, timeout=2)
        assert isinstance(reply, Reply) and reply.found and cid == 5

        client.close()
        server.close()
        listener.close()

    def test_non_protocol_message_rejected(self):
        fabric = NetworkFabric()
        transport = InMemoryTransport(fabric, "h")
        listener = transport.listen(Address("h", 1))
        client = transport.connect(listener.address)
        server = listener.accept(timeout=2)
        client.send(encode({"not": "a protocol message"}))
        with pytest.raises(ProtocolError):
            recv_tagged(server, timeout=2)
        client.close()
        server.close()

        # A reply under another request's id, or under none, is not the
        # reply to round_trip's request either.
        def answer(shift):
            conn = listener.accept(timeout=2)
            _request, cid = recv_tagged(conn, timeout=2)
            send_message(conn, Reply(), corr_id=None if shift is None else cid + shift)
            conn.close()

        for shift in (1, None):
            thread = threading.Thread(target=answer, args=(shift,))
            thread.start()
            with pytest.raises(ProtocolError, match="reply to request"):
                round_trip(transport, listener.address, StatsRequest("p"), timeout=2)
            thread.join()
        listener.close()
