"""Compact codec: cross-codec round-trips, back-compat, frame rejection."""

import pytest

from repro.core.keys import FolderName, Key, Symbol
from repro.errors import DecodingError, ProtocolError
from repro.network import codec as c
from repro.network.codec import (
    COMPACT_MAGIC,
    decode_message,
    encode_message,
)
from repro.network.connection import Address
from repro.durability.records import (
    WalConsume,
    WalDelayed,
    WalDelayedClear,
    WalFolderDrop,
    WalPut,
)
from repro.network.protocol import (
    CancelWaitRequest,
    DeltaSyncPull,
    ForwardEnvelope,
    GetAltSkipRequest,
    GetRequest,
    GetWaitRequest,
    Heartbeat,
    MemoReady,
    MigrateRequest,
    PutDelayedRequest,
    PutRequest,
    RegisterRequest,
    ReplicatePut,
    Reply,
    ResyncRequest,
    ShutdownRequest,
    StatsRequest,
    WaitCancelled,
    recv_message,
    send_message,
)
from repro.network.transport import InMemoryTransport, NetworkFabric
from repro.transferable.wire import MAGIC as TLV_MAGIC
from repro.transferable.wire import encode as tlv_encode


def folder(name="f", app="app", index=(1, 2)):
    return FolderName(app, Key(Symbol(name), index))


# One representative instance per compact protocol message type
# (BurstEnvelope/PipelineBatch are covered by the correlation tests).
ALL_MESSAGES = [
    GetWaitRequest(folder(), mode="copy", waiter=77, origin="p"),
    CancelWaitRequest(waiter=77, origin="p"),
    MemoReady(waiter=77, folder=folder(), payload=b"pp"),
    WaitCancelled(waiter=77, reason="shutdown: gone"),
    PutRequest(folder(), b"payload", "proc1"),
    PutDelayedRequest(folder("a"), folder("b"), b"x", "p"),
    GetRequest(folder(), mode="copy", origin="p"),
    GetAltSkipRequest(folders=(folder("a"), folder("b", index=())), origin="p"),
    RegisterRequest(
        app="inv",
        links={"h1": {"h2": 1.0}, "h2": {"h1": 1.0}},
        host_costs={"h1": 1.0, "h2": 2.5},
        folder_servers=(("0", "h1"), ("1", "h2")),
        replication_factor=2,
    ),
    MigrateRequest(app="inv", origin="p"),
    ReplicatePut(
        app="inv",
        folder=folder(),
        payload=b"pp",
        origin="p",
        delayed=True,
        release_to=folder("g"),
    ),
    Heartbeat(host="h1", origin="p"),
    DeltaSyncPull(
        app="inv",
        requester="h2",
        primary_lsns={"0": 17, "1": 0},
        replica_marks={"0": 9},
        origin="p",
    ),
    StatsRequest(origin="p"),
    ShutdownRequest(origin="p"),
    ResyncRequest(apps=("inv", "pay"), origin="cluster"),
    ForwardEnvelope("inv", "h2", b"inner-bytes", trail=("h1", "h3")),
    Reply(ok=True, found=True, payload=b"v", folder=folder(), stats={"memo.requests": 5}),
]

_ids = [type(m).__name__ for m in ALL_MESSAGES]

# WAL records are compact-only: they live on disk inside log frames, never
# cross the wire, and so have no TLV fallback to stay compatible with.
WAL_MESSAGES = [
    WalPut(folder(), b"pay", origin="p", src_sid="0", src_lsn=4),
    WalConsume(folder(), digest=(3 << 32) | 12345, delayed=True),
    WalDelayed(folder("a"), folder("b"), b"x", origin="p", src_sid="1", src_lsn=2),
    WalDelayedClear(folder()),
    WalFolderDrop(folder()),
]

_wal_ids = [type(m).__name__ for m in WAL_MESSAGES]


class TestWalRecordRoundTrip:
    @pytest.mark.parametrize("msg", WAL_MESSAGES, ids=_wal_ids)
    def test_compact_roundtrip(self, msg):
        data = encode_message(msg)
        assert data[:2] == COMPACT_MAGIC
        assert decode_message(data) == msg

    @pytest.mark.parametrize("msg", WAL_MESSAGES, ids=_wal_ids)
    def test_truncated_frames_rejected(self, msg):
        data = encode_message(msg)
        for cut in range(4, len(data)):
            with pytest.raises(DecodingError):
                decode_message(data[:cut])


class TestCrossCodecRoundTrip:
    @pytest.mark.parametrize("msg", ALL_MESSAGES, ids=_ids)
    def test_compact_roundtrip(self, msg):
        data = encode_message(msg)
        assert data[:2] == COMPACT_MAGIC
        assert decode_message(data) == msg

    @pytest.mark.parametrize("msg", ALL_MESSAGES, ids=_ids)
    def test_tlv_fallback_still_decodes(self, msg):
        """A seed-era TLV control frame must decode unchanged."""
        data = tlv_encode(msg)
        assert data[:2] == TLV_MAGIC
        assert decode_message(data) == msg

    @pytest.mark.parametrize("msg", ALL_MESSAGES, ids=_ids)
    def test_compact_is_smaller(self, msg):
        assert len(encode_message(msg)) < len(tlv_encode(msg))

    def test_put_request_bytes_reduction_target(self):
        """The acceptance bar: >= 40% fewer wire bytes per PutRequest."""
        msg = PutRequest(folder(), b"x" * 64, "worker-3")
        compact, tlv = len(encode_message(msg)), len(tlv_encode(msg))
        assert compact <= 0.6 * tlv, (compact, tlv)

    def test_unregistered_type_falls_back_to_tlv(self):
        data = encode_message({"plain": ["transferable", 1]})
        assert data[:2] == TLV_MAGIC
        assert decode_message(data) == {"plain": ["transferable", 1]}

    def test_optional_fields_roundtrip(self):
        plain = ReplicatePut(app="a", folder=folder(), payload=b"", origin="")
        assert decode_message(encode_message(plain)) == plain
        empty = Reply()
        assert decode_message(encode_message(empty)) == empty


class TestFrameRejection:
    def test_unknown_magic_rejected(self):
        with pytest.raises(DecodingError, match="bad magic"):
            decode_message(b"ZZ\x01\x01garbage")

    def test_empty_and_tiny_frames_rejected(self):
        for data in (b"", b"D", b"DC", b"DC\x01"):
            with pytest.raises(DecodingError):
                decode_message(data)

    def test_unsupported_version_rejected(self):
        good = encode_message(Heartbeat(host="h"))
        with pytest.raises(DecodingError, match="version"):
            decode_message(good[:2] + b"\x7f" + good[3:])

    def test_unknown_tag_rejected(self):
        good = encode_message(Heartbeat(host="h"))
        with pytest.raises(DecodingError, match="unknown compact message tag"):
            decode_message(good[:3] + b"\xee" + good[4:])

    def test_retired_tag_9_rejected(self):
        """Tag 9 was the pre-delta full anti-entropy pull.  It is retired,
        not reassigned: a well-formed frame an old peer would send must
        fail to decode rather than be taken for another message."""
        from repro.errors import ProtocolError
        from repro.network import codec as c
        from repro.network.protocol import decode_protocol_frame

        frame = bytearray(b"DC\x01\x09")
        for field in ("inv", "h2", "p"):  # app, requester, origin
            c._w_str(frame, field)
        with pytest.raises(DecodingError, match="unknown compact message tag 0x9"):
            decode_message(bytes(frame))
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_protocol_frame(bytes(frame))

    def test_retired_tag_26_rejected(self):
        """Tag 26 was the host -> port map rebroadcast after a restart,
        while a restarted host drew a new port.  Retired like tag 9."""
        from repro.network import codec as c

        frame = bytearray(b"DC\x01\x1a")
        c._w_tlv(frame, {"h1": 50301, "h2": 50307})  # ports
        c._w_str(frame, "cluster")  # origin
        with pytest.raises(DecodingError, match="unknown compact message tag 0x1a"):
            decode_message(bytes(frame))

    @pytest.mark.parametrize("msg", ALL_MESSAGES, ids=_ids)
    def test_truncated_frames_rejected(self, msg):
        """Every strict prefix of a compact frame must fail loudly."""
        data = encode_message(msg)
        for cut in range(4, len(data)):
            with pytest.raises(DecodingError):
                decode_message(data[:cut])

    def test_trailing_garbage_rejected(self):
        data = encode_message(Heartbeat(host="h1"))
        with pytest.raises(DecodingError, match="trailing"):
            decode_message(data + b"\x00")

    def test_overlong_varint_rejected(self):
        # Header + PutRequest tag, then a varint that never terminates.
        with pytest.raises(DecodingError):
            decode_message(b"DC\x01\x01" + b"\xff" * 11)

    def test_hostile_folder_fields_rejected_as_decoding_errors(self):
        """Validation failures inside field readers (Symbol/Key/FolderName
        construction) must surface as DecodingError, not raw MemoError."""
        from repro.network import codec as c

        # GetRequest (tag 3) whose folder carries an empty symbol name.
        bad_symbol = bytearray(b"DC\x01\x03")
        c._w_str(bad_symbol, "app")
        c._w_str(bad_symbol, "")  # Symbol("") raises
        c._w_uv(bad_symbol, 0)
        c._w_str(bad_symbol, "get")
        c._w_str(bad_symbol, "")
        with pytest.raises(DecodingError, match="validation"):
            decode_message(bytes(bad_symbol))

        # PutRequest (tag 1) whose key index overflows unsigned 64-bit.
        bad_index = bytearray(b"DC\x01\x01")
        c._w_str(bad_index, "app")
        c._w_str(bad_index, "s")
        c._w_uv(bad_index, 1)
        c._w_uv(bad_index, 1 << 64)  # Key rejects > UINT64_MAX
        c._w_bytes(bad_index, b"")
        c._w_str(bad_index, "")
        with pytest.raises(DecodingError):
            decode_message(bytes(bad_index))

    def test_invalid_field_values_rejected(self):
        """Hostile bytes cannot construct a message validation would refuse."""
        bad_mode = GetRequest(folder(), mode="get")
        data = encode_message(bad_mode)
        # "get" is the last str field before origin; corrupt it to "gXt".
        patched = data.replace(b"\x03get", b"\x03gXt")
        assert patched != data
        with pytest.raises(DecodingError, match="validation"):
            decode_message(patched)


class TestOverConnection:
    def _pair(self):
        fabric = NetworkFabric()
        transport = InMemoryTransport(fabric, "h")
        listener = transport.listen(Address("h", 1))
        client = transport.connect(listener.address)
        server = listener.accept(timeout=2)
        return client, server, listener

    def test_mixed_codec_stream(self):
        """Compact and TLV frames interleave freely on one connection."""
        client, server, listener = self._pair()
        try:
            first = PutRequest(folder(), b"one", "p")
            second = GetRequest(folder(), mode="skip", origin="p")
            send_message(client, first)  # compact framing
            client.send(tlv_encode(second))  # a seed-era peer's framing
            assert recv_message(server, timeout=2) == first
            assert recv_message(server, timeout=2) == second
        finally:
            client.close()
            server.close()
            listener.close()

    def test_garbage_frame_surfaces_as_protocol_error(self):
        client, server, listener = self._pair()
        try:
            client.send(b"\x00\x01\x02\x03")
            with pytest.raises(ProtocolError):
                recv_message(server, timeout=2)
        finally:
            client.close()
            server.close()
            listener.close()


def _get_frame(field: bytes) -> bytes:
    """A GetRequest (tag 3) frame around a hand-built folder field."""
    out = bytearray(b"DC\x01\x03") + field
    c._w_str(out, "get")
    c._w_str(out, "")
    return bytes(out)


def _folder_field(app: bytes, symbol: bytes, index=()) -> bytes:
    out = bytearray()
    c._w_bytes(out, app)
    c._w_bytes(out, symbol)
    c._w_uv(out, len(index))
    for x in index:
        c._w_uv(out, x)
    return bytes(out)


class TestFolderInterning:
    """Folder fields decode once per distinct wire spelling, never unvalidated."""

    @pytest.fixture(autouse=True)
    def empty_table(self):
        c._FOLDERS.clear()
        yield
        c._FOLDERS.clear()

    def test_two_frames_share_one_folder_object(self):
        a = decode_message(encode_message(PutRequest(folder(), b"one", "p")))
        b = decode_message(encode_message(GetRequest(folder(), mode="copy")))
        fresh = folder()
        assert a.folder is b.folder
        assert a.folder == fresh and hash(a.folder) == hash(fresh)
        assert a.folder.canonical() == fresh.canonical()
        assert {fresh: 1}[a.folder] == 1
        assert c.folder_intern_stats()["folder_intern_size"] == 1

    def test_wal_records_share_the_table(self):
        put = decode_message(encode_message(PutRequest(folder(), b"v", "p")))
        rec = decode_message(encode_message(WalPut(folder(), b"v", origin="p")))
        assert rec.folder is put.folder

    def test_one_folder_is_validated_once_per_thousand_frames(self, monkeypatch):
        calls = []
        original = FolderName.__post_init__

        def counting(self):
            calls.append(self)
            original(self)

        frames = [
            encode_message(PutRequest(folder(), b"%d" % i, "p"), corr_id=i)
            for i in range(1000)
        ]
        monkeypatch.setattr(FolderName, "__post_init__", counting)
        decoded = [decode_message(f) for f in frames]
        assert len(calls) == 1
        assert all(m.folder is decoded[0].folder for m in decoded)
        assert [m.payload for m in decoded] == [b"%d" % i for i in range(1000)]

    @pytest.mark.parametrize(
        "frame",
        [
            _get_frame(_folder_field(b"", b"s", (1,))),
            _get_frame(_folder_field(b"app", b"", (1,))),
            _get_frame(_folder_field(b"app", b"a/b", (1,))),
            _get_frame(_folder_field(b"app", b"a\x00b", (1,))),
            _get_frame(_folder_field(b"app", b"\xff\xfe", (1,))),
            _get_frame(_folder_field(b"\xc3", b"s")),
            _get_frame(_folder_field(b"app", b"s", (1 << 64,))),
            _get_frame(_folder_field(b"app", b"s")[:-1] + b"\x01" + b"\xff" * 11),
            # Truncated inside the symbol, inside an index, before the count.
            b"DC\x01\x03" + _folder_field(b"app", b"symbol")[:7],
            b"DC\x01\x03" + _folder_field(b"app", b"s", (1 << 40,))[:-2],
            b"DC\x01\x03" + _folder_field(b"app", b"s")[:-1],
            # An index count far past the end of the frame.
            b"DC\x01\x03" + _folder_field(b"app", b"s")[:-1] + b"\xff\xff\xff\x7f",
        ],
        ids=[
            "empty-app", "empty-symbol", "slash", "nul", "bad-utf8-symbol",
            "bad-utf8-app", "index-past-u64", "endless-varint", "cut-in-symbol",
            "cut-in-index", "cut-before-count", "hostile-count",
        ],
    )
    def test_invalid_folder_is_rejected_every_time(self, frame):
        decode_message(encode_message(GetRequest(folder(), mode="get")))
        before = dict(c._FOLDERS)
        stats = c.folder_intern_stats()
        for _ in range(2):
            with pytest.raises(DecodingError):
                decode_message(frame)
        assert c._FOLDERS == before
        assert c.folder_intern_stats() == stats

    @pytest.mark.parametrize(
        "name",
        [
            folder(index=()),
            folder(index=(127,)),
            folder(index=(128,)),
            folder(index=(1 << 14,)),
            folder(index=((1 << 64) - 1,)),
            folder(index=(0, 128, 1 << 14, (1 << 64) - 1)),
            folder(index=tuple(range(300))),  # two-byte count
            folder(name="s" * 128),  # two-byte string length
            folder(name="é" * 9000, app="a" * (1 << 14)),  # three-byte lengths
        ],
        ids=[
            "empty", "127", "128", "2^14", "u64-max", "mixed", "300-indexes",
            "128-byte-symbol", "16k-strings",
        ],
    )
    def test_multibyte_varints_roundtrip(self, name):
        msg = PutDelayedRequest(name, folder("rel"), b"x", "p")
        data = encode_message(msg)
        first, second = decode_message(data), decode_message(data)
        assert first == msg and second == msg
        assert first.release_to is second.release_to
        # Short fields are shared; long ones are decoded afresh, never kept.
        field = bytearray()
        c._w_folder(field, name)
        shared = len(field) <= c._FOLDER_INTERN_MAX_FIELD
        assert (first.folder is second.folder) == shared
        assert all(
            len(raw) <= c._FOLDER_INTERN_MAX_FIELD
            for raw in c._FOLDERS
        )

    def test_each_wire_spelling_is_its_own_entry(self):
        canonical = _get_frame(_folder_field(b"app", b"s", (1,)))
        padded = _get_frame(_folder_field(b"app", b"s")[:-1] + b"\x01\x81\x00")
        a, b = decode_message(canonical), decode_message(padded)
        assert a == b and a.folder is not b.folder
        assert c.folder_intern_stats()["folder_intern_size"] == 2

    def test_table_is_bounded_and_decoding_stays_correct(self):
        cap = c._FOLDER_INTERN_CAP
        names = [folder(index=(i,)) for i in range(cap + 50)]
        frames = [encode_message(PutRequest(n, b"v", "p")) for n in names]
        misses = c.folder_intern_stats()["folder_intern_misses"]
        for _ in range(2):
            for name, frame in zip(names, frames):
                assert decode_message(frame).folder == name
                assert len(c._FOLDERS) <= cap
        stats = c.folder_intern_stats()
        assert stats["folder_intern_size"] <= cap
        assert stats["folder_intern_misses"] - misses >= len(names)

    def test_concurrent_decoders_never_see_a_wrong_folder(self):
        import sys
        import threading

        cap = c._FOLDER_INTERN_CAP
        names = [folder(index=(i,)) for i in range(cap + 200)]
        frames = [encode_message(PutRequest(n, b"v", "p")) for n in names]
        wrong: list = []

        def decoder(offset: int) -> None:
            for k in range(len(frames)):
                i = (k * 7 + offset * 131) % len(frames)
                got = decode_message(frames[i]).folder
                if got != names[i] or len(c._FOLDERS) > cap:
                    wrong.append((i, got))

        threads = [threading.Thread(target=decoder, args=(t,)) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        out = bytearray()
        for raw, name in list(c._FOLDERS.items()):
            out.clear()
            c._w_folder(out, name)
            assert bytes(out) == raw


_JAR = FolderName("app", Key(Symbol("jar"), (7, 300)))
_OUT = FolderName("app", Key(Symbol("out")))

# (message, correlation id, frame as commit 773e91c encoded it) — the
# commit before depositor and store names became the ``name`` field kind.
PARENT_FRAMES = [
    (
        PutRequest(_JAR, b"\x01\x02", "worker-é"),
        None,
        "4443010103617070036a61720207ac0202010209776f726b65722dc3a9",
    ),
    (PutRequest(_JAR, b"", ""), 300, "44430201ac0203617070036a61720207ac020000"),
    (
        PutDelayedRequest(_JAR, _OUT, b"late", "ж-proc"),
        5,
        "444302020503617070036a61720207ac0203617070036f757400046c61746507d0b62d"
        "70726f63",
    ),
    (
        ReplicatePut("app", _JAR, b"copy", "worker-é", False, None, "s-é", 77),
        9,
        "44430207090361707003617070036a61720207ac0204636f707909776f726b65722dc3"
        "a9000004732dc3a94d",
    ),
    (
        ReplicatePut("app", _JAR, b"d", "", True, _OUT, "", 0),
        None,
        "444301070361707003617070036a61720207ac02016400010103617070036f75740000"
        "00",
    ),
    (
        WalPut(_JAR, b"m1", "worker-é", "s-é", 1 << 41),
        None,
        "4443011503617070036a61720207ac02026d3109776f726b65722dc3a904732dc3a980"
        "8080808040",
    ),
    (WalPut(_OUT, b"", "", "", 0), None, "4443011503617070036f75740000000000"),
    (
        WalDelayed(_JAR, _OUT, b"late", "ж-proc", "s0", 12),
        None,
        "4443011703617070036a61720207ac0203617070036f757400046c61746507d0b62d70"
        "726f630273300c",
    ),
]


class TestFramesWrittenByTheParentCommit:
    """Sharing names changed what decoding allocates, not one byte of a frame."""

    @pytest.mark.parametrize(
        "msg, corr_id, frame",
        PARENT_FRAMES,
        ids=[f"{i}-{type(m).__name__}" for i, (m, _c, _f) in enumerate(PARENT_FRAMES)],
    )
    def test_same_bytes_both_ways_and_one_str_per_name(self, msg, corr_id, frame):
        data = bytes.fromhex(frame)
        assert encode_message(msg, corr_id) == data
        first, second = c.decode_tagged(data), c.decode_tagged(data)
        assert first == (msg, corr_id) and second == (msg, corr_id)
        assert first[0].origin is second[0].origin
        if hasattr(msg, "src_sid"):
            assert first[0].src_sid is second[0].src_sid
