"""Compact codec: round-trips, back-compat, frame rejection, and the
refusal of every TLV-spelt control frame."""

import dataclasses
import linecache
import traceback

import pytest

from repro.core.keys import FolderName, Key, Symbol
from repro.errors import DecodingError, EncodingError, ProtocolError
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
    Acks,
    CancelWaitRequest,
    DeltaSyncPull,
    Envelope,
    GetAltSkipRequest,
    GetRequest,
    GetWaitRequest,
    Heartbeat,
    MemoReady,
    MigrateRequest,
    PipelineBatch,
    PutDelayedRequest,
    PutRequest,
    RegisterRequest,
    ReplicatePut,
    Reply,
    ResyncRequest,
    ShutdownRequest,
    StatsRequest,
    WaitCancelled,
    recv_tagged,
    send_message,
)
from repro.network.transport import InMemoryTransport, NetworkFabric
from repro.transferable.registry import TransferableRegistry
from repro.transferable.wire import MAGIC as TLV_MAGIC
from repro.transferable.wire import encode as tlv_encode


def folder(name="f", app="app", index=(1, 2)):
    return FolderName(app, Key(Symbol(name), index))


# One representative instance per compact protocol message type
# (PipelineBatch is covered by the correlation tests).
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
    Envelope("inv", "h2", (b"inner-bytes",), trail=("h1", "h3")),
    Reply(ok=True, found=True, payload=b"v", folder=folder(), stats={"memo.requests": 5}),
]

_ids = [type(m).__name__ for m in ALL_MESSAGES]

# The protocol messages spelt as self-describing TLV structs, under the
# names seed-era peers used.  No protocol message is registered with the
# value codec, so this registry is the test's own.
_TLV_STRUCTS = TransferableRegistry()
_TLV_STRUCTS.register_struct(Symbol, name="dmemo.Symbol", fields=("name",))
_TLV_STRUCTS.register_struct(Key, name="dmemo.Key", fields=("symbol", "index"))
_TLV_STRUCTS.register_struct(FolderName, name="dmemo.FolderName", fields=("app", "key"))
for _cls in {type(m) for m in ALL_MESSAGES}:
    _TLV_STRUCTS.register_struct(_cls, name=f"dmemo.proto.{_cls.__name__}")


def tlv_spelling(msg) -> bytes:
    return tlv_encode(msg, registry=_TLV_STRUCTS)


# WAL records live on disk inside log frames and never cross the wire.
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
    def test_tlv_frame_is_refused(self, msg):
        """A control frame is compact or nothing: the TLV spelling of a
        protocol message is a bad magic, not a message."""
        data = tlv_spelling(msg)
        assert data[:2] == TLV_MAGIC
        with pytest.raises(DecodingError, match="bad magic"):
            decode_message(data)

    @pytest.mark.parametrize("msg", ALL_MESSAGES, ids=_ids)
    def test_compact_is_smaller(self, msg):
        assert len(encode_message(msg)) < len(tlv_spelling(msg))

    def test_put_request_bytes_reduction_target(self):
        """The acceptance bar: >= 40% fewer wire bytes per PutRequest."""
        msg = PutRequest(folder(), b"x" * 64, "worker-3")
        compact, tlv = len(encode_message(msg)), len(tlv_spelling(msg))
        assert compact <= 0.6 * tlv, (compact, tlv)

    def test_unregistered_type_falls_back_to_tlv(self):
        """It no longer does: a type without a compact spec is refused."""
        with pytest.raises(EncodingError, match="no compact spec"):
            encode_message({"plain": ["transferable", 1]})
        with pytest.raises(EncodingError, match="no compact spec"):
            encode_message({"plain": 1}, corr_id=5)

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

    def test_retired_tag_12_rejected(self):
        """Tag 12 was the envelope of one request, its ``inner`` a plain
        frame under the envelope's own id; every request between servers
        now rides tag 15's id-less envelope.  Retired like tag 9."""
        from repro.errors import ProtocolError
        from repro.network import codec as c
        from repro.network.protocol import decode_protocol_frame

        inner = encode_message(Heartbeat(host="h1"))
        frame = bytearray(b"DC\x02\x0c\x05")  # correlated, as it was sent
        for field in ("inv", "h2"):  # app, target_host
            c._w_str(frame, field)
        c._w_bytes(frame, inner)
        c._w_uint(frame, 1)  # trail: one host
        c._w_str(frame, "h1")
        with pytest.raises(DecodingError, match="unknown compact message tag 0xc"):
            decode_message(bytes(frame))
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_protocol_frame(bytes(frame))

    def test_retired_tag_26_rejected(self):
        """Tag 26 was the host -> port map rebroadcast after a restart,
        while a restarted host drew a new port.  Retired like tag 9."""
        from repro.network import codec as c

        frame = bytearray(b"DC\x01\x1a")
        c._w_num_map(frame, {"h1": 50301, "h2": 50307})  # ports
        c._w_str(frame, "cluster")  # origin
        with pytest.raises(DecodingError, match="unknown compact message tag 0x1a"):
            decode_message(bytes(frame))

    def test_map_value_that_is_a_string_is_refused(self):
        """A counter map holds ints and floats.  The sender refuses a
        string, and a frame that spells one — as the embedded TLV map a
        seed-era peer sent, or under a value tag past f64 — is a
        DecodingError, never a DeltaSyncPull for the replicator to trip
        over mid-handler."""
        with pytest.raises(EncodingError, match="neither int nor float"):
            encode_message(DeltaSyncPull("app", "h2", {"0": "12"}))
        head = bytearray(b"DC\x01\x14")
        c._w_str(head, "app")
        c._w_str(head, "h2")
        tail = b"\x00\x00\x02h2"  # replica_marks, primary_floors, origin
        embedded = bytearray(head)
        c._w_bytes(embedded, tlv_encode({"0": "12"}))
        tagged = head + b"\x01\x010\x03\x0212"  # one entry, value tag 3
        for frame in (bytes(embedded) + tail, bytes(tagged) + tail):
            with pytest.raises(DecodingError):
                decode_message(frame)

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
        """A TLV frame among compact ones is refused, not decoded: the
        stream carries one framing."""
        client, server, listener = self._pair()
        try:
            first = PutRequest(folder(), b"one", "p")
            second = GetRequest(folder(), mode="skip", origin="p")
            send_message(client, first)  # compact framing
            client.send(tlv_spelling(second))  # a seed-era peer's framing
            send_message(client, second)
            assert recv_tagged(server, timeout=2) == (first, None)
            with pytest.raises(ProtocolError, match="bad magic"):
                recv_tagged(server, timeout=2)
            assert recv_tagged(server, timeout=2) == (second, None)
        finally:
            client.close()
            server.close()
            listener.close()

    def test_garbage_frame_surfaces_as_protocol_error(self):
        client, server, listener = self._pair()
        try:
            client.send(b"\x00\x01\x02\x03")
            with pytest.raises(ProtocolError):
                recv_tagged(server, timeout=2)
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


_WIDE = FolderName("é", Key(Symbol("s"), (0, 127, 128, (1 << 64) - 1)))

# One sample of every registered tag, and its frames as commit c5f5d5f (the
# last generic field-by-field codec) encoded them: version 1, then version
# 2 with a one-byte (5) and a two-byte (300) correlation id.  WAL records
# are on the list, so a log written before the compiled codec replays
# after it.
GOLDEN_FRAMES = [
    (
        PutRequest(_JAR, b"\x01\x02", "worker-é"),
        "4443010103617070036a61720207ac0202010209776f726b65722dc3a9",
        "444302010503617070036a61720207ac0202010209776f726b65722dc3a9",
        "44430201ac0203617070036a61720207ac0202010209776f726b65722dc3a9",
    ),
    (
        PutDelayedRequest(_JAR, _OUT, b"late", "ж-proc"),
        "4443010203617070036a61720207ac0203617070036f757400046c61746507d0"
        "b62d70726f63",
        "444302020503617070036a61720207ac0203617070036f757400046c61746507"
        "d0b62d70726f63",
        "44430202ac0203617070036a61720207ac0203617070036f757400046c617465"
        "07d0b62d70726f63",
    ),
    (
        GetRequest(_WIDE, "copy", "p"),
        "4443010302c3a9017304007f8001ffffffffffffffffff0104636f70790170",
        "444302030502c3a9017304007f8001ffffffffffffffffff0104636f70790170",
        "44430203ac0202c3a9017304007f8001ffffffffffffffffff0104636f707901"
        "70",
    ),
    (
        GetAltSkipRequest((_JAR, _OUT, _WIDE), "p"),
        "444301040303617070036a61720207ac0203617070036f75740002c3a9017304"
        "007f8001ffffffffffffffffff010170",
        "44430204050303617070036a61720207ac0203617070036f75740002c3a90173"
        "04007f8001ffffffffffffffffff010170",
        "44430204ac020303617070036a61720207ac0203617070036f75740002c3a901"
        "7304007f8001ffffffffffffffffff010170",
    ),
    (
        RegisterRequest("inv", {"h1": {"h2": 1.0, "h3": 0.25}, "h2": {"h1": 1.0}}, {"h1": 1.0, "h2": 2.5},
        (("0", "h1"), ("1", "h2")), 2),
        "4443010503696e7602026831020268323ff00000000000000268333fd0000000"
        "000000026832010268313ff0000000000000020268313ff00000000000000268"
        "324004000000000000020130026831013102683202",
        "444302050503696e7602026831020268323ff00000000000000268333fd00000"
        "00000000026832010268313ff0000000000000020268313ff000000000000002"
        "68324004000000000000020130026831013102683202",
        "44430205ac0203696e7602026831020268323ff00000000000000268333fd000"
        "0000000000026832010268313ff0000000000000020268313ff0000000000000"
        "0268324004000000000000020130026831013102683202",
    ),
    (
        MigrateRequest("inv", "p"),
        "4443010603696e760170",
        "444302060503696e760170",
        "44430206ac0203696e760170",
    ),
    (
        ReplicatePut("app", _JAR, b"copy", "worker-é", True, _OUT, "s-é", 1 << 41),
        "444301070361707003617070036a61720207ac0204636f707909776f726b6572"
        "2dc3a9010103617070036f75740004732dc3a9808080808040",
        "44430207050361707003617070036a61720207ac0204636f707909776f726b65"
        "722dc3a9010103617070036f75740004732dc3a9808080808040",
        "44430207ac020361707003617070036a61720207ac0204636f707909776f726b"
        "65722dc3a9010103617070036f75740004732dc3a9808080808040",
    ),
    (
        Heartbeat("h1", "p"),
        "444301080268310170",
        "44430208050268310170",
        "44430208ac020268310170",
    ),
    (
        StatsRequest("p"),
        "4443010a0170",
        "4443020a050170",
        "4443020aac020170",
    ),
    (
        ShutdownRequest(""),
        "4443010b00",
        "4443020b0500",
        "4443020bac0200",
    ),
    # Re-derived by hand when stats became a ``num_map``: header, ok 01,
    # found 01, payload 02 00ff, folder 01 + app 03 "app" + symbol 03 "out"
    # + no index 00, error 00, then 3 entries, each key, value tag, value:
    # 04 "puts" 00 03 | 04 "rate" 02 3ff8000000000000 (1.5) | 03 "lag" 01 01
    # (-2 is tag 1 with the uvarint of -1 - -2 = 1).
    (
        Reply(True, True, b"\x00\xff", _OUT, "", {"puts": 3, "rate": 1.5, "lag": -2}),
        "4443010d01010200ff0103617070036f75740000030470757473000304726174"
        "65023ff8000000000000036c61670101",
        "4443020d0501010200ff0103617070036f757400000304707574730003047261"
        "7465023ff8000000000000036c61670101",
        "4443020dac0201010200ff0103617070036f7574000003047075747300030472"
        "617465023ff8000000000000036c61670101",
    ),
    (
        PipelineBatch((b"DC\x01\x0a\x00", b"", b"z" * 130)),
        "4443010e03054443010a000082017a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a"
        "7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a"
        "7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a"
        "7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a"
        "7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a",
        "4443020e0503054443010a000082017a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a"
        "7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a"
        "7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a"
        "7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a"
        "7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a",
        "4443020eac0203054443010a000082017a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a"
        "7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a"
        "7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a"
        "7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a"
        "7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a",
    ),
    (
        Envelope("app", "h3", (b"a", b"bc"), ("h1",)),
        "4443010f0361707002683302016102626301026831",
        "4443020f050361707002683302016102626301026831",
        "4443020fac020361707002683302016102626301026831",
    ),
    (
        GetWaitRequest(_JAR, "copy", (1 << 63) + 5, "p"),
        "4443011003617070036a61720207ac0204636f70798580808080808080800101"
        "70",
        "444302100503617070036a61720207ac0204636f707985808080808080808001"
        "0170",
        "44430210ac0203617070036a61720207ac0204636f7079858080808080808080"
        "010170",
    ),
    (
        MemoReady(300, _JAR, b"pp"),
        "44430111ac0203617070036a61720207ac02027070",
        "4443021105ac0203617070036a61720207ac02027070",
        "44430211ac02ac0203617070036a61720207ac02027070",
    ),
    (
        WaitCancelled(77, "shutdown: gone"),
        "444301124d0e73687574646f776e3a20676f6e65",
        "44430212054d0e73687574646f776e3a20676f6e65",
        "44430212ac024d0e73687574646f776e3a20676f6e65",
    ),
    (
        CancelWaitRequest(1 << 20, "p"),
        "444301138080400170",
        "44430213058080400170",
        "44430213ac028080400170",
    ),
    # Re-derived by hand when the three maps became ``num_map``s: header,
    # 03 "app", 02 "h2", primary_lsns 02 entries: 01 "0" 00 0c (12) and
    # 01 "1" 00 8080808080 20 (2**40: five zero groups, then 1 << 5),
    # replica_marks 01 entry: 01 "2" 00 03, primary_floors empty 00, then
    # origin 02 "h2".
    (
        DeltaSyncPull("app", "h2", {"0": 12, "1": 1 << 40}, {"2": 3}, {}, "h2"),
        "4443011403617070026832020130000c0131008080808080200101320003000268"
        "32",
        "444302140503617070026832020130000c01310080808080802001013200030002"
        "6832",
        "44430214ac0203617070026832020130000c013100808080808020010132000300"
        "026832",
    ),
    (
        WalPut(_JAR, b"m1", "worker-é", "s-é", 1 << 41),
        "4443011503617070036a61720207ac02026d3109776f726b65722dc3a904732d"
        "c3a9808080808040",
        "444302150503617070036a61720207ac02026d3109776f726b65722dc3a90473"
        "2dc3a9808080808040",
        "44430215ac0203617070036a61720207ac02026d3109776f726b65722dc3a904"
        "732dc3a9808080808040",
    ),
    (
        WalConsume(_WIDE, (1 << 64) - 1, True),
        "4443011602c3a9017304007f8001ffffffffffffffffff01ffffffffffffffff"
        "ff0101",
        "444302160502c3a9017304007f8001ffffffffffffffffff01ffffffffffffff"
        "ffff0101",
        "44430216ac0202c3a9017304007f8001ffffffffffffffffff01ffffffffffff"
        "ffffff0101",
    ),
    (
        WalDelayed(_JAR, _OUT, b"late", "ж-proc", "s0", 12),
        "4443011703617070036a61720207ac0203617070036f757400046c61746507d0"
        "b62d70726f630273300c",
        "444302170503617070036a61720207ac0203617070036f757400046c61746507"
        "d0b62d70726f630273300c",
        "44430217ac0203617070036a61720207ac0203617070036f757400046c617465"
        "07d0b62d70726f630273300c",
    ),
    (
        WalDelayedClear(_OUT),
        "4443011803617070036f757400",
        "444302180503617070036f757400",
        "44430218ac0203617070036f757400",
    ),
    (
        WalFolderDrop(_WIDE),
        "4443011902c3a9017304007f8001ffffffffffffffffff01",
        "444302190502c3a9017304007f8001ffffffffffffffffff01",
        "44430219ac0202c3a9017304007f8001ffffffffffffffffff01",
    ),
    (
        ResyncRequest(("app", "inv"), "cluster"),
        "4443011b020361707003696e7607636c7573746572",
        "4443021b05020361707003696e7607636c7573746572",
        "4443021bac02020361707003696e7607636c7573746572",
    ),
    # Added after c5f5d5f, with the tag.  Count 5, then the zigzag deltas:
    # +5 -> 0a, +1 -> 02, +1 -> 02, +293 -> 586 (ca 04), -298 -> 595 (d3 04).
    (
        Acks((5, 6, 7, 300, 2)),
        "4443011c050a0202ca04d304",
        "4443021c05050a0202ca04d304",
        "4443021cac02050a0202ca04d304",
    ),
]



class TestGoldenFrames:
    """The compiled specs moved not one wire or WAL byte."""

    def test_every_registered_tag_has_a_sample(self):
        sampled = [type(sample[0]) for sample in GOLDEN_FRAMES]
        assert sorted(sampled, key=lambda t: t.__name__) == sorted(
            (spec.cls for spec in c._SPECS_BY_TAG.values()), key=lambda t: t.__name__
        )

    @pytest.mark.parametrize(
        "msg, v1, v2_short, v2_long",
        GOLDEN_FRAMES,
        ids=[type(sample[0]).__name__ for sample in GOLDEN_FRAMES],
    )
    def test_same_bytes_both_ways(self, msg, v1, v2_short, v2_long):
        for corr_id, frame in ((None, v1), (5, v2_short), (300, v2_long)):
            data = bytes.fromhex(frame)
            assert encode_message(msg, corr_id) == data
            assert c.decode_tagged(data) == (msg, corr_id)
            assert c.decode_tagged(memoryview(data)) == (msg, corr_id)
        assert c.encode_correlated_burst([(msg, 5), (msg, 300)]) == [
            bytes.fromhex(v2_short),
            bytes.fromhex(v2_long),
        ]

    @pytest.mark.parametrize(
        "msg, v1, v2_short, v2_long",
        GOLDEN_FRAMES,
        ids=[type(sample[0]).__name__ for sample in GOLDEN_FRAMES],
    )
    def test_field_values_and_swapped_ids_write_the_same_bytes(
        self, msg, v1, v2_short, v2_long
    ):
        """A frame written from the field values (``encode_fields``), and a
        frame whose id is swapped across a uvarint width (``recorrelate``),
        are the golden bytes too."""
        values = [getattr(msg, f.name) for f in dataclasses.fields(msg)]
        assert c.encode_fields(type(msg), *values) == bytes.fromhex(v1)
        short, long_ = bytes.fromhex(v2_short), bytes.fromhex(v2_long)
        assert c.recorrelate(short, 300) == long_
        assert c.recorrelate(long_, 5) == short

    @pytest.mark.parametrize(
        "msg, v1, v2_short, v2_long",
        GOLDEN_FRAMES,
        ids=[type(sample[0]).__name__ for sample in GOLDEN_FRAMES],
    )
    def test_every_cut_reports_truncation(self, msg, v1, v2_short, v2_long):
        """Past-the-end indexing and past-the-end lengths both read as
        truncation, not as trailing bytes, a short field or an IndexError."""
        for frame in (v1, v2_long):
            data = bytes.fromhex(frame)
            for cut in range(4, len(data)):
                with pytest.raises(DecodingError, match="truncated"):
                    c.decode_tagged(data[:cut])


class TestCompiledChecks:
    """Each check the compiled decoders keep, pinned by its own message."""

    def test_varint_past_64_bits(self):
        # GetWaitRequest (tag 16) whose waiter takes 11 varint bytes.
        good = encode_message(GetWaitRequest(folder(), mode="copy", waiter=1, origin="o"))
        head, tail = good.split(b"\x04copy\x01")
        frame = head + b"\x04copy" + b"\xff" * 10 + b"\x01" + tail
        with pytest.raises(DecodingError, match="exceeds 64 bits"):
            decode_message(frame)

    def test_bool_byte_other_than_0_or_1(self):
        frame = bytearray(encode_message(Reply(ok=True, found=False)))
        assert frame[4:6] == b"\x01\x00"
        frame[4] = 2
        with pytest.raises(DecodingError, match="bad bool byte 0x2"):
            decode_message(bytes(frame))

    @pytest.mark.parametrize("kind", ["str", "name"])
    def test_invalid_utf8(self, kind):
        msg = Heartbeat(host="\u00e9") if kind == "str" else PutRequest(folder(), b"", "\u00e9")
        frame = encode_message(msg).replace("\u00e9".encode(), b"\xc3\x28")
        with pytest.raises(DecodingError, match="invalid UTF-8"):
            decode_message(frame)

    @pytest.mark.parametrize("value", [-1, -(1 << 70), 1 << 64, 1 << 70])
    def test_uint_outside_u64_is_an_encoding_error(self, value):
        with pytest.raises(EncodingError):
            encode_message(WalConsume(folder(), digest=value))
        with pytest.raises(EncodingError):
            encode_message(StatsRequest(), corr_id=value)
        with pytest.raises(EncodingError):
            c.encode_correlated_burst([(StatsRequest(), value)])

    def test_largest_uint_still_encodes(self):
        msg = GetWaitRequest(folder(), mode="copy", waiter=(1 << 64) - 1)
        frame = encode_message(msg, (1 << 64) - 1)
        assert c.decode_tagged(frame) == (msg, (1 << 64) - 1)

    def test_generated_code_is_named_after_its_class(self):
        spec = c._SPECS_BY_TYPE[PutRequest]
        assert spec.enc.__code__.co_filename == "<compact PutRequest>"
        assert spec.dec.__code__.co_filename == "<compact PutRequest>"
        assert any("_intern(" in line for line in linecache.getlines("<compact PutRequest>"))
        with pytest.raises(DecodingError) as info:
            decode_message(encode_message(Heartbeat(host="h1")) + b"\x00")
        frames = traceback.extract_tb(info.value.__traceback__)
        assert frames[-1].filename == "<compact Heartbeat>"
        assert "_trailing" in frames[-1].line


class TestFolderEncodeCache:
    """Folder fields encode once per distinct name, under the decode
    table's cap and field-length bound."""

    @pytest.fixture(autouse=True)
    def empty_table(self):
        c._FOLDER_FIELDS.clear()
        yield
        c._FOLDER_FIELDS.clear()

    def test_one_name_is_encoded_once(self, monkeypatch):
        name = folder()
        first = encode_message(PutRequest(name, b"1", "p"))
        calls = []
        monkeypatch.setattr(c, "_w_str", lambda out, s: calls.append(s))
        assert encode_message(PutRequest(folder(), b"1", "p")) == first
        assert calls == []
        assert list(c._FOLDER_FIELDS) == [name]

    def test_table_is_bounded_and_long_fields_are_not_kept(self):
        cap = c._FOLDER_INTERN_CAP
        names = [folder(index=(i,)) for i in range(cap + 50)]
        for _ in range(2):
            for name in names:
                assert decode_message(encode_message(WalFolderDrop(name))).folder == name
                assert len(c._FOLDER_FIELDS) <= cap
        c._FOLDER_FIELDS.clear()
        long_name = folder(name="s" * (c._FOLDER_INTERN_MAX_FIELD + 1))
        assert decode_message(encode_message(WalFolderDrop(long_name))).folder == long_name
        assert c._FOLDER_FIELDS == {}
