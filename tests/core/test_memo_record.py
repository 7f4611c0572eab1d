"""Unit tests for MemoRecord: payload encoding, copies, identity."""

import dataclasses

import pytest

from repro.core.keys import FolderName, Key, Symbol
from repro.core.memo import MemoRecord
from repro.errors import EncodingError
from repro.servers.folder_server import FolderServer
from repro.transferable.registry import TransferableRegistry
from repro.transferable.scalars import Int16
from repro.transferable.wire import decode, encode


class TestFromValue:
    """A record holds a value's transferable bytes: clients encode and
    decode, the record and its stores never do."""

    def test_roundtrip(self):
        rec = MemoRecord(encode({"k": [1, 2]}), origin="p1")
        assert decode(rec.payload) == {"k": [1, 2]}
        assert rec.origin == "p1"

    def test_each_decode_is_a_fresh_copy(self):
        rec = MemoRecord(encode([1, 2, 3]))
        a, b = decode(rec.payload), decode(rec.payload)
        assert a == b and a is not b

    def test_value_mutation_does_not_affect_record(self):
        rec = MemoRecord(encode({"n": 1}))
        out = decode(rec.payload)
        out["n"] = 999
        assert decode(rec.payload) == {"n": 1}

    def test_strict_domains_passthrough(self):
        with pytest.raises(EncodingError):
            MemoRecord(encode(7, strict_domains=True))
        rec = MemoRecord(encode(Int16(7), strict_domains=True))
        assert decode(rec.payload) == Int16(7)

    def test_custom_registry(self):
        registry = TransferableRegistry()

        @dataclasses.dataclass
        class Box:
            v: int

        registry.register_struct(Box)
        rec = MemoRecord(encode(Box(3), registry=registry))
        assert decode(rec.payload, registry=registry).v == 3

    def test_record_is_frozen(self):
        rec = MemoRecord(encode(1))
        with pytest.raises(Exception):
            rec.payload = b"tampered"


class TestIdentity:
    """A record is itself and nothing else: no ``__dict__``, no value equality."""

    def test_equal_fields_are_still_two_memos(self):
        a = MemoRecord(payload=b"same", origin="p1")
        b = MemoRecord(payload=b"same", origin="p1")
        assert a != b and a == a
        assert hash(a) != hash(b)
        assert len({a, b}) == 2

    def test_a_list_finds_the_very_object(self):
        records = [MemoRecord(payload=b"same", origin="p1") for _ in range(3)]
        memos = list(records)
        assert records[1] in memos and memos.index(records[2]) == 2
        memos.remove(records[1])
        assert [id(r) for r in memos] == [id(records[0]), id(records[2])]
        assert MemoRecord(payload=b"same", origin="p1") not in memos

    def test_no_dict_and_no_assignment(self):
        rec = MemoRecord(payload=b"x")
        assert not hasattr(rec, "__dict__")
        assert MemoRecord.__slots__ == ("payload", "origin", "src_sid", "src_lsn")
        with pytest.raises(AttributeError):
            rec.payload = b"tampered"
        # 3.11's frozen+slots ``__setattr__`` trips over its own ``super()``
        # for an unknown name (TypeError); 3.12 raises AttributeError.
        with pytest.raises((AttributeError, TypeError)):
            rec.anything_else = 1
        assert rec.payload == b"x"

    def test_store_stamps_a_fresh_record_in_place_once(self):
        fs = FolderServer("s7")
        name = FolderName("app", Key(Symbol("k")))
        fresh = MemoRecord(payload=b"x", origin="p1")
        assert fs.put(name, fresh) is fresh
        assert (fresh.src_sid, fresh.src_lsn) == ("s7", 1)
        copy = MemoRecord(payload=b"y", origin="p2", src_sid="s9", src_lsn=40)
        assert fs.put(name, copy, trigger_release=False) is copy
        assert (copy.src_sid, copy.src_lsn) == ("s9", 40)
        assert fs.current_lsn() == 2
