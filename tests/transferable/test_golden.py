"""Golden corpus: the version-1 wire bytes of one value per node shape.

Every stream below was written by the codec before the encoder and
decoder were rewritten to work on the wire directly, and memo payloads
in WAL segments, snapshots and peers' stores hold streams exactly like
these.  The encoder must keep writing them byte for byte; the decoder
must rebuild an equal value from them, with shared objects shared again.
"""

import collections
import dataclasses
import enum

import pytest

from repro.transferable.registry import TransferableRegistry
from repro.transferable.scalars import (
    Blob,
    Bool,
    Char,
    Float32,
    Float64,
    Int8,
    Int16,
    Int32,
    Int64,
    Int128,
    String,
    UInt8,
    UInt16,
    UInt32,
    UInt64,
)
from repro.transferable.wire import decode, encode

REGISTRY = TransferableRegistry()


@dataclasses.dataclass
class Point:
    x: object
    y: object


class Link:
    _transferable_fields_ = ("value", "next")

    def __init__(self, value):
        self.value = value
        self.next = None


REGISTRY.register_struct(Point)
REGISTRY.register_struct(Link)


class Color(enum.IntEnum):
    RED = 1


class Name(str):
    pass


Pair = collections.namedtuple("Pair", "a b")


def _shared_list():
    shared = [1, "two", 3.0]
    return [shared, shared, shared]


def _shared_row():
    row = [0.5, 1.5]
    return ([row, row], row)


def _list_cycle():
    lst: list = ["head"]
    lst.append(lst)
    return lst


def _mutual_cycle():
    a: list = ["a"]
    b: list = ["b", a]
    a.append(b)
    return a


def _dict_cycle():
    d: dict = {"x": 1}
    d["self"] = d
    return d


def _struct_cycle():
    node = Link(7)
    node.next = Link([node, "tail"])
    return node


def _tuple_in_list_cycle():
    lst: list = []
    lst.append((1, lst))
    return lst


#: name -> (value builder, strict_domains)
CASES = {
    "none": (lambda: None, False),
    "bool": (lambda: True, False),
    "int": (lambda: 12_345, False),
    "int_negative": (lambda: -129, False),
    "int_beyond_int64": (
        lambda: [1 << 100, -(1 << 100), (1 << 63), -(1 << 63) - 1],
        False,
    ),
    "float": (lambda: -2.5, False),
    "str": (lambda: "unicode λ ☃", False),
    "bytes": (lambda: b"\x00\xff", False),
    "scalars": (
        lambda: [
            Int16(-3), Float32(1.5), Char("é"), String("s"), Blob(b"b"),
            Int128(-(1 << 100)),
        ],
        False,
    ),
    "leaves_mixed": (lambda: [None, True, 7, -1.5, "s", b"b", Int16(1)], False),
    "list": (lambda: [1, [2, [3]]], False),
    "tuple": (lambda: (7, 123.25), False),
    "set_ordering": (lambda: {3, "a", 1, Int16(2), (1, 2), b"z", None, 2.5}, False),
    "frozenset": (lambda: frozenset({"b", "a", 10, 9}), False),
    "dict": (lambda: {"k": (1, 2), "j": {3: 4}, (5, 6): [Int32(1)]}, False),
    "struct": (lambda: Point(1, [2.0, "y"]), False),
    "empties": (lambda: [[], (), {}, set(), frozenset(), "", b""], False),
    "packed_bool": (lambda: [True, False, True], False),
    "packed_int": (lambda: (1, -2, (1 << 63) - 1, -(1 << 63)), False),
    "packed_float": (lambda: [0.5 * j for j in range(8)], False),
    "packed_int8": (lambda: [Int8(-128), Int8(127)], False),
    "packed_int16": (lambda: [Int16(1), Int16(-2)], False),
    "packed_int32": (lambda: (Int32(-5), Int32(1 << 30)), False),
    "packed_int64": (lambda: [Int64(-(1 << 63)), Int64(3)], False),
    "packed_uint8": (lambda: [UInt8(0), UInt8(255)], False),
    "packed_uint16": (lambda: [UInt16(65535)], False),
    "packed_uint32": (lambda: [UInt32(1), UInt32(2), UInt32(3)], False),
    "packed_uint64": (lambda: [UInt64((1 << 64) - 1)], False),
    "packed_float32": (lambda: [Float32(1.5), Float32(-0.25)], False),
    "packed_float64": (lambda: (Float64(2.0), Float64(-0.0)), False),
    "packed_bool_scalar": (lambda: [Bool(True), Bool(False)], False),
    "packed_char": (lambda: [Char("a"), Char("☃")], False),
    "unpackable_vectors": (
        lambda: [
            [True, 1], [Int128(1), Int128(2)], [String("a"), String("b")], [1, 1.0]
        ],
        False,
    ),
    "subclasses": (
        lambda: [Color.RED, Name("n"), Pair(1.0, 2.0), bytearray(b"ba")],
        False,
    ),
    "shared_list": (_shared_list, False),
    "shared_packed_row": (_shared_row, False),
    "list_cycle": (_list_cycle, False),
    "mutual_cycle": (_mutual_cycle, False),
    "dict_cycle": (_dict_cycle, False),
    "struct_cycle": (_struct_cycle, False),
    "tuple_in_list_cycle": (_tuple_in_list_cycle, False),
    "strict_domains": (
        lambda: [Int32(42), "text", None, True, [Float64(1.5)], (Bool(False),)],
        True,
    ),
}


GOLDEN = {
    "none": "444d01000000010000000000",
    "bool": "444d0100000001000000000101",
    "int": "444d01000000010000000002000000023039",
    "int_negative": "444d0100000001000000000200000002ff7f",
    "int_beyond_int64": (
        "444d010000000500000000200000000400000001000000020000000300000004"
        "020000000d10000000000000000000000000020000000df00000000000000000"
        "0000000002000000090080000000000000000200000009ff7fffffffffffffff"
    ),
    "float": "444d01000000010000000003c004000000000000",
    "str": "444d010000000100000000040000000e756e69636f646520cebb20e29883",
    "bytes": "444d010000000100000000050000000200ff",
    "scalars": (
        "444d010000000700000000200000000600000001000000020000000300000004"
        "00000005000000061005696e74313600000002fffd1007666c6f617433320000"
        "00043fc0000010046368617200000004000000e91006737472696e6700000001"
        "731004626c6f6200000001621006696e7431323800000010fffffff000000000"
        "0000000000000000"
    ),
    "leaves_mixed": (
        "444d010000000800000000200000000700000001000000020000000300000004"
        "00000005000000060000000700010102000000010703bff80000000000000400"
        "000001730500000001621005696e743136000000020001"
    ),
    "list": (
        "444d010000000500000000200000000200000001000000020200000001012000"
        "00000200000003000000040200000001023002000000010000000000000003"
    ),
    "tuple": (
        "444d010000000300000000210000000200000001000000020200000001070340"
        "5ed00000000000"
    ),
    "set_ordering": (
        "444d010000000900000000220000000800000001000000020000000300000004"
        "000000050000000600000007000000081005696e743136000000020002000500"
        "0000017a03400400000000000002000000010102000000010304000000016131"
        "020000000200000000000000010000000000000002"
    ),
    "frozenset": (
        "444d010000000500000000230000000400000001000000020000000300000004"
        "02000000010a020000000109040000000161040000000162"
    ),
    "dict": (
        "444d010000000900000000240000000300000001000000020000000300000004"
        "000000070000000804000000016b310200000002000000000000000100000000"
        "0000000204000000016a24000000010000000500000006020000000103020000"
        "00010431020000000200000000000000050000000000000006301005696e7433"
        "320000000100000001"
    ),
    "struct": (
        "444d010000000500000000250005506f696e7400020001780000000100017900"
        "0000020200000001012000000002000000030000000403400000000000000004"
        "0000000179"
    ),
    "empties": (
        "444d010000000800000000200000000700000001000000020000000300000004"
        "0000000500000006000000072000000000210000000024000000002200000000"
        "230000000004000000000500000000"
    ),
    "packed_bool": "444d010000000100000000300100000003010001",
    "packed_int": (
        "444d0100000001000000003102000000040000000000000001ffffffffffffff"
        "fe7fffffffffffffff8000000000000000"
    ),
    "packed_float": (
        "444d01000000010000000030030000000800000000000000003fe00000000000"
        "003ff00000000000003ff8000000000000400000000000000040040000000000"
        "004008000000000000400c000000000000"
    ),
    "packed_int8": "444d010000000100000000301004696e743800000002807f",
    "packed_int16": "444d010000000100000000301005696e743136000000020001fffe",
    "packed_int32": "444d010000000100000000311005696e74333200000002fffffffb40000000",
    "packed_int64": (
        "444d010000000100000000301005696e74363400000002800000000000000000"
        "00000000000003"
    ),
    "packed_uint8": "444d01000000010000000030100575696e74380000000200ff",
    "packed_uint16": "444d01000000010000000030100675696e74313600000001ffff",
    "packed_uint32": (
        "444d01000000010000000030100675696e743332000000030000000100000002"
        "00000003"
    ),
    "packed_uint64": "444d01000000010000000030100675696e74363400000001ffffffffffffffff",
    "packed_float32": (
        "444d010000000100000000301007666c6f61743332000000023fc00000be8000"
        "00"
    ),
    "packed_float64": (
        "444d010000000100000000311007666c6f617436340000000240000000000000"
        "008000000000000000"
    ),
    "packed_bool_scalar": "444d010000000100000000301004626f6f6c000000020100",
    "packed_char": "444d01000000010000000030100463686172000000020000006100002603",
    "unpackable_vectors": (
        "444d010000000d0000000020000000040000000100000004000000070000000a"
        "2000000002000000020000000301010200000001012000000002000000050000"
        "00061006696e7431323800000010000000000000000000000000000000011006"
        "696e743132380000001000000000000000000000000000000002200000000200"
        "000008000000091006737472696e6700000001611006737472696e6700000001"
        "6220000000020000000b0000000c020000000101033ff0000000000000"
    ),
    "subclasses": (
        "444d010000000500000000200000000400000001000000020000000300000004"
        "02000000010104000000016e3103000000023ff0000000000000400000000000"
        "000005000000026261"
    ),
    "shared_list": (
        "444d010000000500000000200000000300000001000000010000000120000000"
        "03000000020000000300000004020000000101040000000374776f0340080000"
        "00000000"
    ),
    "shared_packed_row": (
        "444d010000000300000000210000000200000001000000022000000002000000"
        "02000000023003000000023fe00000000000003ff8000000000000"
    ),
    "list_cycle": (
        "444d010000000200000000200000000200000001000000000400000004686561"
        "64"
    ),
    "mutual_cycle": (
        "444d010000000400000000200000000200000001000000020400000001612000"
        "0000020000000300000000040000000162"
    ),
    "dict_cycle": (
        "444d010000000400000000240000000200000001000000020000000300000000"
        "040000000178020000000101040000000473656c66"
    ),
    "struct_cycle": (
        "444d0100000006000000002500044c696e6b0002000576616c75650000000100"
        "046e657874000000020200000001072500044c696e6b0002000576616c756500"
        "00000300046e6578740000000520000000020000000000000004040000000474"
        "61696c00"
    ),
    "tuple_in_list_cycle": (
        "444d010000000300000000200000000100000001210000000200000002000000"
        "00020000000101"
    ),
    "strict_domains": (
        "444d010000000700000000200000000600000001000000020000000300000004"
        "00000005000000061005696e743332000000040000002a040000000474657874"
        "000101301007666c6f61743634000000013ff8000000000000311004626f6f6c"
        "0000000100"
    ),
}

#: Cases whose value holds a cycle, so ``==`` would not terminate.
CYCLIC = {
    "list_cycle", "mutual_cycle", "dict_cycle", "struct_cycle", "tuple_in_list_cycle"
}


def test_corpus_names_match():
    assert GOLDEN.keys() == CASES.keys()


@pytest.mark.parametrize("name", list(CASES))
def test_encoder_writes_golden_bytes(name):
    build, strict = CASES[name]
    data = encode(build(), registry=REGISTRY, strict_domains=strict)
    assert data.hex() == GOLDEN[name]


@pytest.mark.parametrize("name", list(CASES))
def test_decoder_rebuilds_golden_value(name):
    build, strict = CASES[name]
    data = bytes.fromhex(GOLDEN[name])
    out = decode(data, registry=REGISTRY)
    # Re-encoding is byte-identical only if every alias and cycle came back.
    assert encode(out, registry=REGISTRY, strict_domains=strict) == data
    if name not in CYCLIC:
        assert out == build()


def _decoded(name):
    return decode(bytes.fromhex(GOLDEN[name]), registry=REGISTRY)


def test_golden_aliases_are_the_same_objects():
    out = _decoded("shared_list")
    assert out[0] is out[1] is out[2]
    rows, row = _decoded("shared_packed_row")
    assert rows[0] is rows[1] is row
    out = _decoded("list_cycle")
    assert out[1] is out
    out = _decoded("mutual_cycle")
    assert out[1][1] is out
    out = _decoded("dict_cycle")
    assert out["self"] is out
    out = _decoded("struct_cycle")
    assert isinstance(out, Link) and out.value == 7
    assert out.next.value[0] is out and out.next.value[1] == "tail"
    out = _decoded("tuple_in_list_cycle")
    assert out[0] == (1, out) and out[0][1] is out


def test_golden_types_survive():
    assert _decoded("scalars")[1] == Float32(1.5)
    assert type(_decoded("packed_char")[1]) is Char
    assert [type(x) for x in _decoded("unpackable_vectors")[0]] == [bool, int]
    color, name, pair, raw = _decoded("subclasses")
    assert (type(color), type(name), type(pair), type(raw)) == (int, str, tuple, bytes)
