"""Property-based tests: transferable round-trips and domain laws."""

import dataclasses
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DecodingError, EncodingError
from repro.transferable.domains import DOMAINS, FloatDomain, IntDomain
from repro.transferable.graph import PACKED_ELEMENTS
from repro.transferable.registry import TransferableRegistry
from repro.transferable.scalars import (
    SCALAR_TYPES,
    Char,
    Int16,
    Int32,
    Int64,
    Scalar,
    String,
    UInt32,
)
from repro.transferable.wire import decode, encode

# -- value strategies -----------------------------------------------------------

scalars = st.one_of(
    st.builds(Int16, st.integers(-(1 << 15), (1 << 15) - 1)),
    st.builds(Int32, st.integers(-(1 << 31), (1 << 31) - 1)),
    st.builds(Int64, st.integers(-(1 << 63), (1 << 63) - 1)),
    st.builds(UInt32, st.integers(0, (1 << 32) - 1)),
)

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=30),
    st.binary(max_size=30),
    scalars,
)

hashable_leaves = st.one_of(
    st.booleans(), st.integers(), st.text(max_size=10), scalars
)

values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.tuples(children, children),
        st.dictionaries(hashable_leaves, children, max_size=4),
    ),
    max_leaves=25,
)


@given(values)
@settings(max_examples=200, deadline=None)
def test_wire_roundtrip_is_identity(obj):
    assert decode(encode(obj)) == obj


@given(values)
@settings(max_examples=100, deadline=None)
def test_encoding_is_deterministic(obj):
    assert encode(obj) == encode(obj)


@given(st.integers())
def test_int_domain_partition(v):
    """Every int is either contained or rejected, consistently with bounds."""
    for name in ("int8", "int16", "int32", "int64"):
        d = DOMAINS[name]
        assert d.contains(v) == (d.lo <= v <= d.hi)


@given(st.integers(-(1 << 63), (1 << 63) - 1))
def test_int64_pack_unpack_identity(v):
    d = DOMAINS["int64"]
    assert d.unpack(d.pack(v)) == v


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float64_pack_unpack_identity(v):
    d = DOMAINS["float64"]
    assert d.unpack(d.pack(v)) == v


@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_float32_idempotent_on_binary32(v):
    """Values already representable in binary32 round-trip exactly."""
    d = DOMAINS["float32"]
    assert d.unpack(d.pack(v)) == v


@given(st.lists(st.integers(), min_size=1, max_size=20))
def test_aliasing_preserved(items):
    """A doubly-referenced list decodes to one object, not two copies."""
    outer = [items, items]
    result = decode(encode(outer))
    assert result[0] is result[1]
    assert result[0] == items


@given(values)
@settings(max_examples=50, deadline=None)
def test_double_encode_stable(obj):
    """encode∘decode∘encode == encode (canonical form is a fixpoint)."""
    once = encode(obj)
    again = encode(decode(once))
    assert decode(again) == decode(once)


@given(st.binary(max_size=200))
@settings(max_examples=300, deadline=None)
def test_decoder_never_crashes_on_junk(data):
    """Arbitrary bytes either decode or raise DecodingError — nothing else."""
    try:
        decode(data)
    except DecodingError:
        pass


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_float64_specials(v):
    d = DOMAINS["float64"]
    out = d.unpack(d.pack(v))
    if math.isnan(v):
        assert math.isnan(out)
    else:
        assert out == v


# -- packed vectors: homogeneous and nearly homogeneous sequences ----------------

INT64_LO, INT64_HI = -(1 << 63), (1 << 63) - 1

any_float = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, math.inf, -math.inf, struct.unpack(">d", bytes.fromhex("7ff4000000000abc"))[0]]
)
int64s = st.integers(INT64_LO, INT64_HI) | st.sampled_from([INT64_LO, INT64_HI, 0, -1])


def _scalar_elements(cls: type[Scalar]):
    """Instances of one fixed-width scalar class, over its whole domain."""
    if cls is Char:
        return st.builds(Char, st.characters())
    domain = cls.domain
    if isinstance(domain, IntDomain):
        return st.builds(cls, st.integers(domain.lo, domain.hi))
    if isinstance(domain, FloatDomain):
        return st.builds(cls, st.floats(width=domain.width_bytes * 8))
    return st.builds(cls, st.booleans())


FIXED_WIDTH_SCALARS = [e.scalar for e in PACKED_ELEMENTS.values() if e.scalar]

element_types = [any_float, int64s, st.booleans()] + [
    _scalar_elements(cls) for cls in FIXED_WIDTH_SCALARS
]
# What may sit among same-typed elements and force the per-element path.
strays = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([INT64_HI + 1, INT64_LO - 1, 1 << 200]),
    st.text(max_size=3),
    st.builds(String, st.text(max_size=3)),
    st.builds(Int16, st.integers(-5, 5)),
)


@st.composite
def sequences(draw):
    """A list or tuple of one element type, sometimes with one stray."""
    items = draw(st.lists(draw(st.sampled_from(element_types)), max_size=12))
    if draw(st.booleans()):
        items.insert(draw(st.integers(0, len(items))), draw(strays))
    return draw(st.sampled_from([list, tuple]))(items)


def _identical(a: object, b: object) -> bool:
    """Same exact type and same value, bit for bit (NaN payloads, -0.0)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Scalar):
        return _identical(a._value, b._value)
    if isinstance(a, float):
        return struct.pack(">d", a) == struct.pack(">d", b)
    return a == b


def test_every_fixed_width_scalar_class_is_covered():
    names = {cls.__name__ for cls in FIXED_WIDTH_SCALARS}
    assert names == {
        "Int8", "Int16", "Int32", "Int64", "UInt8", "UInt16", "UInt32",
        "UInt64", "Float32", "Float64", "Bool", "Char",
    }


@given(sequences())
@settings(max_examples=400, deadline=None)
def test_sequences_round_trip_with_element_types(seq):
    """bool stays bool, Int16 stays Int16, floats keep every bit."""
    out = decode(encode(seq))
    assert type(out) is type(seq) and len(out) == len(seq)
    assert all(_identical(a, b) for a, b in zip(out, seq))


@given(sequences())
@settings(max_examples=100, deadline=None)
def test_sequence_aliasing_preserved(row):
    """A row referenced twice is one object again, packed or not."""
    for outer in ([row, row], (row, row)):
        out = decode(encode(outer))
        assert out[0] is out[1]
        assert all(_identical(a, b) for a, b in zip(out[0], row))


@given(st.lists(st.lists(st.floats(allow_nan=False), max_size=6), max_size=6))
def test_nested_matrices_equal(matrix):
    assert decode(encode(matrix)) == matrix
    assert decode(encode(tuple(map(tuple, matrix)))) == tuple(map(tuple, matrix))


@given(st.lists(st.floats(), min_size=1, max_size=8))
def test_strict_domains_rejects_bare_float_row(row):
    for seq in (row, tuple(row)):
        with pytest.raises(EncodingError, match="strict"):
            encode(seq, strict_domains=True)
    wrapped = [SCALAR_TYPES["float64"](v) for v in row]
    assert len(decode(encode(wrapped, strict_domains=True))) == len(row)


# -- fuzzing from valid streams ---------------------------------------------------
# Random bytes rarely get past the magic; a real encoding with one byte
# changed or cut reaches every node reader.


@dataclasses.dataclass
class Cell:
    head: object
    tail: object


FUZZ_REGISTRY = TransferableRegistry()
FUZZ_REGISTRY.register_struct(Cell)


def _cyclic_cell() -> Cell:
    cell = Cell("loop", None)
    cell.tail = [cell, {"back": cell}, (1, cell)]
    return cell


fuzz_inputs = st.one_of(
    values,
    sequences(),
    st.builds(Cell, values, values),
    st.sets(hashable_leaves, max_size=4),
    st.frozensets(hashable_leaves, max_size=4),
    st.builds(_cyclic_cell),
)


@given(fuzz_inputs, st.data())
@settings(max_examples=300, deadline=None)
def test_truncated_valid_stream_raises_decoding_error(obj, data):
    """Every proper prefix of an encoding is refused as malformed."""
    blob = encode(obj, registry=FUZZ_REGISTRY)
    cut = data.draw(st.integers(0, len(blob) - 1))
    with pytest.raises(DecodingError):
        decode(blob[:cut], registry=FUZZ_REGISTRY)


@given(fuzz_inputs, st.data())
@settings(max_examples=500, deadline=None)
def test_mutated_valid_stream_decodes_or_raises_decoding_error(obj, data):
    """One changed byte anywhere: a value or DecodingError, nothing else."""
    blob = bytearray(encode(obj, registry=FUZZ_REGISTRY))
    at = data.draw(st.integers(0, len(blob) - 1))
    blob[at] = data.draw(st.integers(0, 255).filter(lambda b: b != blob[at]))
    try:
        decode(bytes(blob), registry=FUZZ_REGISTRY)
    except DecodingError:
        pass
