"""Tag-length-value wire codec for linearized graphs.

The byte format is ASN.1/XDR-inspired (paper section 3.1.3): every node is a
tag byte followed by a kind-specific payload, all integers big-endian, all
strings UTF-8 with explicit lengths.  The format is fully self-describing —
a receiver needs only the shared struct registry, never the sender's memory
layout, word size, or byte order, which is the whole point of the
transferable foundation.

Layout::

    magic   2 bytes  b"DM"
    version 1 byte   0x01
    count   u32      number of nodes
    root    u32      root node id
    nodes   count ×  (tag u8, kind-specific payload)

Node payloads::

    NONE          —
    NATIVE_BOOL   u8 (0 or 1)
    NATIVE_INT    u32 byte-length, two's-complement big-endian bytes
    NATIVE_FLOAT  8-byte IEEE-754 binary64
    NATIVE_STR    u32 byte-length, UTF-8 bytes
    NATIVE_BYTES  u32 byte-length, raw bytes
    SCALAR        u8 domain-name length, name, u32 payload length, payload
    LIST/TUPLE/SET/FROZENSET
                  u32 count, count × u32 child ids
    DICT          u32 count, count × (u32 key id, u32 value id)
    STRUCT        u16 name length, name, u16 field count,
                  fields × (u16 name length, name, u32 child id)
    PACKED_LIST/PACKED_TUPLE
                  u8 element tag (NATIVE_BOOL, NATIVE_INT, NATIVE_FLOAT or
                  SCALAR), [SCALAR only: u8 domain-name length, name],
                  u32 count, count × fixed-width element

A packed node is a list or tuple whose elements all have one exact type
with a fixed-width big-endian codec: bare ``float`` (binary64), bare ``int``
with every value in the int64 range (two's complement), bare ``bool`` (one
byte, 0 or 1), or one :class:`Scalar` class over a domain of 1, 2, 4 or 8
bytes (element = that domain's encoding, as in a SCALAR payload).  The
encoder chooses it from the elements alone — no flag, no length threshold —
and writes the body with one ``struct`` call, so a 256-float row is one
node and 2 065 bytes on the wire rather than 257 nodes and 3 344 bytes.
Everything else is written per element exactly as before: mixed types, a
``bool`` among ``int``s, an ``int`` outside int64, ``Int128``/``UInt128``/
``String``/``Blob`` elements, subclasses of ``float``/``int``, the empty
sequence, and bare numbers under ``strict_domains``.  The tags are
additive: every version-1 stream written before they existed decodes
unchanged.
"""

from __future__ import annotations

import struct
from itertools import chain

from repro.errors import DecodingError, EncodingError
from repro.transferable.graph import (
    PACKED_ELEMENTS,
    Delinearizer,
    LinearGraph,
    Linearizer,
    Node,
    NodeKind,
    PackedElement,
)
from repro.transferable.registry import TransferableRegistry
from repro.transferable.scalars import SCALAR_TYPES, Scalar

__all__ = ["MAGIC", "VERSION", "encode", "decode", "encoded_size"]

MAGIC = b"DM"
VERSION = 1

_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")

_CONTAINER_KINDS = (
    NodeKind.LIST,
    NodeKind.TUPLE,
    NodeKind.SET,
    NodeKind.FROZENSET,
)
_PACKED_KINDS = (NodeKind.PACKED_LIST, NodeKind.PACKED_TUPLE)
_KIND_BY_TAG = {int(kind): kind for kind in NodeKind}


def _element_header(element: PackedElement) -> bytes:
    """What a packed node writes before its count: tag [, name length, name]."""
    if element.name is None:
        return bytes((element.kind,))
    name_raw = element.name.encode("ascii")
    return bytes((element.kind, len(name_raw))) + name_raw


_ELEMENT_HEADERS = {e: _element_header(e) for e in PACKED_ELEMENTS.values()}
_ELEMENT_BY_HEADER = {header: e for e, header in _ELEMENT_HEADERS.items()}


def encode(
    obj: object,
    *,
    registry: TransferableRegistry | None = None,
    strict_domains: bool = False,
) -> bytes:
    """Linearize *obj* and serialize it to the wire format.

    This is the single call an application (or the memo server) makes to
    move "arbitrary data structures, even self-referential structures ...
    with ease".
    """
    graph = Linearizer(registry, strict_domains=strict_domains).linearize(obj)
    return serialize_graph(graph)


def decode(
    data: bytes | memoryview,
    *,
    registry: TransferableRegistry | None = None,
) -> object:
    """Parse wire bytes and rebuild the original object graph."""
    graph = parse_graph(data)
    return Delinearizer(registry).delinearize(graph)


def encoded_size(
    obj: object,
    *,
    registry: TransferableRegistry | None = None,
) -> int:
    """Number of bytes :func:`encode` would produce for *obj*."""
    return len(encode(obj, registry=registry))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def serialize_graph(graph: LinearGraph) -> bytes:
    """Serialize a :class:`LinearGraph` to bytes."""
    out = bytearray()
    out += MAGIC
    out += _U8.pack(VERSION)
    out += _U32.pack(len(graph.nodes))
    out += _U32.pack(graph.root)
    for i, node in enumerate(graph.nodes):
        out += _U8.pack(int(node.kind))
        _serialize_payload(out, node, i)
    return bytes(out)


def _serialize_payload(out: bytearray, node: Node, idx: int) -> None:
    kind = node.kind
    payload = node.payload
    if kind is NodeKind.NONE:
        return
    if kind is NodeKind.NATIVE_BOOL:
        out += _U8.pack(1 if payload else 0)
        return
    if kind is NodeKind.NATIVE_INT:
        assert isinstance(payload, int)
        length = max(1, (payload.bit_length() + 8) // 8)  # +8 keeps sign bit
        raw = payload.to_bytes(length, "big", signed=True)
        out += _U32.pack(len(raw))
        out += raw
        return
    if kind is NodeKind.NATIVE_FLOAT:
        out += _F64.pack(payload)
        return
    if kind is NodeKind.NATIVE_STR:
        assert isinstance(payload, str)
        raw = payload.encode("utf-8")
        out += _U32.pack(len(raw))
        out += raw
        return
    if kind is NodeKind.NATIVE_BYTES:
        assert isinstance(payload, bytes)
        out += _U32.pack(len(payload))
        out += payload
        return
    if kind is NodeKind.SCALAR:
        domain, value = payload  # type: ignore[misc]
        name_raw = domain.encode("ascii")
        if len(name_raw) > 0xFF:
            raise EncodingError(f"domain name too long: {domain!r}")
        packed = value.pack() if isinstance(value, Scalar) else bytes(value)
        out += _U8.pack(len(name_raw))
        out += name_raw
        out += _U32.pack(len(packed))
        out += packed
        return
    if kind in _CONTAINER_KINDS:
        ids = payload
        assert isinstance(ids, list)
        out += struct.pack(">I%dI" % len(ids), len(ids), *ids)
        return
    if kind is NodeKind.DICT:
        pairs = payload
        assert isinstance(pairs, list)
        out += struct.pack(
            ">I%dI" % (2 * len(pairs)), len(pairs), *chain.from_iterable(pairs)
        )
        return
    if kind is NodeKind.STRUCT:
        name, fields = payload  # type: ignore[misc]
        name_raw = name.encode("utf-8")
        if len(name_raw) > 0xFFFF:
            raise EncodingError(f"struct name too long: {name!r}")
        out += _U16.pack(len(name_raw))
        out += name_raw
        out += _U16.pack(len(fields))
        for fname, cid in fields:
            fraw = fname.encode("utf-8")
            if len(fraw) > 0xFFFF:
                raise EncodingError(f"field name too long: {fname!r}")
            out += _U16.pack(len(fraw))
            out += fraw
            out += _U32.pack(cid)
        return
    if kind in _PACKED_KINDS:
        element, values = payload  # type: ignore[misc]
        out += _ELEMENT_HEADERS[element]
        out += struct.pack(
            ">I%d%s" % (len(values), element.domain.fmt), len(values), *values
        )
        return
    raise EncodingError(f"node {idx}: unserializable kind {kind!r}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class _Reader:
    """Bounds-checked cursor over the incoming byte buffer."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes | memoryview) -> None:
        self.data = memoryview(data)
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if n < 0 or self.pos + n > len(self.data):
            raise DecodingError(
                f"truncated stream: wanted {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}"
            )
        view = self.data[self.pos : self.pos + n]
        self.pos += n
        return view

    def u8(self) -> int:
        return _U8.unpack(self.take(1))[0]

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def f64(self) -> float:
        return _F64.unpack(self.take(8))[0]

    def at_end(self) -> bool:
        return self.pos == len(self.data)


def parse_graph(data: bytes | memoryview) -> LinearGraph:
    """Parse wire bytes into a :class:`LinearGraph` (no object building)."""
    r = _Reader(data)
    if bytes(r.take(2)) != MAGIC:
        raise DecodingError("bad magic: not a D-Memo transferable stream")
    version = r.u8()
    if version != VERSION:
        raise DecodingError(f"unsupported wire version {version}")
    count = r.u32()
    root = r.u32()
    graph = LinearGraph(root=root)
    for i in range(count):
        tag = r.u8()
        kind = _KIND_BY_TAG.get(tag)
        if kind is None:
            raise DecodingError(f"node {i}: unknown tag {tag:#x}")
        graph.nodes.append(Node(kind, _parse_payload(r, kind, i, count)))
    if not r.at_end():
        raise DecodingError(f"{len(r.data) - r.pos} trailing bytes after graph")
    if count and not 0 <= root < count:
        raise DecodingError(f"root id {root} out of range")
    return graph


def _parse_payload(r: _Reader, kind: NodeKind, idx: int, count: int) -> object:
    if kind is NodeKind.NONE:
        return None
    if kind is NodeKind.NATIVE_BOOL:
        b = r.u8()
        if b not in (0, 1):
            raise DecodingError(f"node {idx}: bad bool byte {b}")
        return bool(b)
    if kind is NodeKind.NATIVE_INT:
        n = r.u32()
        if n == 0:
            raise DecodingError(f"node {idx}: zero-length integer")
        return int.from_bytes(r.take(n), "big", signed=True)
    if kind is NodeKind.NATIVE_FLOAT:
        return r.f64()
    if kind is NodeKind.NATIVE_STR:
        n = r.u32()
        try:
            return str(r.take(n), "utf-8")
        except UnicodeDecodeError as exc:
            raise DecodingError(f"node {idx}: invalid UTF-8") from exc
    if kind is NodeKind.NATIVE_BYTES:
        return bytes(r.take(r.u32()))
    if kind is NodeKind.SCALAR:
        name = str(r.take(r.u8()), "ascii")
        payload = bytes(r.take(r.u32()))
        cls = SCALAR_TYPES.get(name)
        if cls is None:
            raise DecodingError(f"node {idx}: unknown scalar domain {name!r}")
        return (name, cls.unpack(payload))
    if kind in _CONTAINER_KINDS:
        return list(_children(r, r.u32(), idx, count))
    if kind is NodeKind.DICT:
        flat = _children(r, 2 * r.u32(), idx, count)
        return list(zip(flat[0::2], flat[1::2]))
    if kind is NodeKind.STRUCT:
        name = str(r.take(r.u16()), "utf-8")
        nfields = r.u16()
        fields = []
        for _ in range(nfields):
            fname = str(r.take(r.u16()), "utf-8")
            fields.append((fname, _child(r, idx, count)))
        return (name, fields)
    if kind in _PACKED_KINDS:
        tag = r.u8()
        header = bytes((tag,))
        if tag == NodeKind.SCALAR:
            n = r.u8()
            header += bytes((n,)) + bytes(r.take(n))
        element = _ELEMENT_BY_HEADER.get(header)
        if element is None:
            raise DecodingError(
                f"node {idx}: no packed element type {header!r}"
            )
        n = r.u32()
        domain = element.domain
        # take() bounds-checks count × width against the buffer before
        # anything is allocated, so a hostile count cannot reserve memory.
        body = r.take(n * domain.width_bytes)
        if domain.fmt == "?" and n and max(body) > 1:
            raise DecodingError(f"node {idx}: bad bool byte {max(body)}")
        return (element, struct.unpack(">%d%s" % (n, domain.fmt), body))
    raise DecodingError(f"node {idx}: unparseable kind {kind!r}")


def _child(r: _Reader, idx: int, count: int) -> int:
    cid = r.u32()
    if cid >= count:
        raise DecodingError(f"node {idx}: child id {cid} out of range (<{count})")
    return cid


def _children(r: _Reader, n: int, idx: int, count: int) -> tuple:
    """Read *n* child ids with one call and range-check them together."""
    ids = struct.unpack(">%dI" % n, r.take(4 * n))
    if n and max(ids) >= count:
        raise DecodingError(
            f"node {idx}: child id {max(ids)} out of range (<{count})"
        )
    return ids
