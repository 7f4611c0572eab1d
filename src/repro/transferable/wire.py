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

:func:`encode` is the spanning-tree walk of :mod:`repro.transferable.graph`
writing straight into the output buffer: each node's tag and payload go
out when the walk reaches it, child ids and the node count are patched in
place once known, and no node table is built.  The walk reaches the root
first, so ``root`` is always 0.  :func:`decode` reads the nodes once into a
flat list of values and shells and builds the graph from it.
"""

from __future__ import annotations

import struct
from operator import countOf

from repro.errors import DecodingError, EncodingError, UnknownTransferableError
from repro.transferable.graph import PACKED_ELEMENTS, NodeKind, PackedElement
from repro.transferable.registry import (
    StructInfo,
    TransferableRegistry,
    default_registry,
)
from repro.transferable.scalars import SCALAR_TYPES, Scalar

__all__ = [
    "MAGIC",
    "VERSION",
    "encode",
    "decode",
    "UnknownStructError",
]

MAGIC = b"DM"
VERSION = 1

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")
_TAG_U16 = struct.Struct(">BH")
_TAG_U32 = struct.Struct(">BI")
_TAG_F64 = struct.Struct(">Bd")
_COUNT_ROOT = struct.Struct(">II")

# Magic, version, node count (patched when the walk ends), root id 0.
_HEADER = MAGIC + bytes((VERSION,)) + bytes(8)
_COUNT_AT = 3
_ROOT_AT = 7

# The tags as plain ints, in NodeKind order: the walks compare them per node.
(
    _NONE, _BOOL, _INT, _FLOAT, _STR, _BYTES, _SCALAR,
    _LIST, _TUPLE, _SET, _FROZENSET, _DICT, _STRUCT,
    _PACKED_LIST, _PACKED_TUPLE,
) = (kind.value for kind in NodeKind)

#: Exact type -> tag; scalar classes are SCALAR, registered structs are not
#: listed (the registry is per call) and subclasses go through _BASE_KINDS.
_KIND_OF: dict[type, int] = {
    type(None): _NONE,
    bool: _BOOL,
    int: _INT,
    float: _FLOAT,
    str: _STR,
    bytes: _BYTES,
    bytearray: _BYTES,
    list: _LIST,
    tuple: _TUPLE,
    set: _SET,
    frozenset: _FROZENSET,
    dict: _DICT,
}
_KIND_OF.update((cls, _SCALAR) for cls in SCALAR_TYPES.values())
_BASE_KINDS = (
    (Scalar, _SCALAR),
    (int, _INT),
    (float, _FLOAT),
    (str, _STR),
    ((bytes, bytearray), _BYTES),
    (list, _LIST),
    (tuple, _TUPLE),
    (frozenset, _FROZENSET),
    (set, _SET),
    (dict, _DICT),
)

#: Scalar class -> what its SCALAR node writes before the payload length.
_SCALAR_PREFIX = {
    cls: bytes((_SCALAR, len(name))) + name.encode("ascii")
    for name, cls in SCALAR_TYPES.items()
}
_SCALAR_BY_NAME = {name.encode("ascii"): cls for name, cls in SCALAR_TYPES.items()}


def _element_header(element: PackedElement) -> bytes:
    """What a packed node writes before its count: tag [, name length, name]."""
    if element.name is None:
        return bytes((element.kind,))
    name_raw = element.name.encode("ascii")
    return bytes((element.kind, len(name_raw))) + name_raw


_ELEMENT_HEADERS = {e: _element_header(e) for e in PACKED_ELEMENTS.values()}
_ELEMENT_BY_HEADER = {header: e for e, header in _ELEMENT_HEADERS.items()}


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def encode(
    obj: object,
    *,
    registry: TransferableRegistry | None = None,
    strict_domains: bool = False,
) -> bytes:
    """Linearize *obj* straight into the wire format.

    This is the single call an application makes to
    move "arbitrary data structures, even self-referential structures ...
    with ease".  Raises :class:`EncodingError` on an unsupported type.

    Args:
        registry: struct-type registry used for user-defined transferables.
        strict_domains: when True, bare Python ``int``/``float`` values are
            rejected, enforcing the paper's "think in concrete domains"
            discipline (applications must wrap values in ``Int32`` etc.).
    """
    if registry is None:
        registry = default_registry
    out = bytearray(_HEADER)
    patch = _U32.pack_into
    # id(container) -> (node id, container): holding the container keeps
    # its id() from being recycled mid-encode.
    memo: dict[int, tuple[int, object]] = {}
    count = 0
    # (object, offset of the u32 that receives its node id).  Children are
    # pushed in reverse so they are numbered left to right.
    stack: list[tuple[object, int]] = [(obj, _ROOT_AT)]
    while stack:
        item, slot = stack.pop()
        kind = _KIND_OF.get(type(item))
        if kind is None:
            kind = _base_kind(item)
        if kind >= _LIST:
            # A container: reserve its id *before* its children, which is
            # exactly what makes self-reference work.
            ref = memo.get(id(item))
            if ref is not None:
                patch(out, slot, ref[0])
                continue
            memo[id(item)] = (count, item)
        patch(out, slot, count)
        count += 1
        if kind == _INT:
            if strict_domains:
                raise EncodingError(
                    "bare int rejected under strict domains; wrap it in an "
                    "absolute-domain scalar such as Int32"
                )
            n = (item.bit_length() + 8) >> 3  # +8 keeps the sign bit
            out += _TAG_U32.pack(_INT, n)
            out += item.to_bytes(n, "big", signed=True)
        elif kind == _LIST or kind == _TUPLE:
            packed = _packed_body(item, strict_domains) if item else None
            if packed is not None:
                out.append(_PACKED_LIST if kind == _LIST else _PACKED_TUPLE)
                out += packed
            else:
                _write_children(out, stack, kind, item)
        elif kind == _FLOAT:
            if strict_domains:
                raise EncodingError(
                    "bare float rejected under strict domains; wrap it in "
                    "Float32 or Float64"
                )
            out += _TAG_F64.pack(_FLOAT, item)
        elif kind == _STR:
            raw = item.encode("utf-8")
            out += _TAG_U32.pack(_STR, len(raw))
            out += raw
        elif kind == _NONE:
            out.append(_NONE)
        elif kind == _BOOL:
            out += b"\x01\x01" if item else b"\x01\x00"
        elif kind == _SCALAR:
            prefix = _SCALAR_PREFIX.get(type(item))
            if prefix is None:
                raise EncodingError(
                    f"unregistered scalar type {type(item).__qualname__}"
                )
            raw = item.pack()
            out += prefix
            out += _U32.pack(len(raw))
            out += raw
        elif kind == _BYTES:
            out += _TAG_U32.pack(_BYTES, len(item))
            out += item
        elif kind == _DICT:
            n = len(item)
            out += _TAG_U32.pack(_DICT, n)
            slot = len(out) + 8 * n
            out += bytes(8 * n)
            for key, value in reversed(item.items()):
                slot -= 8
                stack.append((value, slot + 4))
                stack.append((key, slot))
        elif kind == _SET or kind == _FROZENSET:
            # Deterministic order keeps the encoding canonical across runs.
            _write_children(out, stack, kind, sorted(item, key=_set_sort_key))
        else:
            info = registry.lookup_class(type(item))
            if info is None:
                raise EncodingError(
                    f"type {type(item).__qualname__} is not transferable; "
                    f"register it with @transferable_struct or wrap it in a "
                    f"scalar"
                )
            _write_struct(out, stack, info, item)
    patch(out, _COUNT_AT, count)
    return bytes(out)


def _base_kind(obj: object) -> int:
    """Tag of an instance of a subclass of a built-in kind; else STRUCT."""
    for base, kind in _BASE_KINDS:
        if isinstance(obj, base):
            return kind
    return _STRUCT


def _write_children(
    out: bytearray, stack: list, tag: int, members: list | tuple
) -> None:
    """Write a child-id node with zeroed ids and queue members against them."""
    n = len(members)
    out += _TAG_U32.pack(tag, n)
    base = len(out)
    out += bytes(4 * n)
    stack.extend(zip(reversed(members), range(base + 4 * n - 4, base - 4, -4)))


def _write_struct(out: bytearray, stack: list, info: StructInfo, obj: object) -> None:
    """Write a STRUCT node with zeroed child ids and queue its fields."""
    name = info.name.encode("utf-8")
    if len(name) > 0xFFFF:
        raise EncodingError(f"struct name too long: {info.name!r}")
    out += _TAG_U16.pack(_STRUCT, len(name))
    out += name
    out += _U16.pack(len(info.fields))
    queued = []
    for fname in info.fields:
        raw = fname.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise EncodingError(f"field name too long: {fname!r}")
        out += _U16.pack(len(raw))
        out += raw
        queued.append((info.get_field(obj, fname), len(out)))
        out += bytes(4)
    stack.extend(reversed(queued))


def _packed_body(seq: list | tuple, strict_domains: bool) -> bytes | None:
    """A packed node's bytes after its tag when *seq* is a packed vector.

    None sends the sequence down the per-element path, which also owns
    every error message: a bare number under strict domains is refused
    there, not here.
    """
    cls = type(seq[0])
    element = PACKED_ELEMENTS.get(cls)
    if element is None or countOf(map(type, seq), cls) != len(seq):
        return None
    if element.scalar is not None:
        seq = [item._value for item in seq]
    elif strict_domains and element.kind is not NodeKind.NATIVE_BOOL:
        return None
    elif element.kind is NodeKind.NATIVE_INT and not (
        element.domain.lo <= min(seq) and max(seq) <= element.domain.hi
    ):
        return None
    n = len(seq)
    return _ELEMENT_HEADERS[element] + struct.pack(
        ">I%d%s" % (n, element.domain.fmt), n, *seq
    )


def _set_sort_key(item: object) -> tuple:
    return (type(item).__name__, repr(item))


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


class UnknownStructError(DecodingError, UnknownTransferableError):
    """A stream names a struct the decoding registry does not have.

    Both kinds of error at once: a stream :func:`decode` cannot rebuild,
    and a name missing from the registry.
    """


_UNSET = object()  # a tuple or frozenset not built yet


def decode(
    data: bytes | memoryview,
    *,
    registry: TransferableRegistry | None = None,
) -> object:
    """Parse wire bytes and rebuild the original object graph.

    One pass reads every node into ``values``: leaves are built at once,
    mutable containers (list/set/dict/struct) become empty shells, so every
    id resolves to its object's identity up front — shells are what break
    cycles.  Immutable containers (tuple/frozenset) are then built children
    first with an explicit stack; a cycle passing *only* through immutables
    is not a constructible Python value and raises.  Last, the shells are
    filled: lists and structs first, then the sets and dicts that hash
    their members.  No recursion, so depth is unbounded.

    Raises :class:`DecodingError` on any stream it cannot rebuild; a struct
    name *registry* lacks is :class:`UnknownStructError`, which is also an
    :class:`UnknownTransferableError`.
    """
    if registry is None:
        registry = default_registry
    size = len(data)
    if data[:2] != MAGIC:
        raise DecodingError("bad magic: not a D-Memo transferable stream")
    if size < len(_HEADER):
        raise DecodingError(f"truncated stream: {size}-byte header")
    if data[2] != VERSION:
        raise DecodingError(f"unsupported wire version {data[2]}")
    count, root = _COUNT_ROOT.unpack_from(data, _COUNT_AT)
    if count > size - len(_HEADER):  # every node has at least its tag
        raise DecodingError(
            f"truncated stream: {count} nodes in {size - len(_HEADER)} bytes"
        )
    if root >= count:
        raise DecodingError(f"root id {root} out of range")

    values: list[object] = []  # node id -> object; _UNSET while pending
    pending: dict[int, tuple[int, tuple]] = {}  # tuple/frozenset: (tag, ids)
    fills: list[tuple] = []  # (tag, shell, ids or (info, fields)): lists, structs
    hashed: list[tuple] = []  # (idx, shell, ids): sets and dicts
    pos = len(_HEADER)
    try:
        for idx in range(count):
            tag = data[pos]
            pos += 1
            if tag == _INT:
                n = _U32.unpack_from(data, pos)[0]
                if n == 0:
                    raise DecodingError(f"node {idx}: zero-length integer")
                pos += 4
                end = _end(pos, n, size)
                values.append(int.from_bytes(data[pos:end], "big", signed=True))
                pos = end
            elif tag == _PACKED_LIST or tag == _PACKED_TUPLE:
                items, pos = _read_packed(data, pos, size, idx)
                values.append(list(items) if tag == _PACKED_LIST else tuple(items))
            elif _LIST <= tag <= _DICT:
                n = _U32.unpack_from(data, pos)[0]
                if tag == _DICT:
                    n *= 2
                pos += 4
                end = _end(pos, 4 * n, size)
                ids = struct.unpack_from(">%dI" % n, data, pos)
                pos = end
                if n and max(ids) >= count:
                    raise DecodingError(
                        f"node {idx}: child id {max(ids)} out of range (<{count})"
                    )
                if tag == _TUPLE or tag == _FROZENSET:
                    values.append(_UNSET)
                    pending[idx] = (tag, ids)
                elif tag == _LIST:
                    shell: object = []
                    values.append(shell)
                    fills.append((_LIST, shell, ids))
                else:
                    shell = set() if tag == _SET else {}
                    values.append(shell)
                    hashed.append((idx, shell, ids))
            elif tag == _FLOAT:
                values.append(_F64.unpack_from(data, pos)[0])
                pos += 8
            elif tag == _STR or tag == _BYTES:
                n = _U32.unpack_from(data, pos)[0]
                pos += 4
                end = _end(pos, n, size)
                if tag == _STR:
                    values.append(_utf8(data[pos:end], idx))
                else:
                    values.append(bytes(data[pos:end]))
                pos = end
            elif tag == _NONE:
                values.append(None)
            elif tag == _BOOL:
                b = data[pos]
                if b > 1:
                    raise DecodingError(f"node {idx}: bad bool byte {b}")
                values.append(b == 1)
                pos += 1
            elif tag == _SCALAR:
                end = pos + 1 + data[pos]
                cls = _SCALAR_BY_NAME.get(bytes(data[pos + 1 : end]))
                if cls is None:
                    raise DecodingError(
                        f"node {idx}: unknown scalar domain "
                        f"{bytes(data[pos + 1 : end])!r}"
                    )
                n = _U32.unpack_from(data, end)[0]
                pos = end + 4
                end = _end(pos, n, size)
                values.append(cls.unpack(bytes(data[pos:end])))
                pos = end
            elif tag == _STRUCT:
                info, fields, pos = _read_struct(data, pos, size, idx, count, registry)
                shell = info.make_shell()
                values.append(shell)
                fills.append((_STRUCT, shell, (info, fields)))
            else:
                raise DecodingError(f"node {idx}: unknown tag {tag:#x}")
    except (IndexError, struct.error) as exc:
        raise DecodingError(f"truncated stream at offset {pos}: {exc}") from None
    if pos != size:
        raise DecodingError(f"{size - pos} trailing bytes after graph")

    for idx in pending:
        if values[idx] is _UNSET:
            _build_immutable(idx, values, pending)
    get = values.__getitem__
    for tag, shell, payload in fills:
        if tag == _LIST:
            shell.extend(map(get, payload))
        else:
            info, fields = payload
            for fname, cid in fields:
                info.set_field(shell, fname, values[cid])
    # Hashing can raise AttributeError too: a struct whose __hash__ reads a
    # field that is not set yet.
    for idx, shell, ids in hashed:
        try:
            if type(shell) is set:
                shell.update(map(get, ids))
            else:
                shell.update(zip(map(get, ids[0::2]), map(get, ids[1::2])))
        except (TypeError, AttributeError) as exc:
            raise DecodingError(
                f"node {idx}: unhashable {type(shell).__name__} member"
            ) from exc
    return values[root]


def _end(pos: int, n: int, size: int) -> int:
    """End offset of *n* bytes at *pos*, refused past the buffer."""
    end = pos + n
    if end > size:
        raise DecodingError(
            f"truncated stream: wanted {n} bytes at offset {pos}, "
            f"have {size - pos}"
        )
    return end


def _utf8(raw: bytes | memoryview, idx: int) -> str:
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise DecodingError(f"node {idx}: invalid UTF-8") from exc


def _read_packed(data, pos: int, size: int, idx: int) -> tuple[object, int]:
    """A packed node's element values (after its tag) and the end offset."""
    end = pos + 1
    if data[pos] == _SCALAR:
        end += 1 + data[pos + 1]
    element = _ELEMENT_BY_HEADER.get(bytes(data[pos:end]))
    if element is None:
        raise DecodingError(
            f"node {idx}: no packed element type {bytes(data[pos:end])!r}"
        )
    n = _U32.unpack_from(data, end)[0]
    domain = element.domain
    pos = end + 4
    # Bounds-check count × width before anything is allocated, so a hostile
    # count cannot reserve memory.
    end = _end(pos, n * domain.width_bytes, size)
    if domain.fmt == "?" and n and max(data[pos:end]) > 1:
        raise DecodingError(f"node {idx}: bad bool byte {max(data[pos:end])}")
    items = struct.unpack_from(">%d%s" % (n, domain.fmt), data, pos)
    if element.scalar is not None:
        # Rebuilding each wrapper re-applies its domain check.
        return map(element.scalar._from_domain, items), end
    return items, end


def _read_struct(
    data, pos: int, size: int, idx: int, count: int, registry: TransferableRegistry
) -> tuple[StructInfo, list[tuple[str, int]], int]:
    """A STRUCT node's registration, (field, child id) pairs and end offset.

    The field names must be exactly the registered ones, each once: a name
    from the wire never reaches ``setattr`` unchecked.
    """
    n = _U16.unpack_from(data, pos)[0]
    end = _end(pos + 2, n, size)
    name = _utf8(data[pos + 2 : end], idx)
    nfields = _U16.unpack_from(data, end)[0]
    pos = end + 2
    fields = []
    for _ in range(nfields):
        n = _U16.unpack_from(data, pos)[0]
        end = _end(pos + 2, n, size)
        fname = _utf8(data[pos + 2 : end], idx)
        cid = _U32.unpack_from(data, end)[0]
        if cid >= count:
            raise DecodingError(f"node {idx}: child id {cid} out of range (<{count})")
        fields.append((fname, cid))
        pos = end + 4
    try:
        info = registry.lookup_name(name)
    except UnknownTransferableError as exc:
        raise UnknownStructError(f"node {idx}: {exc}") from None
    names = [fname for fname, _ in fields]
    if len(names) != len(info.fields) or set(names) != set(info.fields):
        raise DecodingError(
            f"node {idx}: struct {name!r} fields {names} are not its "
            f"registered fields {list(info.fields)}"
        )
    return info, fields, pos


def _build_immutable(start: int, values: list, pending: dict) -> None:
    """Build tuple/frozenset node *start*, children first, iteratively."""
    in_progress: set[int] = set()
    stack = [start]
    while stack:
        idx = stack[-1]
        if values[idx] is not _UNSET:
            stack.pop()
            continue
        tag, ids = pending[idx]
        unready = [cid for cid in ids if values[cid] is _UNSET]
        if unready:
            if idx in in_progress:
                raise DecodingError(
                    f"node {idx}: cycle through immutable container "
                    f"({NodeKind(tag).name}) — not a constructible Python value"
                )
            in_progress.add(idx)
            stack.extend(unready)
            continue
        members = [values[cid] for cid in ids]
        if tag == _TUPLE:
            values[idx] = tuple(members)
        else:
            try:
                values[idx] = frozenset(members)
            except (TypeError, AttributeError) as exc:
                raise DecodingError(
                    f"node {idx}: unhashable frozenset member"
                ) from exc
        stack.pop()
