"""Compact positional codec for protocol control messages.

The control plane speaks this framing and no other.  The transferable TLV
format (:mod:`repro.transferable.wire`) is fully self-describing: every
value carries its struct name, every field its field name, and the object
graph is written node by node.  That is the right trade for *user data* —
arbitrary, possibly self-referential structures crossing heterogeneous
machines — and it is what a memo payload is: opaque ``bytes`` here, encoded
and decoded only by clients.  It is pure overhead for the ~20 fixed
control messages of the server protocol, which dominate the wire; section
5 of the paper reasons about performance in messages and bytes per link,
and this module is where the control plane wins those bytes back.  A
server decodes nothing else, so this module imports nothing of the value
codec and no peer can make a server build a registered object graph.

Frame layout::

    magic   2 bytes  b"DC"       (a TLV payload starts b"DM": refused here)
    version 1 byte   0x01 plain | 0x02 correlated
    tag     1 byte   message type (see the registrations in protocol.py)
    corr    uvarint  correlation id (version 0x02 frames only)
    body    positional fields, no names, no graph

A version-2 ("correlated") frame is byte-identical to a version-1 frame
except for the version byte and one LEB128 correlation id between the tag
and the body.  The id names the request a reply answers, which is what
lets a connection carry many requests at once and return their replies
out of order (per-connection pipelining).  Every request on the wire is
a version-2 frame; a memo server closes a connection that sends it an
id-less request.  Version 1 never frames a request on the wire, inside
a carrier or not.  It frames WAL records, the two carriers whose member
frames carry the ids (a client's ``PipelineBatch``, a server's
``Envelope``), the ``Acks`` reply, whose body lists the many ids it
answers, and the unsolicited *push* frames (``MemoReady``/
``WaitCancelled``, the parked-waiter completions).  A push answers no
request, so it carries no correlation id; its routing key, the waiter
token, lives in the message body.

Body primitives::

    uvarint   LEB128 unsigned integer (lengths, counts, key indexes)
    str       uvarint byte-length + UTF-8 bytes
    name      as str on the wire; decoded through ``sys.intern``
    bytes     uvarint byte-length + raw bytes
    bool      1 byte (0 or 1)
    f64       8-byte IEEE-754 binary64, big-endian
    folder    app str, symbol str, uvarint index count, uvarint indexes
    uint_deltas  uvarint count, then each uint as the zigzag uvarint of
              its difference from the one before (the first from 0)
    num_map   uvarint count, then per entry a str key, one value tag byte
              and the value: 0 a uvarint n, 1 a negative int as the
              uvarint of -1 - n, 2 an f64 (an empty map is the byte 00);
              the counters of ``Reply.stats`` and ``DeltaSyncPull``

Each registered message is compiled once: :func:`register_compact`
generates the source of one encoder and one decoder from the message's
``(name, kind)`` field table, the way :mod:`dataclasses` generates
``__init__``, so a frame costs one call with no per-field dispatch.  One
kind table (:data:`_KINDS`) gives every kind its encode and its decode
statement, so both directions read the same table: the scalar kinds
inline their one-byte cases, the carriers' ``bytes_tuple`` and the
trail's ``str_tuple`` their loops, and a reply's ``opt_folder`` and
``num_map`` their empty case; the rest (a folder, maps with entries,
pairs, other tuples) call ``(out, value)`` writers and ``(data, pos) ->
(value, pos)`` readers.  :func:`encode_fields` writes a frame from the
field values alone, and :func:`recorrelate` swaps a frame's id.
The folder field is cached on both sides — decoded once per distinct
wire spelling, encoded once per distinct :class:`FolderName`.
"""

from __future__ import annotations

import linecache
import struct
import sys
import threading
from typing import Callable

from repro.core.keys import FolderName, Key, Symbol
from repro.errors import DecodingError, EncodingError, MemoError

__all__ = [
    "COMPACT_MAGIC",
    "COMPACT_VERSION",
    "CORRELATED_VERSION",
    "register_compact",
    "encode_message",
    "encode_fields",
    "encode_correlated_burst",
    "decode_message",
    "decode_tagged",
    "split_correlated",
    "recorrelate",
    "folder_intern_stats",
]

COMPACT_MAGIC = b"DC"
COMPACT_VERSION = 1
CORRELATED_VERSION = 2

_HEADER = COMPACT_MAGIC + bytes((COMPACT_VERSION,))
_HEADER_CORR = COMPACT_MAGIC + bytes((CORRELATED_VERSION,))
_F64 = struct.Struct(">d")


# ---------------------------------------------------------------------------
# Folder fields, cached in both directions
# ---------------------------------------------------------------------------


#: Decoded folder fields by their raw wire bytes.  An application names a
#: small fixed vocabulary of folders again and again, so each is parsed,
#: validated, hashed and canonicalised once per process rather than once
#: per hop.  Only fields that passed the validating parse are ever
#: inserted; when the cap is reached the table is cleared, not evicted.
_FOLDERS: dict[bytes, FolderName] = {}

#: The encode-side twin: a folder field's wire bytes by its name, under
#: the same cap, field-length bound and lock.
_FOLDER_FIELDS: dict[FolderName, bytes] = {}

#: Entry cap.  One entry is the key bytes plus a FolderName/Key/Symbol
#: with their strings, cached hash and canonical form: 0.83 KiB measured
#: for an ``app, symbol, [i]`` name, so a full table is about 0.85 MiB
#: (about 1 % of ``ingest``'s 80 MiB ``peak_rss_mb``, whose 576 folders
#: are the most any benchmark workload names; the ~28 MiB workloads name 66).
#: Fields longer than ``_FOLDER_INTERN_MAX_FIELD`` bytes are decoded
#: every time and never kept, which makes the bound hold for any peer:
#: at most ~2 KiB an entry, 2 MiB in all.
_FOLDER_INTERN_CAP = 1024
_FOLDER_INTERN_MAX_FIELD = 64

_intern_lock = threading.Lock()
_intern_misses = 0


def _intern_folder(raw: bytes | None, folder: FolderName) -> None:
    """Count a freshly validated folder field (the miss path only) and
    keep it under *raw*, its wire bytes, unless that is None."""
    global _intern_misses
    with _intern_lock:
        _intern_misses += 1
        if raw is None or len(raw) > _FOLDER_INTERN_MAX_FIELD:
            return
        if len(_FOLDERS) >= _FOLDER_INTERN_CAP:
            _FOLDERS.clear()
        _FOLDERS[raw] = folder


def folder_intern_stats() -> dict[str, int]:
    """Table size and the count of folder fields decoded the slow way.

    Hits are not counted (that is what keeps them free): traffic that
    repeats its folder names shows a miss count that stops growing.
    """
    with _intern_lock:
        return {
            "folder_intern_size": len(_FOLDERS),
            "folder_intern_misses": _intern_misses,
        }


# ---------------------------------------------------------------------------
# Writers: ``(out, value)``, appending to a bytearray
# ---------------------------------------------------------------------------


def _w_uv(out: bytearray, n: int) -> None:
    if 0 <= n < 0x80:
        out.append(n)
        return
    if n < 0:
        raise EncodingError(f"compact codec cannot encode negative int {n}")
    while n >= 0x80:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _w_uint(out: bytearray, n: int) -> None:
    """A uint field or a correlation id: every decoder rejects a varint
    past 64 bits, so none is ever sent."""
    if 0 <= n < 0x80:
        out.append(n)
    elif n >> 64:  # also every negative n
        raise EncodingError(f"compact codec cannot encode {n}: outside [0, 2**64)")
    else:
        _w_uv(out, n)


#: The one-byte uvarints.
_UV1 = tuple(bytes((n,)) for n in range(0x80))


def _uint_bytes(n: int) -> bytes:
    """What :func:`_w_uint` writes for *n*, as bytes: a correlation id to
    splice between a frame's header and its body."""
    if n < 0x4000 and n >= 0:
        return _UV1[n] if n < 0x80 else bytes(((n & 0x7F) | 0x80, n >> 7))
    if 0 < n < 0x200000:
        return bytes(((n & 0x7F) | 0x80, (n >> 7 & 0x7F) | 0x80, n >> 14))
    out = bytearray()
    _w_uint(out, n)
    return bytes(out)


def _w_bytes(out: bytearray, b: bytes) -> None:
    _w_uv(out, len(b))
    out += b


def _w_str(out: bytearray, s: str) -> None:
    _w_bytes(out, s.encode("utf-8"))


def _w_f64(out: bytearray, x: float) -> None:
    out += _F64.pack(x)


def _w_folder(out: bytearray, f: FolderName) -> None:
    raw = _FOLDER_FIELDS.get(f)
    if raw is None:
        field = bytearray()
        _w_str(field, f.app)
        _w_str(field, f.key.symbol.name)
        _w_uv(field, len(f.key.index))
        for x in f.key.index:
            _w_uv(field, x)
        raw = bytes(field)
        if len(raw) <= _FOLDER_INTERN_MAX_FIELD:
            with _intern_lock:
                if len(_FOLDER_FIELDS) >= _FOLDER_INTERN_CAP:
                    _FOLDER_FIELDS.clear()
                _FOLDER_FIELDS[f] = raw
    out += raw


def _w_uint_deltas(out: bytearray, values: tuple) -> None:
    _w_uv(out, len(values))
    prev = 0
    for x in values:
        d = x - prev
        z = d << 1 if d >= 0 else (-d << 1) - 1
        if z < 0x80:
            out.append(z)
        else:
            _w_uv(out, z)
        prev = x


def _w_num_map(out: bytearray, values: dict) -> None:
    _w_uv(out, len(values))
    for key, v in values.items():
        _w_str(out, key)
        if type(v) is float:
            out.append(2)
            _w_f64(out, v)
        elif not isinstance(v, int):
            raise EncodingError(
                f"compact map value for {key!r} is neither int nor float: {v!r}"
            )
        elif v >= 0:
            out.append(0)
            _w_uint(out, v)
        else:
            out.append(1)
            _w_uint(out, -1 - v)


def _w_pair(first: Callable, second: Callable) -> Callable:
    def write(out: bytearray, pair: tuple) -> None:
        a, b = pair
        first(out, a)
        second(out, b)

    return write


def _w_many(write: Callable, each: Callable = iter) -> Callable:
    """A uvarint count, then each item of the collection."""

    def many(out: bytearray, items) -> None:
        _w_uv(out, len(items))
        for item in each(items):
            write(out, item)

    return many


# ---------------------------------------------------------------------------
# Readers: ``(data, pos) -> (value, pos)`` over a bytes frame
# ---------------------------------------------------------------------------
#
# An index past the end raises IndexError and a bad UTF-8 sequence
# UnicodeDecodeError; decode_tagged turns both into DecodingError.  A
# slice past the end does not raise, so every length is checked.


def _uv_tail(data: bytes, pos: int, first: int) -> tuple[int, int]:
    """Finish a multi-byte uvarint whose first byte was *first*."""
    b = data[pos]
    if b < 0x80:  # two bytes: every id past 127 for a long while
        return (first & 0x7F) | b << 7, pos + 1
    result = (first & 0x7F) | (b & 0x7F) << 7
    shift = 7
    while True:
        shift += 7
        pos += 1
        b = data[pos]
        result |= (b & 0x7F) << shift
        if b < 0x80:
            return result, pos + 1
        if shift > 56:
            raise DecodingError("varint exceeds 64 bits")


def _r_uv(data: bytes, pos: int) -> tuple[int, int]:
    b = data[pos]
    if b < 0x80:
        return b, pos + 1
    return _uv_tail(data, pos + 1, b)


def _truncated(wanted: int, pos: int) -> DecodingError:
    return DecodingError(
        f"truncated compact frame: wanted {wanted} bytes at offset {pos}"
    )


def _bad_bool(b: int) -> DecodingError:
    return DecodingError(f"bad bool byte {b:#x} in compact frame")


def _r_bytes(data: bytes, pos: int) -> tuple[bytes, int]:
    n, pos = _r_uv(data, pos)
    end = pos + n
    if end > len(data):
        raise _truncated(n, pos)
    return data[pos:end], end


def _r_str(data: bytes, pos: int) -> tuple[str, int]:
    raw, pos = _r_bytes(data, pos)
    return raw.decode("utf-8"), pos


def _r_f64(data: bytes, pos: int) -> tuple[float, int]:
    if pos + 8 > len(data):
        raise _truncated(8, pos)
    return _F64.unpack_from(data, pos)[0], pos + 8


def _folder_end(data: bytes, pos: int) -> int:
    """Offset just past the folder field at *pos*, or -1.

    Follows the length prefixes only and validates nothing.  -1 sends
    the caller to the validating parse, which raises the precise error or
    decodes a field the table never holds: one that does not fit the
    frame, or whose app, symbol or index count needs a multi-byte length
    (so longer than ``_FOLDER_INTERN_MAX_FIELD``).
    """
    try:
        n = data[pos]  # app
        if n >= 0x80:
            return -1
        pos += n + 1
        n = data[pos]  # symbol
        if n >= 0x80:
            return -1
        pos += n + 1
        n = data[pos]  # index count, then the indexes
        if n >= 0x80:
            return -1
        pos += 1
        for _ in range(n):
            while data[pos] >= 0x80:
                pos += 1
            pos += 1
    except IndexError:
        return -1
    return pos if pos <= len(data) else -1


def _r_folder(data: bytes, pos: int) -> tuple[FolderName, int]:
    """Read a folder field, shared per distinct wire spelling.

    The field's extent is found from its length prefixes alone and its
    raw bytes looked up in :data:`_FOLDERS`.  A miss — including every
    field the skip cannot delimit — takes the validating parse below and
    is inserted only once that has succeeded, so a hit always returns
    what parsing these exact bytes returned before.
    """
    end = _folder_end(data, pos)
    raw = data[pos:end] if end > 0 else None  # None: never a key
    folder = _FOLDERS.get(raw)
    if folder is not None:
        return folder, end
    app, pos = _r_str(data, pos)
    symbol, pos = _r_str(data, pos)
    n, pos = _r_uv(data, pos)
    index = []
    for _ in range(n):
        x, pos = _r_uv(data, pos)
        index.append(x)
    folder = FolderName(app, Key(Symbol(symbol), tuple(index)))
    # Kept only if the parse consumed exactly the bytes looked up.
    _intern_folder(raw if pos == end else None, folder)
    return folder, pos


def _r_uint_deltas(data: bytes, pos: int) -> tuple[tuple, int]:
    n, pos = _r_uv(data, pos)
    values = []
    prev = 0
    for _ in range(n):
        z = data[pos]
        pos += 1
        if z >= 0x80:
            z, pos = _uv_tail(data, pos, z)
        prev += (z >> 1) ^ -(z & 1)
        values.append(prev)
    return tuple(values), pos


def _r_num_map(data: bytes, pos: int) -> tuple[dict, int]:
    n, pos = _r_uv(data, pos)
    values = {}
    for _ in range(n):
        key, pos = _r_str(data, pos)
        kind = data[pos]
        if kind == 2:
            values[key], pos = _r_f64(data, pos + 1)
        elif kind < 2:
            m, pos = _r_uv(data, pos + 1)
            values[key] = -1 - m if kind else m
        else:
            raise DecodingError(f"bad map value tag {kind:#x} in compact frame")
    return values, pos


def _r_pair(first: Callable, second: Callable) -> Callable:
    def read(data: bytes, pos: int) -> tuple[tuple, int]:
        a, pos = first(data, pos)
        b, pos = second(data, pos)
        return (a, b), pos

    return read


def _r_many(read: Callable, build: Callable = tuple) -> Callable:
    """A uvarint count, then that many items, collected by *build*."""

    def many(data: bytes, pos: int) -> tuple[object, int]:
        n, pos = _r_uv(data, pos)
        items = []
        for _ in range(n):
            item, pos = read(data, pos)
            items.append(item)
        return build(items), pos

    return many


_w_folder_tuple = _w_many(_w_folder)
_r_folder_tuple = _r_many(_r_folder)
_w_server_pairs = _w_many(_w_pair(_w_str, _w_str))
_r_server_pairs = _r_many(_r_pair(_r_str, _r_str))
_w_float_dict = _w_many(_w_pair(_w_str, _w_f64), dict.items)
_r_float_dict = _r_many(_r_pair(_r_str, _r_f64), dict)
_w_link_dict = _w_many(_w_pair(_w_str, _w_float_dict), dict.items)
_r_link_dict = _r_many(_r_pair(_r_str, _r_float_dict), dict)


# ---------------------------------------------------------------------------
# The kind table and the spec compiler
# ---------------------------------------------------------------------------

# Statements the compiler pastes into a spec's two functions.  An encode
# statement reads the field's value from ``v`` and appends to ``out``; a
# decode statement reads ``data`` (``n`` bytes long) at ``pos``, advances
# ``pos`` and binds the value to ``{v}``.  The scalar kinds inline their
# one-byte cases; ``k`` and ``end`` are scratch.
_ENC_UV = """\
if 0 <= v < 0x80:
    out.append(v)
else:
    _w_uint(out, v)"""
_ENC_COUNT = """\
if len(v) < 0x80:
    out.append(len(v))
else:
    _w_uv(out, len(v))"""
_ENC_BYTES = _ENC_COUNT + "\nout += v"
_DEC_UV = """\
{v} = data[pos]
pos += 1
if {v} >= 0x80:
    {v}, pos = _uv_tail(data, pos, {v})"""
_DEC_SPAN = _DEC_UV.format(v="k") + """
end = pos + k
if end > n:
    raise _truncated(k, pos)
"""


def _tuple_of(write: str, value: str) -> tuple[str, str]:
    """The statements of a tuple kind whose items are written by the
    encode statement *write* and read as the expression *value* of their
    span ``data[pos:end]``: a count, then the loop, pasted in."""
    body = _DEC_SPAN + f"items.append({value})\npos = end"
    return (
        _ENC_COUNT + "\nitems = v\nfor v in items:\n"
        + "".join(f"    {line}\n" for line in write.splitlines()),
        _DEC_UV.format(v="c") + "\nitems = []\nfor _ in range(c):\n"
        + "".join(f"    {line}\n" for line in body.splitlines())
        + "{v} = tuple(items)",
    )


#: kind -> (encode statement, decode statement): one table, both directions.
_KINDS: dict[str, tuple[str, str]] = {
    "uint": (_ENC_UV, _DEC_UV),
    "bytes": (_ENC_BYTES, _DEC_SPAN + "{v} = data[pos:end]\npos = end"),
    "str": (
        "v = v.encode('utf-8')\n" + _ENC_BYTES,
        _DEC_SPAN + "{v} = data[pos:end].decode('utf-8')\npos = end",
    ),
    # A depositor or store name: every memo from one process holds the
    # same ``str``.  No table to bound — an interned string dies with its
    # last reference.
    "name": (
        "v = v.encode('utf-8')\n" + _ENC_BYTES,
        _DEC_SPAN + "{v} = _intern(data[pos:end].decode('utf-8'))\npos = end",
    ),
    "bool": (
        "out.append(1 if v else 0)",
        "{v} = data[pos]\npos += 1\nif {v} > 1:\n    raise _bad_bool({v})\n{v} = {v} == 1",
    ),
    # Every frame a carrier holds (a client's batch, every request between
    # servers) is a ``bytes_tuple`` item, and every envelope has a trail:
    # their loops are pasted in too.
    "bytes_tuple": _tuple_of(_ENC_BYTES, "data[pos:end]"),
    "str_tuple": _tuple_of(
        "v = v.encode('utf-8')\n" + _ENC_BYTES, "data[pos:end].decode('utf-8')"
    ),
    # Every reply has both, and most hold no folder and no counters.
    "opt_folder": (
        "if v is None:\n    out.append(0)\nelse:\n    out.append(1)\n    _w_folder(out, v)",
        "if data[pos] == 0:\n    {v} = None\n    pos += 1\n"
        "else:\n    {v}, pos = _r_folder(data, pos + 1)",
    ),
    "num_map": (
        "if len(v):\n    _w_num_map(out, v)\nelse:\n    out.append(0)",
        "if data[pos] == 0:\n    {v} = {{}}\n    pos += 1\n"
        "else:\n    {v}, pos = _r_num_map(data, pos)",
    ),
}
for _kind in (
    "folder", "folder_tuple", "server_pairs", "float_dict", "link_dict", "uint_deltas",
):
    _KINDS[_kind] = (f"_w_{_kind}(out, v)", f"{{v}}, pos = _r_{_kind}(data, pos)")
del _kind


def _indent(statement: str) -> str:
    return "".join(f"        {line}\n" for line in statement.splitlines())


def _compile(cls: type, fields: tuple) -> tuple[Callable, Callable, Callable]:
    """Generate ``enc(msg, out)``, ``pack(out, *fields)`` (the same writes,
    from the field values) and ``dec(data, pos)`` for *cls*.

    The source is registered with :mod:`linecache` under
    ``<compact ClassName>``, so tracebacks and ``tracemalloc`` show the
    generated line.
    """
    enc = pack = dec = ""
    names = []
    for i, (attr, kind) in enumerate(fields):
        write, read = _KINDS[kind]
        enc += _indent(f"v = msg.{attr}\n{write}")
        pack += _indent(f"v = f{i}\n{write}")
        dec += _indent(read.format(v=f"f{i}"))
        names.append(f"f{i}")
    src = (
        "def _make(_cls):\n"
        "    def enc(msg, out):\n"
        f"{enc or '        pass'}\n"
        f"    def pack(out{''.join(', ' + name for name in names)}):\n"
        f"{pack or '        pass'}\n"
        "    def dec(data, pos):\n"
        "        n = len(data)\n"
        f"{dec}"
        "        if pos != n:\n"
        "            raise _trailing(n - pos, _cls)\n"
        f"        return _cls({', '.join(names)})\n"
        "    return enc, pack, dec\n"
    )
    filename = f"<compact {cls.__qualname__}>"
    linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
    namespace: dict = {}
    exec(compile(src, filename, "exec"), globals(), namespace)
    return namespace["_make"](cls)


def _trailing(count: int, cls: type) -> DecodingError:
    return DecodingError(
        f"{count} trailing bytes after compact {cls.__qualname__}"
    )


_intern = sys.intern


class _Spec:
    """A registered message: its frame headers and compiled functions."""

    __slots__ = ("cls", "plain", "correlated", "enc", "pack", "dec")

    def __init__(self, cls: type, tag: int, fields: tuple) -> None:
        self.cls = cls
        self.plain = _HEADER + bytes((tag,))
        self.correlated = _HEADER_CORR + bytes((tag,))
        self.enc, self.pack, self.dec = _compile(cls, fields)


_SPECS_BY_TYPE: dict[type, _Spec] = {}
_SPECS_BY_TAG: dict[int, _Spec] = {}


def register_compact(
    cls: type, tag: int, fields: tuple[tuple[str, str], ...]
) -> None:
    """Register a positional compact encoding for *cls* and compile it.

    Args:
        cls: a frozen dataclass; *fields* must name its init fields in
            declaration order (the decoder constructs ``cls(*values)``).
        tag: unique 1-byte message type tag.
        fields: ``(attribute_name, kind)`` pairs; kinds are the primitive
            names in the module docstring, the keys of :data:`_KINDS`.
    """
    if not 0 <= tag <= 0xFF:
        raise EncodingError(f"compact tag must fit one byte, got {tag}")
    if tag in _SPECS_BY_TAG:
        raise EncodingError(
            f"compact tag {tag} already taken by "
            f"{_SPECS_BY_TAG[tag].cls.__qualname__}"
        )
    if cls in _SPECS_BY_TYPE:
        raise EncodingError(f"{cls.__qualname__} already has a compact spec")
    spec = _Spec(cls, tag, fields)
    _SPECS_BY_TYPE[cls] = spec
    _SPECS_BY_TAG[tag] = spec


# ---------------------------------------------------------------------------
# Encode / decode
# ---------------------------------------------------------------------------


def encode_message(msg: object, corr_id: int | None = None) -> bytes:
    """Encode one control message in the compact framing.

    Args:
        msg: the message to encode; its type must have a compact spec.
        corr_id: when not None, emit a version-2 *correlated* frame
            carrying this id between the tag and the body.

    Raises:
        EncodingError: a type without a compact spec, a map value that is
            neither int nor float, or a uint field or *corr_id* outside
            ``[0, 2**64)``.
    """
    spec = _SPECS_BY_TYPE.get(type(msg))
    if spec is None:
        raise EncodingError(f"{type(msg).__qualname__} has no compact spec")
    if corr_id is None:
        out = bytearray(spec.plain)
    else:
        out = bytearray(spec.correlated)
        _w_uint(out, corr_id)
    spec.enc(msg, out)
    return bytes(out)


def encode_fields(cls: type, *values) -> bytes:
    """The plain frame :func:`encode_message` makes of ``cls(*values)``,
    written straight from the field values: a carrier a server fills
    with frames it already holds is sent without building the message
    object first.  *cls* must have a compact spec."""
    spec = _SPECS_BY_TYPE[cls]
    out = bytearray(spec.plain)
    spec.pack(out, *values)
    return bytes(out)


def encode_correlated_burst(pairs) -> list[bytes]:
    """Encode ``(message, corr_id)`` pairs into correlated frames.

    Equivalent to ``[encode_message(m, c) for m, c in pairs]`` but the
    positional body is encoded once per distinct message *object*, whose
    frames then differ only in the correlation id.  No server path uses it
    since a round's put acks leave as one ``Acks`` frame; ``bench/layers.py``
    still times it (``codec.burst_encode_us_per_frame``).
    """
    body_cache: dict[int, tuple[bytes, bytes]] = {}
    frames: list[bytes] = []
    for msg, corr_id in pairs:
        cached = body_cache.get(id(msg))
        if cached is None:
            spec = _SPECS_BY_TYPE.get(type(msg))
            if spec is None:
                raise EncodingError(
                    f"{type(msg).__qualname__} has no compact spec and "
                    f"cannot ride a correlated burst"
                )
            body = bytearray()
            spec.enc(msg, body)
            cached = body_cache[id(msg)] = (spec.correlated, bytes(body))
        head, body_bytes = cached
        frames.append(head + _uint_bytes(corr_id) + body_bytes)
    return frames


def split_correlated(data: bytes) -> tuple[int, bytes] | None:
    """Cheaply split a correlated frame into ``(corr_id, tag+body bytes)``.

    Returns None for anything that is not a well-formed version-2 compact
    frame — the caller falls back to :func:`decode_tagged`.  The second
    element is the frame with header and correlation id stripped, which
    is *identical across frames answering with the same message*: a
    receiver recognises a lone put ack by it without decoding
    (``protocol.decode_reply``).
    """
    if data[:3] != _HEADER_CORR or len(data) < 5:
        return None
    corr_id, pos = data[4], 5
    if corr_id >= 0x80:
        try:
            corr_id, pos = _uv_tail(data, 5, corr_id)
        except (IndexError, DecodingError):
            return None
    return corr_id, data[3:4] + data[pos:]


def recorrelate(data: bytes, corr_id: int) -> bytes:
    """The correlated frame *data* under *corr_id* instead of its own id;
    tag and body bytes are copied, never re-encoded."""
    pos = 5
    while data[pos - 1] >= 0x80:  # past the old id's continuation bytes
        pos += 1
    return data[:4] + _uint_bytes(corr_id) + data[pos:]


def decode_message(data: bytes | memoryview) -> object:
    """Decode one compact frame's message.

    Equivalent to ``decode_tagged(data)[0]`` — the correlation id (if the
    frame carries one) is dropped.  Kept as the plain entry point for
    callers that never pipeline (tests, recorded streams, tools).
    """
    return decode_tagged(data)[0]


def decode_tagged(data: bytes | memoryview) -> tuple[object, int | None]:
    """Decode one message plus its correlation id, if any.

    One call of the tag's compiled decoder.  It constructs each message
    through its dataclass, so its validation runs and hostile bytes
    cannot build a message an honest sender could not have built.

    Returns:
        ``(message, corr_id)``; *corr_id* is None for version-1 frames.

    Raises:
        DecodingError: a magic other than ``b"DC"`` (a TLV stream
            included), unknown tag or version, truncated or trailing
            bytes, bad UTF-8, or field values the message type rejects.
    """
    if type(data) is not bytes:
        data = bytes(data)
    if data[:2] != COMPACT_MAGIC:
        raise DecodingError(f"bad magic {data[:2]!r}: not a compact frame")
    if len(data) < 4:
        raise DecodingError("truncated compact frame: missing header")
    version = data[2]
    if version not in (COMPACT_VERSION, CORRELATED_VERSION):
        raise DecodingError(f"unsupported compact version {version}")
    spec = _SPECS_BY_TAG.get(data[3])
    if spec is None:
        raise DecodingError(f"unknown compact message tag {data[3]:#x}")
    try:
        if version == COMPACT_VERSION:
            corr_id, pos = None, 4
        else:
            corr_id, pos = data[4], 5
            if corr_id >= 0x80:
                corr_id, pos = _uv_tail(data, 5, corr_id)
        return spec.dec(data, pos), corr_id
    except IndexError:
        raise DecodingError(
            f"truncated compact {spec.cls.__qualname__} frame"
        ) from None
    except UnicodeDecodeError as exc:
        raise DecodingError("invalid UTF-8 in compact frame") from exc
    except DecodingError:
        raise
    except MemoError as exc:
        # Folder readers construct Key/Symbol/FolderName eagerly, so their
        # validation errors convert here as well as the message's own.
        raise DecodingError(
            f"compact {spec.cls.__qualname__} failed validation: {exc}"
        ) from exc
