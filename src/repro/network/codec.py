"""Compact positional codec for protocol control messages.

The transferable TLV format (:mod:`repro.transferable.wire`) is fully
self-describing: every message carries its struct name, every field its
field name, and the object graph is linearized node by node.  That is the
right trade for *user data* — arbitrary, possibly self-referential
structures crossing heterogeneous machines — but pure overhead for the ~20
fixed control messages of the server protocol, which dominate the wire.
Section 5 of the paper reasons about performance in messages and bytes per
link; this module is where the control plane wins those bytes back.

Frame layout::

    magic   2 bytes  b"DC"       (distinct from the TLV codec's b"DM")
    version 1 byte   0x01 plain | 0x02 correlated
    tag     1 byte   message type (see the registrations in protocol.py)
    corr    uvarint  correlation id (version 0x02 frames only)
    body    positional fields, no names, no graph

A version-2 ("correlated") frame is byte-identical to a version-1 frame
except for the version byte and one LEB128 correlation id between the tag
and the body.  The id names the request a reply answers, which is what
lets a connection carry many requests at once and return their replies
out of order (per-connection pipelining).  Version-1 frames and TLV
frames carry no id — old peers and recorded seed streams keep decoding,
and a receiver treats them as strict request/reply traffic.  Unsolicited
*push* frames (``MemoReady``/``WaitCancelled``, the parked-waiter
completions) are deliberately version-1: they answer no request, so they
carry no correlation id — their routing key (the waiter token) lives in
the message body, and they are only ever sent to peers that registered a
wait over a correlated session.

Body primitives::

    uvarint   LEB128 unsigned integer (lengths, counts, key indexes)
    str       uvarint byte-length + UTF-8 bytes
    name      as str on the wire; decoded through ``sys.intern``
    bytes     uvarint byte-length + raw bytes
    bool      1 byte (0 or 1)
    f64       8-byte IEEE-754 binary64, big-endian
    folder    app str, symbol str, uvarint index count, uvarint indexes
    tlv       uvarint byte-length + an embedded TLV stream (0 = empty);
              used only for open-ended fields like ``Reply.stats``

:func:`decode_message` dispatches on the leading magic, so a stream may
freely interleave compact frames with TLV frames — old peers, recorded
seed streams, and memo payloads (which stay in the transferable format)
all keep decoding.  :func:`encode_message` falls back to the TLV codec
for any type without a registered compact spec.
"""

from __future__ import annotations

import struct
import sys
import threading
from typing import Callable

from repro.core.keys import FolderName, Key, Symbol
from repro.errors import DecodingError, EncodingError, MemoError
from repro.transferable import wire as _tlv

__all__ = [
    "COMPACT_MAGIC",
    "COMPACT_VERSION",
    "CORRELATED_VERSION",
    "register_compact",
    "encode_message",
    "encode_correlated_burst",
    "decode_message",
    "decode_tagged",
    "split_correlated",
    "folder_intern_stats",
]

COMPACT_MAGIC = b"DC"
COMPACT_VERSION = 1
CORRELATED_VERSION = 2

_HEADER = COMPACT_MAGIC + bytes((COMPACT_VERSION,))
_HEADER_CORR = COMPACT_MAGIC + bytes((CORRELATED_VERSION,))
_F64 = struct.Struct(">d")


# ---------------------------------------------------------------------------
# Primitive writers
# ---------------------------------------------------------------------------


def _w_uv(out: bytearray, n: int) -> None:
    if n < 0:
        raise EncodingError(f"compact codec cannot encode negative int {n}")
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _w_str(out: bytearray, s: str) -> None:
    raw = s.encode("utf-8")
    _w_uv(out, len(raw))
    out += raw


def _w_bytes(out: bytearray, b: bytes) -> None:
    _w_uv(out, len(b))
    out += b


def _w_bool(out: bytearray, b: bool) -> None:
    out.append(1 if b else 0)


def _w_folder(out: bytearray, f: FolderName) -> None:
    _w_str(out, f.app)
    _w_str(out, f.key.symbol.name)
    _w_uv(out, len(f.key.index))
    for x in f.key.index:
        _w_uv(out, x)


def _w_opt_folder(out: bytearray, f: FolderName | None) -> None:
    if f is None:
        out.append(0)
    else:
        out.append(1)
        _w_folder(out, f)


def _w_folder_tuple(out: bytearray, folders: tuple) -> None:
    _w_uv(out, len(folders))
    for f in folders:
        _w_folder(out, f)


def _w_str_tuple(out: bytearray, items: tuple) -> None:
    _w_uv(out, len(items))
    for s in items:
        _w_str(out, s)


def _w_bytes_tuple(out: bytearray, items: tuple) -> None:
    _w_uv(out, len(items))
    for b in items:
        _w_bytes(out, b)


def _w_server_pairs(out: bytearray, pairs: tuple) -> None:
    _w_uv(out, len(pairs))
    for sid, host in pairs:
        _w_str(out, sid)
        _w_str(out, host)


def _w_float_dict(out: bytearray, d: dict) -> None:
    _w_uv(out, len(d))
    for k, v in d.items():
        _w_str(out, k)
        out += _F64.pack(v)


def _w_link_dict(out: bytearray, d: dict) -> None:
    _w_uv(out, len(d))
    for k, nbrs in d.items():
        _w_str(out, k)
        _w_float_dict(out, nbrs)


def _w_tlv(out: bytearray, value: object) -> None:
    if not value:
        _w_uv(out, 0)
        return
    blob = _tlv.encode(value)
    _w_uv(out, len(blob))
    out += blob


# ---------------------------------------------------------------------------
# Primitive readers
# ---------------------------------------------------------------------------


#: Decoded folder fields by their raw wire bytes.  An application names a
#: small fixed vocabulary of folders again and again, so each is parsed,
#: validated, hashed and canonicalised once per process rather than once
#: per hop.  Only fields that passed the validating parse are ever
#: inserted; when the cap is reached the table is cleared, not evicted.
_FOLDERS: dict[bytes, FolderName] = {}

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


def _intern_folder(raw: bytes, folder: FolderName) -> None:
    """Record a freshly validated folder field (the miss path only)."""
    global _intern_misses
    with _intern_lock:
        _intern_misses += 1
        if len(raw) > _FOLDER_INTERN_MAX_FIELD:
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


def _folder_end(data: memoryview, pos: int) -> int:
    """Offset just past the folder field at *pos*, or -1 if not delimitable.

    Follows the length prefixes only (two strings, then a counted run of
    varints) and validates nothing; -1 sends the caller to the validating
    parse, which raises the precise error.
    """
    try:
        for _ in (0, 1):  # app, symbol: uvarint byte length + bytes
            n = data[pos]
            pos += 1
            if n >= 0x80:
                n, pos = _uv_tail(data, pos, n)
            pos += n
        n = data[pos]
        pos += 1
        if n >= 0x80:
            n, pos = _uv_tail(data, pos, n)
        for _ in range(n):
            while data[pos] >= 0x80:
                pos += 1
            pos += 1
    except (IndexError, DecodingError):
        return -1
    return pos if pos <= len(data) else -1


def _uv_tail(data: memoryview, pos: int, first: int) -> tuple[int, int]:
    """Finish a multi-byte uvarint whose first byte was *first*."""
    result = first & 0x7F
    shift = 7
    while True:
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if b < 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise DecodingError("varint exceeds 64 bits")


class _Reader:
    """Bounds-checked cursor over a compact frame body."""

    __slots__ = ("data", "pos")

    def __init__(self, data: memoryview, pos: int) -> None:
        self.data = data
        self.pos = pos

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise DecodingError(
                f"truncated compact frame: wanted {n} bytes at offset "
                f"{self.pos}, have {len(self.data) - self.pos}"
            )
        view = self.data[self.pos : self.pos + n]
        self.pos += n
        return view

    def u8(self) -> int:
        if self.pos >= len(self.data):
            raise DecodingError("truncated compact frame: wanted 1 byte")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def uv(self) -> int:
        # Fast path: almost every varint on the wire (lengths, indexes,
        # correlation ids early in a connection's life) fits one byte.
        pos = self.pos
        data = self.data
        try:
            b = data[pos]
            if b < 0x80:
                self.pos = pos + 1
                return b
            result, self.pos = _uv_tail(data, pos + 1, b)
        except IndexError:
            raise DecodingError("truncated compact frame: wanted 1 byte") from None
        return result

    def r_str(self) -> str:
        n = self.uv()
        pos = self.pos
        end = pos + n
        data = self.data
        if end > len(data):
            raise DecodingError(
                f"truncated compact frame: wanted {n} bytes at offset {pos}"
            )
        self.pos = end
        try:
            return str(data[pos:end], "utf-8")
        except UnicodeDecodeError as exc:
            raise DecodingError("invalid UTF-8 in compact frame") from exc

    def r_name(self) -> str:
        """A depositor or store name: every memo from one process holds
        the same ``str``.  No table to bound — an interned string dies
        with its last reference."""
        return sys.intern(self.r_str())

    def r_bytes(self) -> bytes:
        n = self.uv()
        pos = self.pos
        end = pos + n
        data = self.data
        if end > len(data):
            raise DecodingError(
                f"truncated compact frame: wanted {n} bytes at offset {pos}"
            )
        self.pos = end
        return bytes(data[pos:end])

    def r_bool(self) -> bool:
        b = self.u8()
        if b not in (0, 1):
            raise DecodingError(f"bad bool byte {b:#x} in compact frame")
        return bool(b)

    def r_f64(self) -> float:
        return _F64.unpack(self.take(8))[0]

    def r_folder(self) -> FolderName:
        """Read a folder field, shared per distinct wire spelling.

        The field's extent is found from its length prefixes alone and
        its raw bytes looked up in :data:`_FOLDERS`.  A miss — including
        every field the skip cannot delimit — takes the validating parse
        below and is inserted only once that has succeeded, so a hit
        always returns what parsing these exact bytes returned before.
        """
        data = self.data
        start = self.pos
        end = _folder_end(data, start)
        raw = bytes(data[start:end]) if end > 0 else None  # None: never a key
        folder = _FOLDERS.get(raw)
        if folder is not None:
            self.pos = end
            return folder
        app = self.r_str()
        symbol = self.r_str()
        n = self.uv()
        if n == 0:
            index = ()
        elif n == 1:  # the overwhelmingly common key shape
            index = (self.uv(),)
        else:
            index = tuple(self.uv() for _ in range(n))
        folder = FolderName(app, Key(Symbol(symbol), index))
        if self.pos == end:  # the parse consumed exactly the bytes looked up
            _intern_folder(raw, folder)
        return folder

    def r_opt_folder(self) -> FolderName | None:
        if self.u8() == 0:
            return None
        return self.r_folder()

    def r_folder_tuple(self) -> tuple:
        return tuple(self.r_folder() for _ in range(self.uv()))

    def r_str_tuple(self) -> tuple:
        return tuple(self.r_str() for _ in range(self.uv()))

    def r_bytes_tuple(self) -> tuple:
        return tuple(self.r_bytes() for _ in range(self.uv()))

    def r_server_pairs(self) -> tuple:
        return tuple((self.r_str(), self.r_str()) for _ in range(self.uv()))

    def r_float_dict(self) -> dict:
        return {self.r_str(): self.r_f64() for _ in range(self.uv())}

    def r_link_dict(self) -> dict:
        return {self.r_str(): self.r_float_dict() for _ in range(self.uv())}

    def r_tlv(self) -> object:
        n = self.uv()
        if n == 0:
            return {}
        return _tlv.decode(self.take(n))

    def at_end(self) -> bool:
        return self.pos == len(self.data)


_WRITERS: dict[str, Callable] = {
    "str": _w_str,
    "name": _w_str,
    "bytes": _w_bytes,
    "bool": _w_bool,
    "uint": _w_uv,
    "folder": _w_folder,
    "opt_folder": _w_opt_folder,
    "folder_tuple": _w_folder_tuple,
    "str_tuple": _w_str_tuple,
    "bytes_tuple": _w_bytes_tuple,
    "server_pairs": _w_server_pairs,
    "float_dict": _w_float_dict,
    "link_dict": _w_link_dict,
    "tlv": _w_tlv,
}

_READERS: dict[str, Callable[[_Reader], object]] = {
    "str": _Reader.r_str,
    "name": _Reader.r_name,
    "bytes": _Reader.r_bytes,
    "bool": _Reader.r_bool,
    "uint": _Reader.uv,
    "folder": _Reader.r_folder,
    "opt_folder": _Reader.r_opt_folder,
    "folder_tuple": _Reader.r_folder_tuple,
    "str_tuple": _Reader.r_str_tuple,
    "bytes_tuple": _Reader.r_bytes_tuple,
    "server_pairs": _Reader.r_server_pairs,
    "float_dict": _Reader.r_float_dict,
    "link_dict": _Reader.r_link_dict,
    "tlv": _Reader.r_tlv,
}


# ---------------------------------------------------------------------------
# Spec registry
# ---------------------------------------------------------------------------


class _Spec:
    __slots__ = ("cls", "tag", "writers", "readers")

    def __init__(self, cls: type, tag: int, fields: tuple) -> None:
        self.cls = cls
        self.tag = tag
        self.writers = tuple((name, _WRITERS[kind]) for name, kind in fields)
        self.readers = tuple(_READERS[kind] for _name, kind in fields)


_SPECS_BY_TYPE: dict[type, _Spec] = {}
_SPECS_BY_TAG: dict[int, _Spec] = {}


def register_compact(
    cls: type, tag: int, fields: tuple[tuple[str, str], ...]
) -> None:
    """Register a positional compact encoding for *cls*.

    Args:
        cls: a frozen dataclass; *fields* must name its init fields in
            declaration order (the decoder constructs ``cls(*values)``).
        tag: unique 1-byte message type tag.
        fields: ``(attribute_name, kind)`` pairs; kinds are the primitive
            names in the module docstring.
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
    """Encode one control message, compactly when a spec is registered.

    Types without a compact spec fall back to the self-describing TLV
    codec, so the call accepts anything :func:`repro.transferable.wire.encode`
    accepts; :func:`decode_message` reverses either framing.

    Args:
        msg: the message to encode.
        corr_id: when not None, emit a version-2 *correlated* frame
            carrying this id between the tag and the body.  Only types
            with a compact spec can carry an id (the TLV framing has no
            slot for one — by design, so id-less streams stay id-less).
    """
    spec = _SPECS_BY_TYPE.get(type(msg))
    if spec is None:
        if corr_id is not None:
            raise EncodingError(
                f"{type(msg).__qualname__} has no compact spec and the TLV "
                f"fallback cannot carry a correlation id"
            )
        return _tlv.encode(msg)
    if corr_id is None:
        out = bytearray(_HEADER)
        out.append(spec.tag)
    else:
        if corr_id < 0:
            raise EncodingError(f"correlation id must be >= 0, got {corr_id}")
        out = bytearray(_HEADER_CORR)
        out.append(spec.tag)
        _w_uv(out, corr_id)
    for name, write in spec.writers:
        write(out, getattr(msg, name))
    return bytes(out)


def encode_correlated_burst(pairs) -> list[bytes]:
    """Encode ``(message, corr_id)`` pairs into correlated frames.

    Equivalent to ``[encode_message(m, c) for m, c in pairs]`` but the
    positional body is encoded once per distinct message *object*: a burst
    of replies completed together is dominated by identical acknowledgement
    singletons, whose bytes differ only in the correlation id.
    """
    body_cache: dict[int, tuple[int, bytes]] = {}
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
            for name, write in spec.writers:
                write(body, getattr(msg, name))
            cached = (spec.tag, bytes(body))
            body_cache[id(msg)] = cached
        tag, body_bytes = cached
        out = bytearray(_HEADER_CORR)
        out.append(tag)
        _w_uv(out, corr_id)
        out += body_bytes
        frames.append(bytes(out))
    return frames


def split_correlated(data: bytes) -> tuple[int, bytes] | None:
    """Cheaply split a correlated frame into ``(corr_id, tag+body bytes)``.

    Returns None for anything that is not a well-formed version-2 compact
    frame — the caller falls back to :func:`decode_tagged`.  The second
    element is the frame with header and correlation id stripped, which
    is *identical across frames answering with the same message*: ack
    drains use it to decode one representative of a burst and reuse the
    result for every byte-equal sibling.
    """
    if (
        len(data) < 5
        or data[0] != 0x44  # "D"
        or data[1] != 0x43  # "C"
        or data[2] != CORRELATED_VERSION
    ):
        return None
    pos = 4
    b = data[pos]
    if b < 0x80:
        corr_id = b
        pos += 1
    else:
        corr_id = 0
        shift = 0
        while True:
            if pos >= len(data):
                return None
            b = data[pos]
            pos += 1
            corr_id |= (b & 0x7F) << shift
            if not b & 0x80:
                break
            shift += 7
            if shift > 63:
                return None
    return corr_id, data[3:4] + data[pos:]


def decode_message(data: bytes | memoryview) -> object:
    """Decode one message, dispatching on the leading frame magic.

    Equivalent to ``decode_tagged(data)[0]`` — the correlation id (if the
    frame carries one) is dropped.  Kept as the plain entry point for
    callers that never pipeline (tests, recorded streams, tools).
    """
    return decode_tagged(data)[0]


def decode_tagged(data: bytes | memoryview) -> tuple[object, int | None]:
    """Decode one message plus its correlation id, if any.

    ``b"DC"`` frames take the compact path; ``b"DM"`` frames are full TLV
    streams (seed peers, memo payloads used as messages in tests).  The
    compact path re-runs each dataclass's own validation, so hostile bytes
    cannot construct a message an honest sender could not have built.

    Returns:
        ``(message, corr_id)``; *corr_id* is None for version-1 compact
        frames and for TLV frames (id-less, strict request/reply).

    Raises:
        DecodingError: unknown magic, unknown tag or version, truncated or
            trailing bytes, or field values the message type rejects.
    """
    view = memoryview(data)
    magic = bytes(view[:2])
    if magic == _tlv.MAGIC:
        return _tlv.decode(view), None
    if magic != COMPACT_MAGIC:
        raise DecodingError(
            f"bad magic {magic!r}: neither a compact nor a TLV frame"
        )
    if len(view) < 4:
        raise DecodingError("truncated compact frame: missing header")
    version = view[2]
    if version not in (COMPACT_VERSION, CORRELATED_VERSION):
        raise DecodingError(f"unsupported compact version {version}")
    spec = _SPECS_BY_TAG.get(view[3])
    if spec is None:
        raise DecodingError(f"unknown compact message tag {view[3]:#x}")
    r = _Reader(view, 4)
    try:
        # Field readers construct Key/Symbol/FolderName eagerly, so their
        # validation errors must convert here too, not only the final
        # dataclass construction's.
        corr_id = r.uv() if version == CORRELATED_VERSION else None
        values = [read(r) for read in spec.readers]
        if not r.at_end():
            raise DecodingError(
                f"{len(view) - r.pos} trailing bytes after compact "
                f"{spec.cls.__qualname__}"
            )
        return spec.cls(*values), corr_id
    except DecodingError:
        raise
    except MemoError as exc:
        raise DecodingError(
            f"compact {spec.cls.__qualname__} failed validation: {exc}"
        ) from exc
