"""Self-delimiting, integrity-checked frames.

The paper notes that some platforms offer no transport layer at all (the
INMOS Transputer example) and that "a derived transport layer that supports
packet fragmentation and virtual connections would allow the communication
cost to be amortized".  This module is that derived layer for byte-stream
channels: every message becomes one frame::

    magic  2 bytes   b"MF"
    flags  1 byte    bit 0: fragmented payload
    length u32       payload byte count
    crc32  u32       CRC-32 of the payload
    payload

Fragmentation support: a payload larger than *max_fragment* is split into
continuation frames (flag bit set on all but the last); :func:`parse_frame`
reassembles transparently.  The fragmentation bench (ABL2) measures the
amortization claim.

:func:`parse_frame` is the one frame parser.  It runs over whatever bytes
a reader has buffered and says whether they hold a whole payload yet, so
a byte-stream transport reads as much as the kernel has and hands every
complete payload back without another read.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable

from repro.errors import FrameError

__all__ = [
    "MAGIC",
    "HEADER",
    "encode_frames",
    "write_frame",
    "parse_frame",
]

MAGIC = b"MF"
HEADER = struct.Struct(">2sBII")  # magic, flags, length, crc32
FLAG_MORE = 0x01

#: Default fragment size; generous for in-memory, realistic for sockets.
DEFAULT_MAX_FRAGMENT = 256 * 1024


def encode_frames(payload: bytes, max_fragment: int = DEFAULT_MAX_FRAGMENT) -> list[bytes]:
    """Split *payload* into one or more wire-ready frames."""
    if max_fragment <= 0:
        raise FrameError(f"max_fragment must be positive, got {max_fragment}")
    if len(payload) <= max_fragment:  # the common case: one frame
        return [HEADER.pack(MAGIC, 0, len(payload), zlib.crc32(payload)) + payload]
    pieces = [payload[i : i + max_fragment] for i in range(0, len(payload), max_fragment)]
    frames = []
    for i, piece in enumerate(pieces):
        flags = FLAG_MORE if i < len(pieces) - 1 else 0
        header = HEADER.pack(MAGIC, flags, len(piece), zlib.crc32(piece))
        frames.append(header + piece)
    return frames


def write_frame(
    send: Callable[[bytes], None],
    payload: bytes,
    max_fragment: int = DEFAULT_MAX_FRAGMENT,
) -> int:
    """Frame *payload* and push each fragment through *send*.

    Returns the total number of bytes written including headers.
    """
    total = 0
    for frame in encode_frames(payload, max_fragment):
        send(frame)
        total += len(frame)
    return total


def parse_frame(buf: bytes | bytearray) -> tuple[bytes, int] | None:
    """The logical payload at the start of *buf*, reassembling fragments.

    Returns:
        ``(payload, end)``, *end* being the offset just past the payload's
        last fragment, or None while *buf* does not yet hold every
        fragment.  Each header is checked as soon as it is buffered, each
        checksum once its whole payload is.

    Raises:
        FrameError: bad magic or checksum.
    """
    spans = []
    end = 0
    while True:
        if end + HEADER.size > len(buf):
            return None
        magic, flags, length, crc = HEADER.unpack_from(buf, end)
        if magic != MAGIC:
            raise FrameError(f"bad frame magic {magic!r}")
        start = end + HEADER.size
        end = start + length
        if end > len(buf):
            return None
        spans.append((start, end, crc))
        if not flags & FLAG_MORE:
            break
    pieces = []
    for start, stop, crc in spans:
        piece = bytes(buf[start:stop])
        if zlib.crc32(piece) != crc:
            raise FrameError("frame checksum mismatch")
        pieces.append(piece)
    return (pieces[0] if len(pieces) == 1 else b"".join(pieces)), end
