"""WAL record vocabulary for durable folder stores.

Each mutation a :class:`~repro.servers.folder_server.FolderServer`
applies is journaled as one of these records, encoded with the same
compact ``DC`` codec the wire protocol uses (tags 21-25; the wire
messages own 1-20).  The log is structural, not semantic: replay
rebuilds folder contents without re-running triggers, waiters, or
delayed-release side effects — those already happened before the crash
and their outcomes (the resulting puts/consumes) are in the log too.

Origin coordinates ``(src_sid, src_lsn)`` name a *write*.  A consume
tombstone names its *victim* by payload digest: in memory a record is
identified by being that object, which no restart preserves, and within
its folder a replayed record has no other restart-stable identity.
Within one folder's replayed stream a consume always follows the put it
removes, so "first digest match" is exact up to same-digest payload
collisions (64-bit: length ⊕ CRC32).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.core.keys import FolderName
from repro.network.codec import register_compact

__all__ = [
    "WalPut",
    "WalConsume",
    "WalDelayed",
    "WalDelayedClear",
    "WalFolderDrop",
    "WAL_RECORD_TYPES",
    "payload_digest",
]


def payload_digest(payload: bytes) -> int:
    """Restart-stable 64-bit identity for a memo payload."""
    return (len(payload) << 32) | zlib.crc32(payload)


@dataclass(frozen=True)
class WalPut:
    """A memo appended to *folder* (origin coordinates included)."""

    folder: FolderName
    payload: bytes
    origin: str = ""
    src_sid: str = ""
    src_lsn: int = 0


@dataclass(frozen=True)
class WalConsume:
    """A memo removed from *folder* (get / async claim / extraction)."""

    folder: FolderName
    digest: int
    delayed: bool = False


@dataclass(frozen=True)
class WalDelayed:
    """A delayed deposit parked on *folder*, releasing to *release_to*."""

    folder: FolderName
    release_to: FolderName
    payload: bytes
    origin: str = ""
    src_sid: str = ""
    src_lsn: int = 0


@dataclass(frozen=True)
class WalDelayedClear:
    """All delayed deposits on *folder* released (first put arrived)."""

    folder: FolderName


@dataclass(frozen=True)
class WalFolderDrop:
    """*folder* extracted wholesale (migration / sync return)."""

    folder: FolderName


register_compact(
    WalPut,
    21,
    (
        ("folder", "folder"),
        ("payload", "bytes"),
        ("origin", "name"),
        ("src_sid", "name"),
        ("src_lsn", "uint"),
    ),
)
register_compact(
    WalConsume,
    22,
    (("folder", "folder"), ("digest", "uint"), ("delayed", "bool")),
)
register_compact(
    WalDelayed,
    23,
    (
        ("folder", "folder"),
        ("release_to", "folder"),
        ("payload", "bytes"),
        ("origin", "name"),
        ("src_sid", "name"),
        ("src_lsn", "uint"),
    ),
)
register_compact(WalDelayedClear, 24, (("folder", "folder"),))
register_compact(WalFolderDrop, 25, (("folder", "folder"),))

WAL_RECORD_TYPES = (WalPut, WalConsume, WalDelayed, WalDelayedClear, WalFolderDrop)
