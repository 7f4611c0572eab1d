"""The memo record: what a folder server actually stores.

A memo's *value* is always held **encoded** (transferable wire bytes), never
as a live Python object.  This is deliberate: on a heterogeneous network the
folder server that owns a folder may not even be able to represent the
value natively, and storing bytes makes ``get_copy`` semantics trivially
correct — every extraction decodes a fresh, independent copy, so no two
processes can ever alias folder-resident state.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MemoRecord"]

@dataclass(frozen=True, slots=True, eq=False)
class MemoRecord:
    """One memo as held inside a folder: four slots, no ``__dict__``.

    Records compare and hash by identity (``eq=False``): two deposits of
    one value by one process are two memos, and a folder's list must find
    the very object it is asked to remove.

    Attributes:
        payload: transferable wire bytes of the value.
        origin: name of the process that deposited the memo (diagnostics).
        src_sid: folder-server id of the store that first accepted the
            memo (stamped in :meth:`FolderServer.put`).
        src_lsn: that store's log sequence number for the accepting
            write.  ``(src_sid, src_lsn)`` names the origin write
            uniquely cluster-wide; replicas carry it unchanged, which is
            what lets anti-entropy ship only the delta past a recovered
            LSN and deduplicate re-seeds.
    """

    payload: bytes
    origin: str = ""
    src_sid: str = ""
    src_lsn: int = 0

    def size_bytes(self) -> int:
        """Encoded payload size (used by traffic metrics)."""
        return len(self.payload)
