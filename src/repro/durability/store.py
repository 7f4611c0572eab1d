"""One folder store's durable state: segmented WAL + compacted snapshots.

On-disk layout (one directory per folder store)::

    wal-00000000000000000001.log     append-only segments, rolled at each
    wal-00000000000000004097.log     snapshot; name is the first LSN the
    ...                              segment may contain
    snap-00000000000000004096.dc     compacted snapshots (newest 2 kept)
    *.tmp                            in-flight snapshot writes (deleted on
                                     recovery)

WAL frame::

    uvarint(len(body)) | body | crc32(body) as 4 LE bytes
    body = uvarint(lsn) | DC-encoded WAL record

Snapshot file::

    b"DSN1" | body | crc32(body) as 4 LE bytes
    body = uvarint(lsn) | uvarint(count) | count * (uvarint(len) | DC record)

Every record carries its LSN, so recovery is *idempotent over overlap*:
replay applies ``snapshot(L)`` then only WAL records with ``lsn > L``.
A crash between snapshot publication and segment retention therefore
cannot double-apply — stale segments are skipped record-by-record.  The
last segment's tail is truncated at the first bad frame (torn append);
an invalid newest snapshot (torn ``os.replace`` never publishes one,
but a corrupted file can) falls back to the previous retained snapshot.

Locking: mutating calls (``log_*``) run under the owning folder
server's lock, which serialises them; the store's own ``_io_lock``
additionally serialises buffered-file access against ``commit()`` and
snapshot rolls, which run *outside* the folder-server lock so fsync
never blocks the store.  Order is always folder-server lock →
``_io_lock``; the store never takes the folder-server lock itself
(snapshots read state via the bound server's ``snapshot_state()``,
called before ``_io_lock`` is taken).
"""

from __future__ import annotations

import os
import re
import time
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.keys import FolderName
from repro.core.memo import MemoRecord
from repro.durability.config import DurabilityConfig
from repro.durability.records import (
    WalConsume,
    WalDelayed,
    WalDelayedClear,
    WalFolderDrop,
    WalPut,
    payload_digest,
)
from repro.errors import DecodingError, MemoError
from repro.network.codec import decode_message, encode_message

__all__ = ["DurableStore", "RecoveredState"]

_SNAP_MAGIC = b"DSN1"
_SEG_RE = re.compile(r"^wal-(\d{20})\.log$")
_SNAP_RE = re.compile(r"^snap-(\d{20})\.dc$")


def _w_uv(out: bytearray, n: int) -> None:
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _r_uv(data: bytes, pos: int) -> tuple[int, int]:
    """Read a uvarint at *pos*; returns (value, next_pos) or raises IndexError."""
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


@dataclass
class RecoveredState:
    """What recovery reconstructed from snapshot + WAL tail."""

    folders: dict = field(default_factory=dict)
    lsn: int = 0
    replayed: int = 0  # records applied (snapshot loads + WAL tail)
    tail_records: int = 0  # of which came from the WAL tail
    truncated_bytes: int = 0  # torn tail discarded, if any


class DurableStore:
    """Append-only journal + snapshots for one folder store.

    The owning :class:`~repro.servers.folder_server.FolderServer` calls
    ``log_*`` under its lock (so WAL order is mutation order) and
    ``commit()`` after releasing it but before acking — durability
    before visibility.  ``recover_into()`` must run before the server
    takes traffic.
    """

    def __init__(self, path: str | os.PathLike, config: DurabilityConfig) -> None:
        self.path = Path(path)
        self.config = config
        self._io_lock = threading.Lock()
        self._server = None  # bound FolderServer (for snapshot_state)
        self._file = None
        self._seg_start = 1
        self._last_lsn = 0
        self._unsynced = 0
        self._last_fsync = time.monotonic()
        self._since_snapshot = 0
        self._snapshotting = False
        self._closed = False
        # gauges / counters
        self.snapshot_lsn = 0
        self.snapshot_time: float | None = None
        self.recovered = RecoveredState()
        self.wal_records = 0
        self.wal_bytes = 0
        self.snapshots_written = 0
        self.fsyncs = 0
        self.fsync_seconds = 0.0
        self.path.mkdir(parents=True, exist_ok=True)

    # -- recovery ----------------------------------------------------------------

    def recover_into(self, folder_server) -> RecoveredState:
        """Rebuild state from disk, install it in *folder_server*, open for append."""
        state = self._recover()
        folder_server.load_recovered(state.folders, state.lsn)
        self._server = folder_server
        self._last_lsn = state.lsn
        self.recovered = state
        return state

    def bind(self, folder_server) -> None:
        """Attach a folder server without recovery (fresh store)."""
        self._server = folder_server
        if self._file is None:
            self._open_segment(self._last_lsn + 1)

    def _recover(self) -> RecoveredState:
        state = RecoveredState()
        names = sorted(os.listdir(self.path))
        for name in names:
            if name.endswith(".tmp"):
                (self.path / name).unlink(missing_ok=True)

        snaps = sorted(
            (int(m.group(1)), n) for n in names if (m := _SNAP_RE.match(n))
        )
        snap_lsn = 0
        for lsn, name in reversed(snaps):
            frames = self._read_snapshot(self.path / name)
            if frames is None:  # partial/corrupt snapshot: fall back
                (self.path / name).unlink(missing_ok=True)
                continue
            for record in frames:
                self._apply(state.folders, record)
            state.replayed += len(frames)
            snap_lsn = lsn
            self.snapshot_lsn = lsn
            self.snapshot_time = (self.path / name).stat().st_mtime
            break

        segs = sorted((int(m.group(1)), n) for n in names if (m := _SEG_RE.match(n)))
        max_lsn = snap_lsn
        for i, (_start, name) in enumerate(segs):
            is_tail = i == len(segs) - 1
            for lsn, record in self._scan_segment(self.path / name, is_tail, state):
                if lsn > max_lsn:
                    max_lsn = lsn
                if lsn <= snap_lsn:
                    continue  # already in the snapshot (stale segment overlap)
                self._apply(state.folders, record)
                state.replayed += 1
                state.tail_records += 1

        state.folders = {
            n: pair for n, pair in state.folders.items() if pair[0] or pair[1]
        }
        state.lsn = max_lsn

        if segs:
            self._seg_start = segs[-1][0]
            self._file = open(self.path / segs[-1][1], "ab")
        else:
            self._open_segment(max_lsn + 1)
        return state

    def _scan_segment(self, path: Path, truncate_tail: bool, state: RecoveredState):
        data = path.read_bytes()
        pos = 0
        good = 0
        out = []
        total = len(data)
        while pos < total:
            try:
                body_len, body_at = _r_uv(data, pos)
            except IndexError:
                break
            end = body_at + body_len + 4
            if body_len == 0 or end > total:
                break
            body = data[body_at : body_at + body_len]
            crc = int.from_bytes(data[body_at + body_len : end], "little")
            if zlib.crc32(body) != crc:
                break
            try:
                lsn, rec_at = _r_uv(body, 0)
                record = decode_message(body[rec_at:])
            except (IndexError, DecodingError):
                break
            out.append((lsn, record))
            pos = end
            good = pos
        if good < total and truncate_tail:
            state.truncated_bytes += total - good
            with open(path, "r+b") as fh:
                fh.truncate(good)
                fh.flush()
                os.fsync(fh.fileno())
        return out

    @staticmethod
    def _apply(folders: dict, record) -> None:
        """Structurally apply one WAL record to the folders-under-reconstruction."""
        if isinstance(record, WalPut):
            memos, _delayed = folders.setdefault(record.folder, ([], []))
            memos.append(
                MemoRecord(
                    payload=record.payload,
                    origin=record.origin,
                    src_sid=record.src_sid,
                    src_lsn=record.src_lsn,
                )
            )
        elif isinstance(record, WalConsume):
            pair = folders.get(record.folder)
            if pair is None:
                return
            if record.delayed:
                for i, (rec, _to) in enumerate(pair[1]):
                    if payload_digest(rec.payload) == record.digest:
                        del pair[1][i]
                        return
            else:
                for i, rec in enumerate(pair[0]):
                    if payload_digest(rec.payload) == record.digest:
                        del pair[0][i]
                        return
        elif isinstance(record, WalDelayed):
            _memos, delayed = folders.setdefault(record.folder, ([], []))
            delayed.append(
                (
                    MemoRecord(
                        payload=record.payload,
                        origin=record.origin,
                        src_sid=record.src_sid,
                        src_lsn=record.src_lsn,
                    ),
                    record.release_to,
                )
            )
        elif isinstance(record, WalDelayedClear):
            pair = folders.get(record.folder)
            if pair is not None:
                pair[1].clear()
        elif isinstance(record, WalFolderDrop):
            folders.pop(record.folder, None)

    def _read_snapshot(self, path: Path):
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        if len(blob) < len(_SNAP_MAGIC) + 4 or not blob.startswith(_SNAP_MAGIC):
            return None
        body = blob[len(_SNAP_MAGIC) : -4]
        crc = int.from_bytes(blob[-4:], "little")
        if zlib.crc32(body) != crc:
            return None
        try:
            _lsn, pos = _r_uv(body, 0)
            count, pos = _r_uv(body, pos)
            frames = []
            for _ in range(count):
                rec_len, pos = _r_uv(body, pos)
                frames.append(decode_message(body[pos : pos + rec_len]))
                pos += rec_len
        except (IndexError, DecodingError):
            return None
        return frames

    # -- journaling (under the folder server's lock) ------------------------------

    def log_put(self, lsn: int, name: FolderName, record: MemoRecord) -> None:
        self._append(
            lsn,
            WalPut(
                folder=name,
                payload=record.payload,
                origin=record.origin,
                src_sid=record.src_sid,
                src_lsn=record.src_lsn,
            ),
        )

    def log_delayed(
        self, lsn: int, name: FolderName, release_to: FolderName, record: MemoRecord
    ) -> None:
        self._append(
            lsn,
            WalDelayed(
                folder=name,
                release_to=release_to,
                payload=record.payload,
                origin=record.origin,
                src_sid=record.src_sid,
                src_lsn=record.src_lsn,
            ),
        )

    def log_consume(
        self, lsn: int, name: FolderName, record: MemoRecord, delayed: bool = False
    ) -> None:
        self._append(
            lsn,
            WalConsume(
                folder=name, digest=payload_digest(record.payload), delayed=delayed
            ),
        )

    def log_delayed_clear(self, lsn: int, name: FolderName) -> None:
        self._append(lsn, WalDelayedClear(folder=name))

    def log_folder_drop(self, lsn: int, name: FolderName) -> None:
        self._append(lsn, WalFolderDrop(folder=name))

    def _append(self, lsn: int, record) -> None:
        body = bytearray()
        _w_uv(body, lsn)
        body += encode_message(record)
        frame = bytearray()
        _w_uv(frame, len(body))
        frame += body
        frame += zlib.crc32(body).to_bytes(4, "little")
        with self._io_lock:
            if self._closed:
                return
            if self._file is None:
                self._open_segment(lsn)
            self._file.write(frame)
            self._last_lsn = lsn
            self._unsynced += 1
            self._since_snapshot += 1
            self.wal_records += 1
            self.wal_bytes += len(frame)

    # -- commit / fsync policy (outside the folder server's lock) -----------------

    def commit(self) -> None:
        """Make journaled records durable per the fsync policy; maybe snapshot."""
        snapshot_due = False
        with self._io_lock:
            if self._closed or self._file is None:
                return
            mode = self.config.fsync
            if mode == "always":
                self._file.flush()
                self._fsync_locked()
            elif mode == "batch":
                self._file.flush()
                if self._unsynced >= self.config.batch_records or (
                    time.monotonic() - self._last_fsync >= self.config.batch_seconds
                ):
                    self._fsync_locked()
            # mode "none": buffered only; synced at snapshot/close
            if (
                self.config.snapshot_every > 0
                and self._since_snapshot >= self.config.snapshot_every
                and not self._snapshotting
                and self._server is not None
            ):
                self._snapshotting = True
                snapshot_due = True
        if snapshot_due:
            try:
                self.snapshot_now()
            finally:
                with self._io_lock:
                    self._snapshotting = False

    def _fsync_locked(self) -> None:
        start = time.monotonic()
        os.fsync(self._file.fileno())
        now = time.monotonic()
        self.fsync_seconds += now - start
        self.fsyncs += 1
        self._last_fsync = now
        self._unsynced = 0

    # -- snapshots ---------------------------------------------------------------

    def snapshot_now(self) -> int:
        """Write a compacted snapshot of the bound server's state; returns its LSN."""
        if self._server is None:
            raise MemoError("durable store has no bound folder server")
        lsn, dump = self._server.snapshot_state()
        self.write_snapshot(dump, lsn)
        return lsn

    def write_snapshot(self, dump, lsn: int) -> None:
        """Persist *dump* = [(name, memos, delayed)] as the snapshot at *lsn*.

        Tmp write + fsync + atomic ``os.replace`` + directory fsync, then
        (under the io lock) roll the live segment and retire snapshots and
        segments wholly covered by the older retained snapshot.
        """
        body = bytearray()
        _w_uv(body, lsn)
        frames = bytearray()
        count = 0
        for name, memos, delayed in dump:
            for rec in memos:
                encoded = encode_message(
                    WalPut(
                        folder=name,
                        payload=rec.payload,
                        origin=rec.origin,
                        src_sid=rec.src_sid,
                        src_lsn=rec.src_lsn,
                    )
                )
                _w_uv(frames, len(encoded))
                frames += encoded
                count += 1
            for rec, release_to in delayed:
                encoded = encode_message(
                    WalDelayed(
                        folder=name,
                        release_to=release_to,
                        payload=rec.payload,
                        origin=rec.origin,
                        src_sid=rec.src_sid,
                        src_lsn=rec.src_lsn,
                    )
                )
                _w_uv(frames, len(encoded))
                frames += encoded
                count += 1
        _w_uv(body, count)
        body += frames
        blob = _SNAP_MAGIC + bytes(body) + zlib.crc32(bytes(body)).to_bytes(4, "little")

        final = self.path / f"snap-{lsn:020d}.dc"
        tmp = self.path / f"snap-{lsn:020d}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
        self._fsync_dir()

        with self._io_lock:
            self.snapshot_lsn = lsn
            self.snapshot_time = time.time()
            self.snapshots_written += 1
            self._since_snapshot = 0
            if self._closed:
                return
            # Roll: the new segment starts past the last appended LSN, so a
            # segment's successor's start bounds everything it contains.
            if self._file is not None:
                self._file.flush()
                os.fsync(self._file.fileno())
                self._file.close()
            self._open_segment(self._last_lsn + 1)
            self._retire_locked()

    def _retire_locked(self) -> None:
        names = os.listdir(self.path)
        snaps = sorted(
            (int(m.group(1)), n) for n in names if (m := _SNAP_RE.match(n))
        )
        if len(snaps) > 2:
            for _lsn, name in snaps[:-2]:
                (self.path / name).unlink(missing_ok=True)
            snaps = snaps[-2:]
        retain_lsn = snaps[0][0] if snaps else 0
        segs = sorted((int(m.group(1)), n) for n in names if (m := _SEG_RE.match(n)))
        for (start, name), (next_start, _next_name) in zip(segs, segs[1:]):
            if start == self._seg_start:
                continue
            if next_start - 1 <= retain_lsn:
                (self.path / name).unlink(missing_ok=True)

    def _open_segment(self, start_lsn: int) -> None:
        self._seg_start = start_lsn
        self._file = open(self.path / f"wal-{start_lsn:020d}.log", "ab")

    def _fsync_dir(self) -> None:
        fd = os.open(self.path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- lifecycle / gauges --------------------------------------------------------

    def close(self) -> None:
        """Flush and fsync everything; the store takes no further appends."""
        with self._io_lock:
            if self._closed:
                return
            self._closed = True
            if self._file is not None:
                self._file.flush()
                os.fsync(self._file.fileno())
                self._file.close()
                self._file = None

    def gauges(self) -> dict:
        age = -1.0
        if self.snapshot_time is not None:
            age = max(0.0, time.time() - self.snapshot_time)
        return {
            "lsn": self._last_lsn,
            "wal_records": self.wal_records,
            "wal_bytes": self.wal_bytes,
            "wal_replayed": self.recovered.replayed,
            "snapshot_lsn": self.snapshot_lsn,
            "snapshot_age_s": age,
            "snapshots_written": self.snapshots_written,
            "fsyncs": self.fsyncs,
            "fsync_ms": self.fsync_seconds * 1000.0,
        }
