"""The folder server: a directory of unordered queues (paper section 4.1).

"The folder servers maintain a directory of unordered queues on selected
hosts (each queue representing a folder).  There can be 0, 1, or more folder
servers per machine, each having exclusive access to its folders."

Semantics implemented here, straight from section 6:

* ``put`` — deposit; completes waiting getters; releases any delayed memos
  parked on the folder (the ``put_delayed`` trigger).
* ``get`` — consume; blocks while empty.
* ``get_copy`` — return a copy without consuming; blocks while empty.
* ``get_skip`` — consume or return not-found immediately.
* ``get_alt_skip`` over co-located folders — first non-empty wins.
* A folder "vanishes" when it holds no memos, no delayed memos, and no
  waiters (the future-folder lifecycle of section 6.2.5).

There is one way to wait: :meth:`FolderServer.get_async` parks a callback
on the folder's waiter list when the folder is empty — one list entry, no
thread — and the put path completes waiters directly: copies first
(non-consuming, all of them), then consumers while memos remain, in
registration order.  The blocking ``get``/``get_copy`` are that same
primitive plus a one-shot signal the calling thread sleeps on, so a
blocked thread and a parked callback queue in the same list and are
served in arrival order.  Waiters are first-class folder state: they keep
the folder alive, are interrupted by migration and shutdown (a blocked
caller sees the reason as :class:`FolderMigratedError` /
:class:`ShutdownError`), and can be withdrawn with
:meth:`FolderServer.cancel_waiter`, which is how a ``timeout`` ends a
blocked call.  Callbacks always run *outside* the server lock (they
typically push a frame down a connection).  ``stats["blocked_waits"]``
counts every wait that found its folder empty and ``stats["async_parked"]``
every waiter-list entry — blocked and parked callers alike, so the two
move together.

*Unordered* queue: extraction order is deliberately not FIFO — a seeded RNG
picks a victim index, so applications cannot accidentally depend on an
ordering the paper does not promise.  The RNG is owned by the server and
seeded per-folder-name for reproducible tests.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.core.keys import FolderName
from repro.core.memo import MemoRecord
from repro.errors import FolderMigratedError, FolderServerError, ShutdownError
from repro.telemetry import Counters

__all__ = ["AsyncWaiter", "Folder", "FolderServer"]

#: ``FolderServer.stats``, counted under the store lock and reported as
#: ``folder.<sid>.<name>``.  ``puts`` feeds ``ClusterMetrics.server_puts``,
#: which ``examples/matrix_invert.py`` and ``heterogeneous_jobjar.py`` print.
FOLDER_COUNTERS = (
    "puts", "gets", "copies", "skips", "skip_misses", "blocked_waits",
    "async_parked", "async_cancelled", "delayed_parked", "delayed_released",
    "folders_created", "folders_vanished",
)


class AsyncWaiter:
    """One parked register-waiter wait: a mode plus its completion callback.

    The callback signature is ``callback(record, error)``: exactly one of
    the two is non-None.  ``record`` delivers the memo (a copy for mode
    ``"copy"``, the consumed record for mode ``"get"``); ``error`` is a
    protocol-convention reason string (``FolderMigratedError: ...`` /
    ``shutdown: ...``) when the wait ends without a memo.  Callbacks are
    invoked outside the folder-server lock, exactly once — a waiter that
    was :meth:`FolderServer.cancel_waiter`-ed is never called at all.
    """

    __slots__ = ("mode", "callback")

    def __init__(self, mode: str, callback: Callable[[MemoRecord | None, str | None], None]) -> None:
        self.mode = mode
        self.callback = callback


@dataclass(slots=True, eq=False)
class Folder:
    """One unordered queue plus its delayed-memo parking lot."""

    name: FolderName
    memos: list[MemoRecord] = field(default_factory=list)
    #: Parked ``put_delayed`` memos: (record, release-to folder).
    delayed: list[tuple[MemoRecord, FolderName]] = field(default_factory=list)
    #: Waiting getters — blocked threads and parked callbacks alike — in
    #: registration order.
    async_waiters: list[AsyncWaiter] = field(default_factory=list)

    def is_vanished(self) -> bool:
        """True when nothing keeps this folder alive."""
        return not self.memos and not self.delayed and not self.async_waiters


class FolderServer:
    """Exclusive owner of a set of folders.

    Args:
        server_id: the numeric-name id from the ADF FOLDERS section.
        host: host this server runs on (diagnostics/metrics).
        emit_put: callback used when a delayed memo must be released into a
            folder this server does *not* own; the hosting memo server
            routes it as an ordinary put.  Wiring it as a callback keeps the
            folder server free of any routing knowledge.
        seed: RNG seed for the unordered-extraction order.
        journal: optional :class:`~repro.durability.store.DurableStore`;
            when present every mutation is appended under the server lock
            (WAL order == mutation order) and made durable by a
            ``commit()`` after the lock is released but *before* the
            operation returns or completion callbacks run — durability
            before visibility, i.e. log-before-ack.
    """

    def __init__(
        self,
        server_id: str,
        host: str = "localhost",
        emit_put: Callable[[FolderName, MemoRecord], None] | None = None,
        seed: int = 0x94,
        journal=None,
        track_origins: bool = True,
    ) -> None:
        self.server_id = server_id
        self.host = host
        self.emit_put = emit_put
        self.journal = journal
        #: Stamp first-accepted records with (server_id, lsn) origin
        #: coordinates and maintain per-origin high-water marks.  Needed
        #: by journaling and by replication/anti-entropy dedup; an
        #: unreplicated in-memory store turns it off to keep the put hot
        #: path at its pre-durability cost.  Flipped on (never off) when a
        #: replicated application later registers over a shared store.
        self.track_origins = track_origins or journal is not None
        self._folders: dict[FolderName, Folder] = {}
        self._lock = threading.Lock()
        self.stats = Counters(FOLDER_COUNTERS, lock=self._lock)
        self._rng = random.Random(seed)
        self._shutdown = False
        #: Log sequence number: advanced for every journaled mutation and
        #: for every first-accepted put (whose (server_id, lsn) becomes the
        #: record's cluster-wide origin coordinates — see MemoRecord).
        self._lsn = 0
        #: Monotonic per-origin-store high-water marks over every record
        #: ever accepted (consumption does not lower them — a consumed
        #: write must not be re-seeded by anti-entropy).  Doubles as the
        #: O(1) fast path for :meth:`contains_src`.
        self._src_marks: dict[str, int] = {}
        #: LSNs at or below this mark belong to a previous incarnation of
        #: this store whose records were NOT locally recovered (a cold,
        #: log-less restart).  Advertised in delta anti-entropy so peers
        #: keep returning that range instead of trusting the regrown
        #: clock; zero for stores with continuous or replayed history.
        self._resync_floor = 0

    # -- folder bookkeeping (all under self._lock) ---------------------------

    def _folder(self, name: FolderName) -> Folder:
        folder = self._folders.get(name)
        if folder is None:
            folder = Folder(name)
            self._folders[name] = folder
            self.stats["folders_created"] += 1
        return folder

    def _maybe_vanish(self, folder: Folder) -> None:
        if folder.is_vanished():
            del self._folders[folder.name]
            self.stats["folders_vanished"] += 1

    def _consume(self, folder: Folder) -> MemoRecord:
        """Remove, journal and return one memo, unordered."""
        idx = self._rng.randrange(len(folder.memos)) if len(folder.memos) > 1 else 0
        record = folder.memos.pop(idx)
        if self.journal is not None:
            self._lsn += 1
            self.journal.log_consume(self._lsn, folder.name, record)
        return record

    def _peek(self, folder: Folder) -> MemoRecord:
        idx = self._rng.randrange(len(folder.memos)) if len(folder.memos) > 1 else 0
        return folder.memos[idx]

    def _stamp(self, record: MemoRecord) -> None:
        """Advance the clock for an arriving *record* and settle its origin.

        A record arriving without origin coordinates (``src_lsn == 0``) is
        being *first accepted* here and is stamped with this store's id
        and next LSN; replica copies and recovered records keep the stamp
        they arrived with.
        """
        self._lsn += 1
        if record.src_lsn == 0:
            # In-place stamp: the record is freshly constructed and
            # single-owner at this point (frozen guards aliasing after
            # it is stored, not construction-time initialisation).
            object.__setattr__(record, "src_sid", self.server_id)
            object.__setattr__(record, "src_lsn", self._lsn)
        elif record.src_sid == self.server_id and record.src_lsn > self._lsn:
            # A stamp from a previous incarnation of this store
            # (anti-entropy returning a pre-crash write): jump the
            # clock past it so fresh stamps never reuse old-world
            # coordinates, and mark the range as unrecovered.
            self._lsn = record.src_lsn
            if record.src_lsn > self._resync_floor:
                self._resync_floor = record.src_lsn
        if record.src_lsn > self._src_marks.get(record.src_sid, 0):
            self._src_marks[record.src_sid] = record.src_lsn

    # -- operations -----------------------------------------------------------

    def put(
        self, name: FolderName, record: MemoRecord, *, trigger_release: bool = True
    ) -> MemoRecord:
        """Deposit *record* into folder *name*; never blocks.

        Arrival also triggers release of every delayed memo parked on the
        folder (section 6.1.2: "It will remain in the folder key1 until
        another memo arrives into that folder").  Replica stores apply
        copies with ``trigger_release=False``: the authoritative server
        already ran the trigger, and re-running it per copy would release
        each delayed memo once per replica.

        Returns the stored record, stamped with its origin coordinates
        (see :meth:`_stamp`), so the caller can propagate them to backups.
        """
        to_release: list[tuple[MemoRecord, FolderName]] = []
        completions: list[tuple[AsyncWaiter, MemoRecord]] = []
        journal = self.journal
        with self._lock:
            self._ensure_up()
            folder = self._folder(name)
            if self.track_origins:
                self._stamp(record)
                if journal is not None:
                    journal.log_put(self._lsn, name, record)
            folder.memos.append(record)
            self.stats["puts"] += 1
            if folder.delayed and trigger_release:
                to_release = folder.delayed
                folder.delayed = []
                if journal is not None:
                    self._lsn += 1
                    journal.log_delayed_clear(self._lsn, name)
            if folder.async_waiters:
                completions = self._claim_async_locked(folder)
                self._maybe_vanish(folder)
        if journal is not None:
            journal.commit()
        # Release outside the lock: the target may be a local folder (plain
        # recursive put) or remote (emit_put -> memo server routing).
        for rec, target in to_release:
            self.stats.bump("delayed_released")
            self._release(target, rec)
        # Complete waiters outside the lock too: each callback typically
        # pushes a frame down a connection or wakes a blocked caller.
        for waiter, rec in completions:
            waiter.callback(rec, None)
        return record

    def _claim_async_locked(
        self, folder: Folder
    ) -> list[tuple[AsyncWaiter, MemoRecord]]:
        """Match the folder's memos against its waiters (FIFO).

        Copy waiters never consume, so any arrival completes all of them;
        get waiters consume one memo each while memos remain.  A get
        waiter that exhausts the folder leaves later waiters parked.
        """
        done: list[tuple[AsyncWaiter, MemoRecord]] = []
        keep: list[AsyncWaiter] = []
        # Copies first, regardless of registration interleaving: they are
        # non-consuming, so one arrival satisfies every parked examiner —
        # a stream of consumers can never starve a get_copy waiter.
        for waiter in folder.async_waiters:
            if waiter.mode == "copy":
                self.stats["copies"] += 1
                done.append((waiter, self._peek(folder)))
        for waiter in folder.async_waiters:
            if waiter.mode == "copy":
                continue
            if folder.memos:
                self.stats["gets"] += 1
                done.append((waiter, self._consume(folder)))
            else:
                keep.append(waiter)
        folder.async_waiters = keep
        return done

    def _release(self, target: FolderName, record: MemoRecord) -> None:
        if self.emit_put is not None:
            self.emit_put(target, record)
        else:
            self.put(target, record)

    def put_delayed(
        self, name: FolderName, release_to: FolderName, record: MemoRecord
    ) -> MemoRecord:
        """Park *record* on *name*; it moves to *release_to* on next arrival."""
        journal = self.journal
        with self._lock:
            self._ensure_up()
            folder = self._folder(name)
            if self.track_origins:
                self._stamp(record)
                if journal is not None:
                    journal.log_delayed(self._lsn, name, release_to, record)
            folder.delayed.append((record, release_to))
            self.stats["delayed_parked"] += 1
        if journal is not None:
            journal.commit()
        return record

    def get(self, name: FolderName, timeout: float | None = None) -> MemoRecord:
        """Consume a memo; blocks while the folder is empty."""
        return self._get_blocking(name, "get", timeout)

    def get_copy(self, name: FolderName, timeout: float | None = None) -> MemoRecord:
        """Return a memo without consuming it; blocks while empty."""
        return self._get_blocking(name, "copy", timeout)

    def _get_blocking(
        self, name: FolderName, mode: str, timeout: float | None
    ) -> MemoRecord:
        """:meth:`get_async` plus a one-shot signal the caller sleeps on.

        The signal is a bare lock, acquired here and released by the
        completion callback — the wake is one C-level hand-off.  On
        timeout the waiter is withdrawn; a cancel that lost the race to a
        completion waits for it and returns its record, so a consumed
        memo is never dropped.
        """
        done = threading.Lock()
        done.acquire()
        outcome: list = []

        def wake(record: MemoRecord | None, error: str | None) -> None:
            outcome.append((record, error))
            done.release()

        record, waiter = self.get_async(name, mode, wake)
        if waiter is None:
            return record
        if not done.acquire(timeout=-1 if timeout is None else timeout):
            if self.cancel_waiter(name, waiter):
                op = "get" if mode == "get" else "get_copy"
                raise TimeoutError(f"{op}({name}) timed out")
            done.acquire()
        record, error = outcome[0]
        if record is not None:
            return record
        kind, _, detail = error.partition(": ")
        if kind == "FolderMigratedError":
            raise FolderMigratedError(detail)
        raise ShutdownError(detail)

    def get_async(
        self,
        name: FolderName,
        mode: str,
        callback: Callable[[MemoRecord | None, str | None], None],
    ) -> tuple[MemoRecord | None, AsyncWaiter | None]:
        """Consume/copy immediately, or park *callback* — never blocks.

        Returns exactly one of ``(record, None)`` — the folder had a memo
        and the wait completed inline (the callback will never fire) — or
        ``(None, waiter)`` — the wait is parked; the put path (or
        migration/shutdown) will run the callback later, unless the
        returned handle is withdrawn first with :meth:`cancel_waiter`.

        This is the O(table-entry) waiting primitive behind the wire
        protocol's ``GetWaitRequest``: a thousand parked waits cost a
        thousand list entries, not a thousand blocked threads.
        """
        if mode not in ("get", "copy"):
            raise FolderServerError(f"invalid async get mode {mode!r}")
        with self._lock:
            self._ensure_up()
            folder = self._folder(name)
            if folder.memos:
                if mode == "copy":
                    self.stats["copies"] += 1
                    record = self._peek(folder)
                else:
                    self.stats["gets"] += 1
                    record = self._consume(folder)
                self._maybe_vanish(folder)
            else:
                self.stats["blocked_waits"] += 1
                self.stats["async_parked"] += 1
                waiter = AsyncWaiter(mode, callback)
                folder.async_waiters.append(waiter)
                return None, waiter
        if mode == "get" and self.journal is not None:
            self.journal.commit()
        return record, None

    def cancel_waiter(self, name: FolderName, waiter: AsyncWaiter) -> bool:
        """Withdraw a parked waiter; True if removed before it completed.

        False means the waiter already left the table — completed by a
        put, or interrupted by migration/shutdown — and its callback has
        run (or is about to).  Deliberately callable on a shut-down
        server: session teardown races ``shutdown()`` and must not trip
        over the liveness check while detaching its waiters.
        """
        with self._lock:
            folder = self._folders.get(name)
            if folder is None:
                return False
            try:
                folder.async_waiters.remove(waiter)
            except ValueError:
                return False
            self.stats["async_cancelled"] += 1
            self._maybe_vanish(folder)
            return True

    def get_skip(self, name: FolderName) -> MemoRecord | None:
        """Consume a memo when available; None immediately otherwise."""
        with self._lock:
            self._ensure_up()
            folder = self._folders.get(name)
            if folder is None or not folder.memos:
                self.stats["skip_misses"] += 1
                if folder is not None:
                    self._maybe_vanish(folder)
                return None
            record = self._consume(folder)
            self.stats["skips"] += 1
            self._maybe_vanish(folder)
        if self.journal is not None:
            self.journal.commit()
        return record

    def get_alt_skip(
        self, names: tuple[FolderName, ...]
    ) -> tuple[FolderName, MemoRecord] | None:
        """One non-blocking round over several co-owned folders.

        Checks the folders in the caller-provided order (the client
        randomizes it, giving the nondeterministic choice the paper
        specifies for ``get_alt``) and consumes from the first non-empty.
        """
        hit = None
        with self._lock:
            self._ensure_up()
            for name in names:
                folder = self._folders.get(name)
                if folder is not None and folder.memos:
                    hit = (name, self._consume(folder))
                    self.stats["skips"] += 1
                    self._maybe_vanish(folder)
                    break
            else:
                self.stats["skip_misses"] += 1
        if hit is not None and self.journal is not None:
            self.journal.commit()
        return hit

    # -- migration (dynamic data migration, paper section 1 / abstract) --------

    def extract_folders(
        self,
        should_move: Callable[[FolderName], bool],
    ) -> list[tuple[FolderName, list[MemoRecord], list[tuple[MemoRecord, FolderName]]]]:
        """Atomically remove and return every folder *should_move* selects.

        Used by ownership rebalancing: when an application re-registers
        with new host costs, folders whose new owner is elsewhere are
        extracted here and re-deposited through normal routing.  Waiters
        are *interrupted* rather than skipped: new puts route to the
        folder's new owner, so a waiter left on this list would strand
        forever.  Their callbacks fire with a ``FolderMigratedError``
        reason (outside the lock): a blocked ``get`` raises it and the
        memo server re-blocks the get at the new home; a session's parked
        wait pushes a ``WaitCancelled`` so the client re-subscribes there.
        """
        moved = []
        interrupted: list[tuple[AsyncWaiter, FolderName]] = []
        with self._lock:
            self._ensure_up()
            for name in list(self._folders):
                if not should_move(name):
                    continue
                folder = self._folders.pop(name)
                self.stats["folders_vanished"] += 1
                interrupted.extend((w, name) for w in folder.async_waiters)
                if self.journal is not None:
                    self._lsn += 1
                    self.journal.log_folder_drop(self._lsn, name)
                moved.append((name, folder.memos, folder.delayed))
        if moved and self.journal is not None:
            self.journal.commit()
        for waiter, name in interrupted:
            waiter.callback(None, f"FolderMigratedError: folder {name} migrated away")
        return moved

    def extract_records(
        self,
        should_move: Callable[[FolderName, MemoRecord], bool],
    ) -> list[tuple[FolderName, list[MemoRecord], list[tuple[MemoRecord, FolderName]]]]:
        """Atomically remove and return the individual records selected.

        Record-granular sibling of :meth:`extract_folders`, used by delta
        anti-entropy: only the records a rejoining primary is *missing*
        leave the replica store; folders keep their other contents and
        their waiters (the data is going back to its primary, not being
        re-homed, so nothing needs interrupting).
        """
        moved = []
        with self._lock:
            self._ensure_up()
            for name in list(self._folders):
                folder = self._folders[name]
                take_memos = [r for r in folder.memos if should_move(name, r)]
                take_delayed = [
                    (r, to) for r, to in folder.delayed if should_move(name, r)
                ]
                if not take_memos and not take_delayed:
                    continue
                if take_memos:
                    folder.memos = [
                        r for r in folder.memos if not should_move(name, r)
                    ]
                if take_delayed:
                    folder.delayed = [
                        (r, to) for r, to in folder.delayed if not should_move(name, r)
                    ]
                if self.journal is not None:
                    for rec in take_memos:
                        self._lsn += 1
                        self.journal.log_consume(self._lsn, name, rec)
                    for rec, _to in take_delayed:
                        self._lsn += 1
                        self.journal.log_consume(self._lsn, name, rec, delayed=True)
                moved.append((name, take_memos, take_delayed))
                self._maybe_vanish(folder)
        if moved and self.journal is not None:
            self.journal.commit()
        return moved

    def snapshot_folders(
        self,
        predicate: Callable[[FolderName], bool],
    ) -> list[tuple[FolderName, list[MemoRecord], list[tuple[MemoRecord, FolderName]]]]:
        """Copies of every folder *predicate* selects, without removal.

        Anti-entropy re-seeding reads through this: unlike
        :meth:`extract_folders` the folders stay in place (the data is
        being *copied* to a backup, not re-homed), so blocked waiters are
        irrelevant and included.
        """
        out = []
        with self._lock:
            self._ensure_up()
            for name, folder in self._folders.items():
                if predicate(name):
                    out.append((name, list(folder.memos), list(folder.delayed)))
        return out

    # -- durability hooks --------------------------------------------------------

    def load_recovered(self, folders: dict, lsn: int) -> None:
        """Install recovered state (recovery manager only, before traffic).

        *folders* maps name → ``(memos, delayed)`` as rebuilt from
        snapshot + WAL tail.  Purely structural: no triggers fire, no
        waiters exist yet.  The LSN counter resumes past the recovered
        high-water mark so new stamps never collide with logged ones.
        """
        with self._lock:
            for name, (memos, delayed) in folders.items():
                folder = self._folder(name)
                folder.memos.extend(memos)
                folder.delayed.extend(delayed)
                for rec in memos:
                    if rec.src_lsn > self._src_marks.get(rec.src_sid, 0):
                        self._src_marks[rec.src_sid] = rec.src_lsn
                for rec, _to in delayed:
                    if rec.src_lsn > self._src_marks.get(rec.src_sid, 0):
                        self._src_marks[rec.src_sid] = rec.src_lsn
            if lsn > self._lsn:
                self._lsn = lsn

    def snapshot_state(
        self,
    ) -> tuple[int, list[tuple[FolderName, list[MemoRecord], list[tuple[MemoRecord, FolderName]]]]]:
        """Consistent (lsn, full folder dump) pair for snapshot writing.

        Taken under the lock, so the dump reflects exactly the mutations
        journaled at LSNs ≤ the returned value — the invariant snapshot
        + ``lsn > snapshot_lsn`` WAL replay depends on.
        """
        with self._lock:
            dump = [
                (name, list(folder.memos), list(folder.delayed))
                for name, folder in self._folders.items()
            ]
            return self._lsn, dump

    def current_lsn(self) -> int:
        """This store's log sequence high-water mark."""
        with self._lock:
            return self._lsn

    def resync_floor(self) -> int:
        """Highest LSN possibly stamped by an unrecovered prior incarnation.

        Everything at or below the floor may exist only on peers (the
        crash destroyed the local copies and there was no log to replay),
        so delta anti-entropy must keep returning that range no matter
        how far the live clock has regrown.  Zero when history is
        continuous or was replayed from a journal.
        """
        with self._lock:
            return self._resync_floor

    def rebase_lsn(self, lsn: int) -> None:
        """Resume stamping past a dead incarnation's clock.

        Called on a cold (log-less) restart with the best known
        high-water mark of the previous incarnation: fresh stamps start
        above it (origin coordinates stay cluster-unique) and the whole
        range below it becomes the :meth:`resync_floor` — "I recovered
        nothing of this; peers, send it all back."
        """
        with self._lock:
            if lsn > self._lsn:
                self._lsn = lsn
            if lsn > self._resync_floor:
                self._resync_floor = lsn

    def contains_src(
        self, name: FolderName, src_sid: str, src_lsn: int, delayed: bool = False
    ) -> bool:
        """True when the store already holds the write named by the origin
        coordinates — the dedup test that makes anti-entropy re-seeding
        idempotent.  O(1) for never-seen writes (the common fan-out case,
        guarded by the monotonic marks); scans the one folder otherwise.

        Refuses to answer once shut down: a zombie incarnation still
        draining one last pooled request would otherwise "dedup" a
        re-seed against its doomed store and ack it, silently keeping the
        write from the live incarnation (the sender's stale-connection
        retry only triggers on a shutdown error)."""
        with self._lock:
            self._ensure_up()
            if src_lsn > self._src_marks.get(src_sid, 0):
                return False
            folder = self._folders.get(name)
            if folder is None:
                return False
            if delayed:
                return any(
                    r.src_sid == src_sid and r.src_lsn == src_lsn
                    for r, _to in folder.delayed
                )
            return any(
                r.src_sid == src_sid and r.src_lsn == src_lsn for r in folder.memos
            )

    def src_high_water(self) -> dict[str, int]:
        """Monotonic max origin LSN accepted per origin store.

        A rejoining host sends these marks with its delta-sync pull;
        peers re-seed only writes past them.  Deliberately *not* lowered
        by consumption: a consumed write is gone cluster-wide and must
        not come back through a re-seed.  After recovery the marks are
        rebuilt from surviving records only, so writes consumed just
        before a crash may be re-seeded once — the documented
        at-least-once window.
        """
        with self._lock:
            return dict(self._src_marks)

    # -- introspection ----------------------------------------------------------

    def folder_count(self) -> int:
        """Number of live folders (benches use this for distribution)."""
        with self._lock:
            return len(self._folders)

    def memo_count(self) -> int:
        """Total memos currently stored across folders."""
        with self._lock:
            return sum(len(f.memos) for f in self._folders.values())

    def folder_names(self) -> tuple[FolderName, ...]:
        """Snapshot of live folder names."""
        with self._lock:
            return tuple(self._folders)

    # -- lifecycle ----------------------------------------------------------------

    def _ensure_up(self) -> None:
        if self._shutdown:
            raise ShutdownError(f"folder server {self.server_id} is shut down")

    def shutdown(self) -> None:
        """End every wait with a ``shutdown:`` reason, outside the lock.

        A blocked getter raises it as :class:`ShutdownError`; a session
        forwards it as a ``WaitCancelled`` push, which the client treats
        as an invitation to re-subscribe after fail-over.
        """
        cancelled: list[AsyncWaiter] = []
        with self._lock:
            self._shutdown = True
            for folder in self._folders.values():
                cancelled.extend(folder.async_waiters)
                folder.async_waiters = []
        reason = f"shutdown: folder server {self.server_id} is shut down"
        for waiter in cancelled:
            waiter.callback(None, reason)

    def __repr__(self) -> str:
        return (
            f"<FolderServer {self.server_id} on {self.host}: "
            f"{len(self._folders)} folders>"
        )
