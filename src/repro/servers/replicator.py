"""The replicator: this host's folder stores, and the copies that keep a
folder's replica chain in step.

Whatever the router decides is served *here* ends up in this module:
:meth:`Replicator.put` / ``put_delayed`` / ``get`` apply a request to the
local store that serves the folder's chain — the ordinary folder server
when this host is the primary, its *replica* store when it is acting for a
dead primary — and whichever member accepts a write fans
:class:`~repro.network.protocol.ReplicatePut` copies out to the other live
members before acknowledging, so an acknowledged put survives the loss of
any single chain member.  Copies travel one way, in
:class:`~repro.network.protocol.Envelope` runs to each member
(:meth:`Replicator._copy_to`): a lone write's copy alone, a put-lane round
of more than one request its held copies
(:meth:`Replicator.collect_copies`) as one run per member
(:meth:`Replicator.send_copies`) before the round's acks leave.  Backup
copies live in per-server replica stores, kept apart from primary data so
ownership, migration, and stats stay exact.  With the default factor of 1
every one of these paths collapses to the paper's single-owner behaviour.

The same module moves stored records when placement or liveness changes:
"dynamic data migration" at re-registration and the anti-entropy pull a
rejoining host sends (:class:`~repro.network.protocol.DeltaSyncPull`) are
both "take the records out of a store and put them again" — no special
transfer channel.  Migration sends each through ordinary routing
(:meth:`Replicator.redeposit`); a pull's returns all belong to the
requester, so they and its re-seeds travel to it in bursts, one exchange
per burst of up to 512 records, and only what a burst leaves unsettled
goes record by record.

A host that restarts runs one anti-entropy round
(:meth:`Replicator.handle_resync_request`): a pull to every peer, which
returns the writes it accepted as the rejoined host's backup and re-seeds
its replica store.  Every copy, burst and pull travels on the router's
one link per peer (:mod:`repro.servers.link`).

Everything without an underscore is for the other server modules.  What
this one calls on them — the router's ``registration``, ``chained_here``,
``route``, ``send_one``, ``forward_burst``, ``suspect``, ``call`` and
``address_book``.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.core.keys import FolderName
from repro.core.memo import MemoRecord
from repro.durability.manager import DurabilityManager
from repro.errors import CommunicationError, ReplicationError, ServerError
from repro.network.protocol import (
    PUT_ACK,
    DeltaSyncPull,
    GetAltSkipRequest,
    GetRequest,
    MigrateRequest,
    PutDelayedRequest,
    PutRequest,
    ReplicatePut,
    Reply,
    ResyncRequest,
)
from repro.replication.failure import FailureDetector
from repro.servers.folder_server import FolderServer
from repro.servers.hashing import PlacementCache
from repro.servers.threadcache import ThreadCache, attempt, later, scatter, wait_for
from repro.telemetry import Counters, Registry

if TYPE_CHECKING:
    from repro.servers.router import Router

__all__ = ["Replicator"]

#: Most frames one :class:`~repro.network.protocol.Envelope` carries to a
#: peer: an anti-entropy round's returns and re-seeds, or a lane
#: round's replica copies, in as many bursts as this bound asks.
_BURST_MAX = 512


class Replicator:
    """One server's folder stores and everything that copies between them.

    Constructed with what it reads — the server's failure detector,
    placement cache, thread cache, counters and durability manager — the
    registry each store it makes is reported in, and the router it sends
    through.
    """

    def __init__(
        self,
        host: str,
        placement_cache: PlacementCache,
        failure: FailureDetector,
        cache: ThreadCache,
        stats: Counters,
        telemetry: Registry,
        durability: DurabilityManager | None,
        router: "Router",
    ) -> None:
        self.host = host
        self.durability = durability
        #: An LSN no store of a dead prior incarnation reached, set by
        #: the backend on a respawn.  Log-less stores (no WAL to replay)
        #: resume their clocks past it when they materialize at
        #: registration.
        self.lsn_rebase = 0
        #: Primary stores, keyed by folder-server id (shared across
        #: applications: identity is the server id, data is disjoint
        #: because folder names are app-qualified).
        self.folder_servers: dict[str, FolderServer] = {}
        #: Backup copies, keyed by the *local* folder-server id named in a
        #: folder's replica chain.  Kept apart from the primary stores so
        #: ownership checks, migration, and live-memo counts stay exact.
        self.replica_servers: dict[str, FolderServer] = {}
        #: Whether any application replicates (only ever flips on).
        self._replicated = False
        self._placement_cache = placement_cache
        self._failure = failure
        self._cache = cache
        self._stats = stats
        self._telemetry = telemetry
        self._router = router
        self._lock = threading.Lock()
        #: Per thread: the replica copies a lane round holds for its
        #: bursts (``copies``), None outside a round.
        self._round = threading.local()

    # -- the stores -------------------------------------------------------------------

    def materialize(self, folder_servers: tuple, replicated: bool) -> None:
        """Create the stores a registration places on this host."""
        with self._lock:
            self._replicated = self._replicated or replicated
            for sid, host in folder_servers:
                if host == self.host and sid not in self.folder_servers:
                    self.folder_servers[sid] = self._make_store(sid)
            if replicated:
                # Stores are shared across applications: one materialized
                # earlier for an unreplicated app must start stamping
                # origin coordinates now that replicated data can land in
                # it (the flag only ever flips on).
                for fs in self.folder_servers.values():
                    fs.track_origins = True
        if self.durability is not None:
            # Replica stores with on-disk state are materialized eagerly so
            # a cold-started backup can serve fail-overs (and answer
            # delta-sync pulls) from its recovered copies at once.
            for sid in self.durability.on_disk_replica_sids():
                self.replica_server(sid)

    def replica_server(self, sid: str) -> FolderServer:
        """The backup store for chain entries naming local server *sid*."""
        with self._lock:
            fs = self.replica_servers.get(sid)
            if fs is None:
                fs = self.replica_servers[sid] = self._make_store(sid, replica=True)
        return fs

    def _make_store(self, sid: str, replica: bool = False) -> FolderServer:
        """Construct a folder store, recovering it from disk when durable,
        and report it: ``folder.<sid>.*`` (its counters and sizes) for a
        primary, ``replica.<sid>.*`` (sizes only) for a backup."""
        store_id = f"replica:{sid}" if replica else sid
        journal = None
        if self.durability is not None:
            journal = self.durability.store_for(store_id)
        # Origin coordinates only matter once records can exist in more
        # than one place (replication/anti-entropy) or on disk (journal);
        # an unreplicated in-memory store skips the stamping work.
        track = replica or self._replicated
        fs = FolderServer(
            store_id,
            host=self.host,
            emit_put=self._emit_put,
            journal=journal,
            track_origins=track,
        )
        if journal is not None:
            journal.recover_into(fs)
        elif self.lsn_rebase:
            # A log-less respawn: nothing local to replay, but a bound on
            # the dead incarnation's clock is known — resume past it so
            # stamps stay unique and anti-entropy returns the lost range.
            fs.rebase_lsn(self.lsn_rebase)
        prefix = f"replica.{sid}" if replica else f"folder.{sid}"
        if not replica:
            self._telemetry.add(prefix, fs.stats)
        self._telemetry.add(f"{prefix}.live_folders", fs.folder_count)
        self._telemetry.add(f"{prefix}.live_memos", fs.memo_count)
        return fs

    def local_folder_servers(self) -> dict[str, FolderServer]:
        with self._lock:
            return dict(self.folder_servers)

    def local_replica_servers(self) -> dict[str, FolderServer]:
        with self._lock:
            return dict(self.replica_servers)

    def shutdown(self) -> None:
        """Wake every blocked getter and parked wait; flush the journals."""
        for stores in (self.local_folder_servers(), self.local_replica_servers()):
            for fs in stores.values():
                fs.shutdown()
        if self.durability is not None:
            # Orderly shutdown: every journaled record reaches the platter,
            # so a clean stop/start round loses nothing even at fsync=none.
            self.durability.close()

    def store_for(self, chain: tuple, sid: str) -> FolderServer:
        """The local store that serves *chain* on this host.

        The primary serves from its ordinary folder server; any other
        member (chain entry *sid*) from its replica store.
        """
        if chain[0][1] != self.host:
            return self.replica_server(sid)
        # Lock-free read: dict lookups are atomic under the GIL, folder
        # servers are only ever added, and this sits on every local dispatch.
        fs = self.folder_servers.get(chain[0][0])
        if fs is None:
            raise ServerError(f"host {self.host} has no folder server {chain[0][0]!r}")
        return fs

    # -- serving a request here: the router walk's ``here(reg, chain, sid, msg)`` ----

    def _serving(self, chain: tuple, sid: str) -> FolderServer:
        """The store that serves *chain* here, counted as a local dispatch.

        The primary serves from its ordinary folder server; a backup
        serves from its replica store (which holds copies of everything
        the dead primary acknowledged — this is what lets parked waits
        complete through a fail-over).
        """
        if chain[0][1] == self.host:
            self._stats.bump("local_dispatches")
        else:
            self._stats.bump_pair("local_dispatches", "failover_dispatches")
        return self.store_for(chain, sid)

    def put(self, reg, chain: tuple, sid: str, msg: PutRequest, done) -> Reply | None:
        record = MemoRecord(payload=msg.payload, origin=msg.origin)
        record = self._serving(chain, sid).put(msg.folder, record)
        if len(chain) == 1:
            return PUT_ACK
        return self.fan_out(reg, chain, msg.folder, record, None, done)

    def put_delayed(self, reg, chain: tuple, sid: str, msg: PutDelayedRequest, done):
        record = MemoRecord(payload=msg.payload, origin=msg.origin)
        fs = self._serving(chain, sid)
        record = fs.put_delayed(msg.folder, msg.release_to, record)
        if len(chain) == 1:
            return PUT_ACK
        return self.fan_out(reg, chain, msg.folder, record, msg.release_to, done)

    def get(self, _reg, chain: tuple, sid: str, msg: GetRequest, _done) -> Reply:
        """A ``get_skip``: the one read a :class:`GetRequest` asks here."""
        record = self._serving(chain, sid).get_skip(msg.folder)
        if record is None:
            return Reply(ok=True, found=False)
        return Reply(ok=True, found=True, payload=record.payload, folder=msg.folder)

    def get_alt(self, reg, _chain, _sid, msg: GetAltSkipRequest, _done) -> Reply:
        """Check co-located folders, grouped per serving folder server.

        A folder may be served here as its primary or — when its primary
        is dead — out of this host's replica store; folders are grouped
        by the store itself so a folder never reads from the wrong one.
        """
        by_store: dict[FolderServer, list[FolderName]] = {}
        for folder in msg.folders:
            chain = reg.placement.replica_chain(folder)
            sid, _host = self._router.chained_here(folder, chain, "the get_alt round")
            by_store.setdefault(self.store_for(chain, sid), []).append(folder)
        for fs, folders in by_store.items():
            hit = fs.get_alt_skip(tuple(folders))
            if hit is not None:
                name, record = hit
                return Reply(ok=True, found=True, payload=record.payload, folder=name)
        return Reply(ok=True, found=False)

    # -- replication (replica chains, fan-out) ----------------------------------------

    def fan_out(
        self,
        reg,
        chain: tuple,
        folder: FolderName,
        record: MemoRecord,
        release_to: FolderName | None,
        done,
    ) -> Reply | None:
        """Copy a write this host accepted — stamped with its origin
        coordinates, which every copy then carries — to every other live
        chain member, *before* the write is acknowledged: PUT_ACK with none
        to copy to, else ``done(PUT_ACK)`` once every copy landed.

        The copies go out *concurrently* (:meth:`_copy_all`): the pre-ack
        cost is the slowest member's round trip.  Inside a lane round
        (between :meth:`collect_copies` and :meth:`send_copies`) the copy
        is held for the round's run, sent before any of its replies.

        Failures demote the target to dead and are counted, not raised:
        the write is already durable on this host, and the dead member
        will pull the copy back through anti-entropy when it rejoins.
        """
        targets = [
            member
            for _sid, member in chain
            if member != self.host and self._failure.is_alive(member)
        ]
        held = getattr(self._round, "copies", None)
        if not targets or held is not None:
            if targets:
                copy = self.replica_copy(reg.app, folder, record, release_to)
                for member in targets:
                    held.setdefault((reg.app, member), (reg, []))[1].append(copy)
            return PUT_ACK
        copy = self.replica_copy(reg.app, folder, record, release_to)
        self._copy_all([(reg, member, [copy]) for member in targets], done)
        return None

    def collect_copies(self) -> None:
        """Hold the copies this thread's writes fan out until :meth:`send_copies`."""
        self._round.copies = {}

    def send_copies(self) -> Reply:
        """Send what :meth:`collect_copies` held, one run per chain member,
        member by member (the lane's worker waits on each: a worker per
        member would be a thread more per member at a busy owner); an
        error a leg raises is raised."""
        held, self._round.copies = self._round.copies, None
        for (_app, member), (reg, copies) in held.items():
            (outcome,) = wait_for(self._copy_to, reg, member, copies)
            if isinstance(outcome, Exception):
                raise outcome
        return PUT_ACK

    def _copy_all(self, legs: list, done) -> None:
        """Send each ``(reg, member, copies)`` leg (:meth:`_copy_to`), all
        at once; ``done`` takes PUT_ACK once every leg landed, or the
        first error one raised (e.g. ShutdownError mid-teardown)."""
        legs = [(self._copy_to, *leg) for leg in legs]
        scatter(self._cache, legs, lambda outcomes: done(next(
            (o for o in outcomes if isinstance(o, Exception)), PUT_ACK
        )))

    def _copy_to(self, reg, member: str, copies: list, then) -> None:
        """Send *copies* to *member*; ``then`` takes how many it acked.

        They go in envelopes of at most :data:`_BURST_MAX` over a direct
        link (:meth:`_burst_to`); what those leave unresolved or answer
        with anything but an ack — everything, across a relay hop — goes
        again one by one, on a worker (:meth:`_copy_each`).
        """

        def acked(flags: list) -> None:
            left = [copy for copy, ok in zip(copies, flags) if not ok]
            if left:
                later(self._cache, self._copy_each, reg, member, copies, left, then)
            else:
                self._stats.bump("replications_out", len(copies))
                then(len(copies))

        self._burst_to(reg.app, member, copies, acked)

    def _copy_each(self, reg, member: str, copies: list, left: list, then) -> None:
        """Send each of *left* in an envelope of its own and wait for it; a
        failure demotes the member, which gets no more copies (it pulls
        them back through anti-entropy when it rejoins).  Each copy counts
        as replicated out or as a replication failure."""
        replicated = len(copies) - len(left)
        for copy in left:
            if not self._failure.is_alive(member):
                break
            try:
                (reply,) = wait_for(self._router.send_one, reg, member, copy)
            except CommunicationError as exc:  # the dial failed
                reply = exc
            if isinstance(reply, CommunicationError):
                self._router.suspect(member)
            elif isinstance(reply, Exception):
                raise reply
            else:
                replicated += reply.ok
        self._stats.bump("replications_out", replicated)
        if replicated < len(copies):
            self._stats.bump("replication_failures", len(copies) - replicated)
        then(replicated)

    def _burst_to(self, app: str, target: str, messages: list, then) -> None:
        """Send lane requests to *target* in bursts of at most
        :data:`_BURST_MAX` frames; ``then`` takes which of them it
        acknowledged."""
        send = self._router.forward_burst
        bursts = [
            (send, app, target, [(msg, None) for msg in messages[i : i + _BURST_MAX]])
            for i in range(0, len(messages), _BURST_MAX)
        ]
        scatter(self._cache, bursts, lambda chunks: then(
            [result is PUT_ACK for results in chunks for result in results]
        ))

    @staticmethod
    def replica_copy(
        app: str,
        folder: FolderName,
        record: MemoRecord,
        release_to: FolderName | None = None,
    ) -> ReplicatePut:
        """The replica copy of a stored (stamped) *record*; a delayed memo
        is one with a *release_to*.  Carries the record's origin
        coordinates so every copy names the same cluster-wide write."""
        return ReplicatePut(
            app=app,
            folder=folder,
            payload=record.payload,
            origin=record.origin,
            delayed=release_to is not None,
            release_to=release_to,
            src_sid=record.src_sid,
            src_lsn=record.src_lsn,
        )

    def handle_replicate(self, msg: ReplicatePut) -> Reply:
        """Apply a replica copy to the right local store.

        A backup stores the copy in its replica server; re-application is
        *quiet* (no delayed-release trigger) because the authoritative
        member already ran the trigger — running it again on every copy
        would release each delayed memo once per replica.
        """
        chain = self._router.registration(msg.app).placement.replica_chain(msg.folder)
        sid, _host = self._router.chained_here(msg.folder, chain, "the replica copy")
        self._stats.bump("replications_in")
        fs = self.store_for(chain, sid)
        if msg.src_lsn and fs.contains_src(
            msg.folder, msg.src_sid, msg.src_lsn, delayed=msg.delayed
        ):
            # Already holding this exact write (named by its origin
            # coordinates): re-seeds from anti-entropy sweeps and resync
            # overlaps are dropped here, which is what keeps repeated
            # sweeps idempotent instead of at-least-once.
            self._stats.bump("resync_reseed_skipped")
            return PUT_ACK
        record = MemoRecord(
            payload=msg.payload,
            origin=msg.origin,
            src_sid=msg.src_sid,
            src_lsn=msg.src_lsn,
        )
        if msg.delayed:
            assert msg.release_to is not None  # enforced by the message
            fs.put_delayed(msg.folder, msg.release_to, record)
        else:
            fs.put(msg.folder, record, trigger_release=False)
        return PUT_ACK

    # -- stored records re-entering routing -------------------------------------------

    def redeposit(
        self,
        name: FolderName,
        record: MemoRecord,
        release_to: FolderName | None,
        then,
    ) -> None:
        """Put a stored *record* back through ordinary routing.

        The one way a memo this server holds re-enters the cluster: a
        migrating folder's contents, the records an anti-entropy pull's
        bursts did not settle, a delayed memo released into a folder
        served elsewhere, a memo a dead or cancelled waiter consumed.  A
        delayed memo is one with a *release_to*.  ``then`` takes None once
        acknowledged, the failure as text otherwise — each caller decides
        what an unreturned record means.
        """
        msg = self._put_of(name, record, release_to)
        here = self.put if release_to is None else self.put_delayed

        def routed(reply) -> None:
            if isinstance(reply, Exception):
                then(f"{type(reply).__name__}: {reply}")
            else:
                then(None if reply.ok else reply.error)

        attempt(self._router.route, name, msg, here, routed)

    @staticmethod
    def _put_of(name: FolderName, record: MemoRecord, release_to: FolderName | None):
        """The put that deposits a stored *record* into folder *name* again."""
        if release_to is None:
            return PutRequest(name, record.payload, record.origin)
        return PutDelayedRequest(name, release_to, record.payload, record.origin)

    def _emit_put(self, folder: FolderName, record: MemoRecord) -> None:
        """Route a delayed-release put whose target folder lives elsewhere."""
        self.redeposit(folder, record, None, self.count_failure)

    def count_failure(self, failure: str | None) -> None:
        """A :meth:`redeposit` that nobody waits for: count its failure."""
        if failure is not None:
            self._stats.bump("errors")

    # -- dynamic data migration and anti-entropy --------------------------------------

    @staticmethod
    def _flatten(extracted: list) -> list:
        """What ``extract_folders`` / ``extract_records`` returned, as
        ``(name, record, release_to)`` items in folder order (a folder's
        memos, then its delayed memos)."""
        items: list = []
        for name, memos, delayed in extracted:
            items += [(name, record, None) for record in memos]
            items += [(name, record, release_to) for record, release_to in delayed]
        return items

    def _return_all(self, fs: FolderServer, items: list) -> tuple[int, str | None]:
        """Redeposit every item of *items* (records taken out of *fs*) one
        at a time; returns how many went back and the first failure.  A
        record is dropped only after a confirmed return, so on a failure
        exactly the unreturned tail is put back into *fs* — these may be
        the records' only surviving incarnation, and a later round must
        still find them."""
        for index, (name, record, release_to) in enumerate(items):
            (failure,) = wait_for(self.redeposit, name, record, release_to)
            if failure is not None:
                for rname, rec, rel in items[index:]:
                    if rel is None:
                        fs.put(rname, rec, trigger_release=False)
                    else:
                        fs.put_delayed(rname, rel, rec)
                return index, f"{name} failed: {failure}"
        return len(items), None

    def _return_to(
        self, app: str, requester: str, fs: FolderServer, items: list
    ) -> tuple[int, str | None]:
        """:meth:`_return_all` for records that all belong to *requester*:
        they go back as bursts of the puts that deposited them, and only
        what a burst leaves unresolved, or answers with anything but an
        ack, goes down :meth:`_return_all`."""
        self._stats.bump("forwards_out", len(items))
        puts = [self._put_of(*item) for item in items]
        (acked,) = wait_for(self._burst_to, app, requester, puts)
        left = [item for item, ok in zip(items, acked) if not ok]
        count, failure = self._return_all(fs, left)
        return len(items) - len(left) + count, failure

    def handle_migrate(self, msg: MigrateRequest) -> Reply:
        """Move locally held folders whose owner changed at re-registration.

        For every local folder server, folders belonging to *msg.app* whose
        current placement names a *different* (server, host) are extracted
        and their memos re-deposited through ordinary routing — no special
        transfer channel, "dynamic data migration" is just puts.
        """
        reg = self._router.registration(msg.app)
        self._placement_cache.bump()  # contents are moving: drop cached routes
        moved_memos = 0
        moved_folders = 0
        for sid, fs in self.local_folder_servers().items():
            def should_move(name: FolderName, sid: str = sid) -> bool:
                if name.app != msg.app:
                    return False
                new_sid, new_host = reg.placement.place_host(name)
                return new_sid != sid or new_host != self.host

            extracted = fs.extract_folders(should_move)
            moved_folders += len(extracted)
            moved, failure = self._return_all(fs, self._flatten(extracted))
            moved_memos += moved
            if failure is not None:
                return Reply(ok=False, error=f"migration of {failure}")
        # Replica copies whose chain no longer lists this host are stale:
        # the primary's own migration re-deposited (and re-fanned-out) the
        # data, so the leftover copies are dropped, not re-routed.
        dropped = 0
        for sid, fs in self.local_replica_servers().items():
            def is_stale(name: FolderName, sid: str = sid) -> bool:
                if name.app != msg.app:
                    return False
                chain = reg.placement.replica_chain(name)
                return (sid, self.host) not in chain[1:]

            dropped += len(fs.extract_folders(is_stale))
        return Reply(
            ok=True,
            stats={
                "migrated_folders": moved_folders,
                "migrated_memos": moved_memos,
                "dropped_replica_folders": dropped,
            },
        )

    def handle_delta_sync(self, msg: DeltaSyncPull) -> Reply:
        """Anti-entropy: return and re-seed what a requester's state lacks.

        Phase 1 *returns* the replica-held writes whose primary is the
        requester and that it does NOT already hold, by extracting them
        and sending them back as the puts that deposited them (the same
        "migration is just puts" as :class:`MigrateRequest`; the
        requester's own fan-out then rebuilds the backups): anything
        stamped by a store it did not advertise (fail-over writes
        accepted elsewhere while it was down), stamped past the
        advertised LSN (acked after its WAL horizon, e.g. lost to a torn
        tail), or at or below its resync floor (a log-less restart
        recovered none of that range).  Everything else was replayed
        from its local log, and returning it again would duplicate it.

        Phase 2 *re-seeds* the requester's replica store with copies of
        local primary folders that name it as a backup, past its
        ``replica_marks``; the receiver-side origin-coordinate dedup in
        :meth:`handle_replicate` makes overlap harmless, so a host
        that came back with no marks gets everything.

        Both phases travel as bursts of at most :data:`_BURST_MAX` lane
        requests over the direct link to the requester — one exchange
        per burst, not per record; what a burst does not settle goes
        down the per-record path (:meth:`_return_to`, :meth:`_copy_to`),
        which a multi-hop topology uses for everything.
        """
        reg = self._router.registration(msg.app)
        chain_of = reg.placement.replica_chain  # memoized by the placement
        # A pull is proof the requester is back (it may still be marked
        # dead here, which would bounce the returned puts straight back
        # into our own replica store).
        self._failure.mark_alive(msg.requester)

        def requester_is_missing(name: FolderName, record: MemoRecord) -> bool:
            if name.app != msg.app:
                return False
            if chain_of(name)[0][1] != msg.requester:
                return False
            horizon = msg.primary_lsns.get(record.src_sid)
            if horizon is None or record.src_lsn == 0:
                return True
            if record.src_lsn <= msg.primary_floors.get(record.src_sid, 0):
                # Below the requester's resync floor: the advertised
                # LSN is a regrown clock, not recovered history — the
                # cold restart never replayed this range.
                return True
            return record.src_lsn > horizon

        returned = 0
        for fs in self.local_replica_servers().values():
            items = self._flatten(fs.extract_records(requester_is_missing))
            count, failure = self._return_to(msg.app, msg.requester, fs, items)
            returned += count
            if failure is not None:
                self._stats.bump("resync_returned", returned)
                return Reply(ok=False, error=f"delta resync of {failure}")

        copies = []
        for sid, fs in self.local_folder_servers().items():
            snapshot = fs.snapshot_folders(lambda name: name.app == msg.app)
            for name, memos, delayed in snapshot:
                chain = chain_of(name)
                if chain[0] != (sid, self.host):
                    continue
                if not any(h == msg.requester for _s, h in chain[1:]):
                    continue
                for record, release_to in [(r, None) for r in memos] + delayed:
                    if record.src_lsn <= msg.replica_marks.get(record.src_sid, 0):
                        continue
                    copies.append(self.replica_copy(msg.app, name, record, release_to))
        (reseeded,) = wait_for(self._copy_to, reg, msg.requester, copies)
        if isinstance(reseeded, Exception):
            raise reseeded

        self._stats.bump("resync_returned", returned)
        self._stats.bump("resync_reseeded", reseeded)
        return Reply(ok=True, stats={"returned": returned, "reseeded": reseeded})

    def handle_resync_request(self, msg: ResyncRequest) -> Reply:
        """Run one anti-entropy round from here, on the parent's behalf: a
        :class:`DeltaSyncPull` per app to every peer carrying
        :meth:`delta_sync_state`.  An unreachable peer is skipped (it runs
        its own round when it returns); a rejected pull fails the round.
        Each peer's counts come back flattened as ``"<peer>:<metric>"``.
        """
        state = self.delta_sync_state()
        flat: dict[str, int] = {}
        for peer in sorted(self._router.address_book):
            if peer == self.host:
                continue
            totals = {"returned": 0, "reseeded": 0}
            for app in msg.apps:
                pull = DeltaSyncPull(app, self.host, *state)
                try:
                    reply = self._router.call(peer, pull)
                except CommunicationError:
                    continue
                if not reply.ok:
                    raise ReplicationError(
                        f"sync pull for {app!r} rejected by {peer}: {reply.error}"
                    )
                for metric in totals:
                    totals[metric] += int(reply.stats.get(metric, 0))
            flat.update((f"{peer}:{metric}", n) for metric, n in totals.items())
        return Reply(ok=True, stats=flat)

    def delta_sync_state(
        self,
    ) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        """What this host already holds, in origin coordinates.

        Returns ``(primary_lsns, replica_marks, primary_floors)`` for a
        :class:`DeltaSyncPull`: each local primary store's LSN horizon,
        the max origin LSN per origin store across the local replica
        stores, and each primary store's resync floor (non-zero only
        after a cold restart resumed the clock past an unrecovered
        incarnation).  Works on non-durable servers too (the counters
        live regardless), which is what lets the periodic anti-entropy
        sweep run delta pulls from healthy hosts.
        """
        primaries = self.local_folder_servers()
        primary_lsns = {sid: fs.current_lsn() for sid, fs in primaries.items()}
        primary_floors = {
            sid: floor
            for sid, fs in primaries.items()
            if (floor := fs.resync_floor())
        }
        replica_marks: dict[str, int] = {}
        for fs in self.local_replica_servers().values():
            for src_sid, mark in fs.src_high_water().items():
                if mark > replica_marks.get(src_sid, 0):
                    replica_marks[src_sid] = mark
        return primary_lsns, replica_marks, primary_floors
