"""One inbound connection: its reader, put lane, replies and waiter table.

*Where* a request runs — the connection's FIFO put lane, inline on the
reader, or a worker of its own — is its row in the server's handler table
(:data:`repro.servers.memo_server.HANDLERS`); this module never asks what
type a request is.  :class:`_ConnectionSession` says what each place is.

Blocked waiting is event-driven: a
:class:`~repro.network.protocol.GetWaitRequest` on an empty folder parks in
the session's *waiter table* (one dict entry, no thread) and resolves later
through an unsolicited :class:`~repro.network.protocol.MemoReady` /
:class:`~repro.network.protocol.WaitCancelled` push completed directly off
the put path — a million parked waiters cost a table, not a thread pool.
That holds from any host: a wait for a folder served elsewhere is sent on
over the one link per next hop (:mod:`repro.servers.link`) and parks in
the *owner's* table like everyone else's; its GetWait is answered by the
owner's first answer, so a remote hit is one reply, as a local one is.

A request runs on the reader when nothing is behind it, on its connection
or in its carrier (a lane request also needs its lane idle): a lone frame,
a carrier's last member, a lane round of one.  So the member of a peer's
envelope of one — a forwarded put, ``get_skip`` or wait — is served as a
lone request is.  A lane round of one takes the server's one audited
route: a put owned elsewhere is one forward, whose reply the forwarding
thread reads itself, as the thread relaying a wait reads the owner's
first answer.  Only a round of many burst-forwards its remote puts.

A peer's link is one session here, so nothing that waits on a peer may
hold back a request that does not: a replica copy and a heartbeat are
``INLINE`` rows, never queued behind a put that is fanning out; a request
passing through runs on a worker, never on the lane; and the session is a
:class:`~repro.servers.threadcache.Reader`, whose reading a wait on a peer
— or a read of a peer link that lasts — hands on.

Everything without an underscore is for the other server modules (the
accept path, the handler table's reader rows, a peer link's reader).
What this one calls on them — the server's ``host``, ``stats``, ``cache``,
``running``, ``handlers``, ``handle``, ``guarded``; the router's
``registration``, ``candidates``, ``admit``, ``chained_here``, ``walk``,
``relay_wait``, ``suspect``, ``forward_target``, ``forward_burst``; the
replicator's ``store_for``, ``redeposit`` and ``collect_copies`` /
``send_copies``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, NamedTuple

from repro.core.memo import MemoRecord
from repro.errors import CommunicationError, ProtocolError, ServerError
from repro.network.connection import Connection
from repro.network.protocol import (
    PUT_ACK,
    Acks,
    CancelWaitRequest,
    Envelope,
    GetWaitRequest,
    MemoReady,
    PipelineBatch,
    Reply,
    WaitCancelled,
    decode_protocol_frame,
    retryable,
    send_message,
    shutting_down,
)
from repro.servers.link import ParkedWaiter
from repro.servers.threadcache import Reader, scatter_join

if TYPE_CHECKING:
    from repro.servers.memo_server import MemoServer

__all__ = ["_ConnectionSession", "Row", "LANE", "READER", "INLINE", "WORKER"]

#: Where a request runs (a :class:`Row`'s ``where``): on the connection's
#: one FIFO put lane, inline on the reader (it never blocks; it replies
#: itself), as it is read (it never waits on a peer), or on a worker of
#: its own (it may).
LANE, READER, INLINE, WORKER = "lane", "reader", "inline", "worker"


class Row(NamedTuple):
    """One handler-table entry: how the server serves one message class.

    A ``LANE`` / ``INLINE`` / ``WORKER`` row's handler is ``handler(server,
    msg, envelope) -> Reply``; a ``READER`` row's is ``handler(session, msg,
    cid, envelope) -> bool`` — it sends what it owes itself, and False
    closes the session.  *enveloped* rows may be members of a peer's
    :class:`~repro.network.protocol.Envelope` (``envelope`` is then the
    envelope that carried them, else None); any other member is answered
    with a ``ProtocolError`` where it was aimed.
    """

    handler: object
    where: str
    enveloped: bool


#: Shared "your wait is parked" acknowledgement for GetWait requests
#: whose folder was empty: ok, nothing found *yet* — the resolution
#: arrives later as a MemoReady/WaitCancelled push.
_PARKED_ACK = Reply(ok=True, found=False)

#: What a park that relayed the wait returns in place of a reply: the
#: GetWait's correlation id is owed (``ParkedWaiter.owed``) and is paid
#: by the owner's first answer, or by whatever ends the wait first.
_OWED = Reply(ok=True, found=False)

#: How often one relayed wait may re-enter routing because its folder
#: migrated before it fails: the bound on a folder that keeps moving.
MIGRATION_RETRY_MAX = 8

#: Most requests the put worker drains per round; bounds a round's
#: :class:`Acks` frame under a firehose producer.
_LANE_BATCH_MAX = 128

#: The frames that carry requests rather than being one: a client's batch
#: and a peer's envelope.  They alone of what a session reads travel
#: id-less: each frame they carry has its own correlation id.  Any other
#: id-less frame (an ``Acks``, a push) closes it, as does a nested carrier.
_CARRIERS = (PipelineBatch, Envelope)


class _ConnectionSession(Reader):
    """Pipelined service state for one inbound connection.

    The paper's server loop was strictly request/reply per connection:
    decode, handle, reply, repeat — so a client pipelining requests
    (deferred acks, ``put_many``) still paid one full server round per
    request.  A session runs that loop on its *reader* (this thread, from
    the accept path's :class:`ThreadCache` submit) and hands off only
    what would keep the frames behind it waiting.  Every request carries
    a correlation id (an id-less one closes the session) and runs where
    its handler-table row says — a carrier's members each where theirs
    says:

    * ``LANE`` rows keep their order on the connection's one FIFO put
      lane.  A lone one — a carrier's only lane request included — runs
      inline when the lane is idle and no whole frame is buffered behind
      it; otherwise it queues for the lane's one worker, as a carrier's
      lane requests do, in rounds (one worker is the throughput sweet
      spot under the GIL, and cross-owner latency overlap comes from the
      worker firing its burst groups concurrently);
    * ``WORKER`` rows (the reads, which may forward, and the control
      messages) keep no order: one with nothing behind it — no whole
      frame buffered, no member after it in its carrier — runs inline,
      else on a worker of its own;
    * ``READER`` rows — GetWait/CancelWait and the carriers — never block
      and run inline (that inlining IS the waiter table's O(1)-thread
      property); ``INLINE`` rows — a replica copy, a heartbeat — never
      wait on a peer and run as they are read;
    * replies are sent as the requests complete — out of order, tagged
      with the request's correlation id; of a set completed together (a
      lane round, a carrier's ``INLINE`` members) the put acks go as one
      :class:`Acks` frame.

    On shutdown or connection loss the session *drains*: queued-but-
    unstarted requests are answered with a shutdown error (never silently
    dropped — an unanswered id would strand the peer's waiter), and
    in-flight workers get a bounded grace period before the connection
    closes.
    """

    __slots__ = (
        "server",
        "conn",
        "reader_cache",
        "_lock",
        "_idle",
        "_draining",
        "_put_queue",
        "_put_running",
        "_inflight",
        "_waiters",
    )

    def __init__(self, server: "MemoServer", conn: Connection) -> None:
        self.server = server
        self.conn = conn
        self.reader_cache = server.cache
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        #: Whether :meth:`read_ended` waits on ``_idle`` for the workers.
        self._draining = False
        self._put_queue: deque = deque()
        self._put_running = False
        #: Requests accepted and not yet answered (lane and workers).
        self._inflight = 0
        #: The waiter table: parked GetWaits keyed by client-chosen token.
        self._waiters: dict[int, ParkedWaiter] = {}

    # -- reader (the threadcache.Reader contract) ------------------------------

    def read_one(self) -> bool:
        """Read and dispatch one frame; False ends the session (the
        connection closed, the server stopped, a frame broke the rules)."""
        while self.server.running.is_set():
            try:
                raw = self.conn.recv(timeout=0.5)
                msg, cid = decode_protocol_frame(raw)
            except TimeoutError:
                continue
            except CommunicationError:
                return False
            if type(msg) not in _CARRIERS:
                self.server.stats.bump_pair("requests", "pipelined_requests")
            return self._dispatch(msg, cid, raw)
        return False

    def _dispatch(self, msg, cid, raw: bytes) -> bool:
        """Run one frame where its table row says; False closes the
        session, as a frame breaking the id rule (:data:`_CARRIERS`) does."""
        if (cid is None) is not (type(msg) in _CARRIERS):
            return False
        row = self.server.handlers.get(type(msg))
        return self._run(row, msg, cid, None, raw, None)

    def _run(self, row, msg, cid, envelope, raw, lane, done=None, last=True) -> bool:
        """Run *msg* where *row* says (no row: as a ``WORKER`` row, which
        answers what it is).  A carrier's member queues its lane request
        in the carrier's *lane* round and collects what it answers as it
        is read in *done*, to send them as one batch; *last* says nothing
        follows it in its carrier."""
        where = row.where if row is not None else WORKER
        if where is LANE:
            entry = (msg, cid, envelope, raw)
            if lane is None:
                self._enqueue([entry], alone=True)
            else:
                lane.append(entry)
            return True
        if where is not INLINE:
            if lane:
                # What the carrier queued so far goes ahead of what follows it.
                self._enqueue(lane[:])
                lane.clear()
            if where is READER:
                return row.handler(self, msg, cid, envelope)
        if where is INLINE or (last and not self.conn.frame_buffered()):
            reply = (self.server.handle(msg, envelope), cid)
            if done is None:
                self._send_replies([reply])
            else:
                done.append(reply)
            return True
        with self._lock:
            self._inflight += 1
        self._spawn(self._run_single, msg, cid, envelope)
        return True

    def unpack_batch(self, batch: PipelineBatch, _cid=None, _envelope=None) -> bool:
        """Unpack one coalesced burst; False (undecodable) closes the session."""
        return self._unpack(batch.frames, None, None)

    def open_envelope(self, envelope: Envelope, _cid=None, _envelope=None) -> bool:
        """Run what a peer sent in *envelope*, once :meth:`Router.admit`
        lets it in (else each member is answered with the refusal).

        Each member runs where its row says, its lane members as one
        round, with the envelope as its context — served here or passed
        on toward the target.  A member that may not ride an envelope
        goes to a worker too, which refuses (or passes on) it; passing a
        member on waits on the next hop, so only a ``READER`` row (a
        wait) does it on the reader, never the lane, where a ring of
        relays could wait on itself.  The replies go back to the sending
        server's link, which answers each member's caller.
        """
        refused = self.server.guarded(self.server.router.admit, envelope)
        return self._unpack(envelope.frames, envelope, refused)

    def _unpack(self, frames: tuple, envelope, refused) -> bool:
        """Dispatch a carrier's frames, its lane requests as one round;
        False closes the session (an undecodable, id-less or nested frame).
        A *refused* envelope's members get that reply, unserved."""
        stats = self.server.stats
        stats.bump("pipelined_batches")
        stats.bump_pair("requests", "pipelined_requests", len(frames))
        handlers = self.server.handlers
        relayed = envelope is not None and envelope.target_host != self.server.host
        lane: list = []
        done: list = []
        last = len(frames) - 1
        for i, raw in enumerate(frames):
            try:
                msg, cid = decode_protocol_frame(raw)
            except ProtocolError:
                return False
            kind = type(msg)
            if cid is None or kind in _CARRIERS:
                return False
            if refused is not None:
                done.append((refused, cid))
                continue
            row = handlers.get(kind)
            if envelope is not None and (
                row is None
                or not row.enveloped
                or (relayed and row.where is not READER)
            ):
                row = None
            if not self._run(row, msg, cid, envelope, raw, lane, done, i == last):
                return False
        if done:
            self._send_replies(done)
        if lane:
            self._enqueue(lane, alone=len(lane) == 1)
        return True

    def _enqueue(self, entries: list, alone: bool = False) -> None:
        """Queue lane requests, starting the lane if it is idle: right here
        on the reader for a request that is *alone* (on its own, or the
        only lane request of a carrier) with no whole frame buffered
        behind it (the inline rule), else on the lane's worker."""
        with self._lock:
            self._put_queue.extend(entries)
            self._inflight += len(entries)
            if self._put_running:
                return
            self._put_running = True
        if alone and not self.conn.frame_buffered():
            self._run_put_lane()
        else:
            self._spawn(self._run_put_lane)

    def _spawn(self, fn, *args) -> None:
        try:
            self.server.cache.submit(fn, *args)
        except ServerError:
            # The thread cache shut down under us (server stopping); run
            # inline so counters settle and queued peers still get replies
            # (the folder servers are already waking blocked waiters, so
            # nothing here can block the reader for long).
            fn(*args)

    # -- workers --------------------------------------------------------------

    def _run_put_lane(self) -> None:
        queue = self._put_queue
        while True:
            batch: list = []
            with self._lock:
                while queue and len(batch) < _LANE_BATCH_MAX:
                    batch.append(queue.popleft())
                if not batch:
                    self._put_running = False
                    return
            try:
                try:
                    replies = self._serve_round(batch)
                except Exception as exc:  # noqa: BLE001 - a worker must
                    # always reply AND keep the lane alive: an exception
                    # escaping here would leave _put_running stuck True
                    # (no future round ever spawns) and the peer waiting
                    # on ids that never resolve.
                    self.server.stats.bump("errors")
                    err = Reply(
                        ok=False,
                        error=f"internal error: {type(exc).__name__}: {exc}",
                    )
                    replies = [(err, cid) for _m, cid, _i, _r in batch]
                self._send_replies(replies)
            finally:
                with self._lock:
                    self._inflight -= len(batch)
                    if self._draining:
                        self._idle.notify_all()

    def _serve_round(self, batch: list) -> list:
        """Serve one lane round; its replica copies leave before its replies.

        A single request takes the audited route, as if it came alone: a
        remote owner is one forward, its copies fan out strictly.  A
        round of more than one request burst-forwards runs of remote puts
        (:meth:`_process_put_batch`), and has the replicator collect the
        copies its writes fan out and send them as one burst per chain
        member once every request is served — still before any reply is
        emitted, so a write is copied before it is acknowledged.  Sending
        the copies absorbs a member's failure (it is demoted); only an
        error it raises (the server stopping) replaces the round's acks.
        """
        if len(batch) == 1:
            msg, cid, envelope, _raw = batch[0]
            return [(self.server.handle(msg, envelope), cid)]
        replicator = self.server.replicator
        replicator.collect_copies()
        try:
            replies = self._process_put_batch(batch)
        finally:
            sent = self.server.guarded(replicator.send_copies)
        if sent.ok:
            return replies
        return [(sent, cid) if reply.ok else (reply, cid) for reply, cid in replies]

    def _process_put_batch(self, batch: list) -> list:
        """Serve a lane round of many, burst-forwarding runs of remote puts.

        Local puts and enveloped requests are served in place; puts owned
        by a single remote host are grouped per ``(app, owner)`` and
        forwarded in one :class:`Envelope` instead of one envelope each —
        the owner's replies come back member by member and answer the
        client's own ids.  Entries the burst cannot resolve —
        connection failures, a peer answering mid-teardown, a folder that
        migrated underneath the burst — fall back to the server's full
        routing, which owns retry, suspicion, and fail-over policy.
        Batch order is preserved per folder: a folder's puts either all
        apply here or all belong to the same burst group, in index order.
        """
        router = self.server.router
        replies: list = [None] * len(batch)
        groups: dict = {}
        # Phase 1: decide each folder's route ONCE for the whole round.
        # A re-registration or liveness flip landing mid-scan could make
        # forward_target answer differently for two puts to the same
        # folder; since grouped entries execute after inline ones, a
        # split decision would reorder them.  A folder whose decision
        # flips mid-scan is demoted to the inline path for the entire
        # round — the audited route serves any placement correctly, and
        # inline entries run in batch order.
        decisions: dict = {}
        for msg, _cid, envelope, _raw in batch:
            folder = getattr(msg, "folder", None)
            if envelope is not None or folder is None:
                continue
            target = router.forward_target(msg)
            if folder not in decisions:
                decisions[folder] = target
            elif decisions[folder] != target:
                decisions[folder] = None
        # Phase 2: execute — inline in batch order, bursts collected.
        for i, (msg, cid, envelope, _raw) in enumerate(batch):
            target = decisions.get(getattr(msg, "folder", None))
            if envelope is not None or target is None:
                replies[i] = (self.server.handle(msg, envelope), cid)
            else:
                groups.setdefault((msg.folder.app, target), []).append(i)
        bursts = self._run_burst_groups(batch, groups)
        for key, idxs in groups.items():
            for i, result in zip(idxs, bursts[key]):
                if result is None or retryable(result.error):
                    # Unresolved, or the owner was dying or the folder
                    # moved mid-burst: the slow path knows how to chase
                    # all three.
                    result = self.server.handle(batch[i][0])
                replies[i] = (result, batch[i][1])
        return replies

    def _run_burst_groups(self, batch: list, groups: dict) -> dict:
        """Fire one burst per owner; independent owners' bursts overlap.

        Each group's round trip is pure waiting from this thread's point
        of view, so the groups scatter across thread-cache workers — a
        round touching K owners costs ~the slowest owner's round trip,
        not the sum.
        """
        bursts: dict = {}

        def one_group(key: tuple) -> None:
            app, owner = key
            entries = [(batch[i][0], batch[i][3]) for i in groups[key]]
            self.server.stats.bump("forwards_out", len(entries))
            try:
                bursts[key] = self.server.router.forward_burst(app, owner, entries)
            except Exception:  # noqa: BLE001 - burst is an optimistic path
                bursts[key] = [None] * len(entries)

        scatter_join(
            self.server.cache, [lambda key=key: one_group(key) for key in groups]
        )
        return bursts

    def _run_single(self, msg: object, cid: int, envelope=None) -> None:
        try:
            self._send_replies([(self.server.handle(msg, envelope), cid)])
        finally:
            with self._lock:
                self._inflight -= 1
                if self._draining:
                    self._idle.notify_all()

    # -- waiter table (parked GetWait service) ---------------------------------

    def get_wait(self, msg: GetWaitRequest, cid: int, envelope=None) -> bool:
        """Serve one GetWait inline on the reader — never blocks.

        Parked or answered here, the correlated reply is immediate: a hit
        (folder had a memo), a parked acknowledgement (wait recorded in
        the table), or an error mapped exactly like any other handler's.
        A wait relayed to another host is answered by the owner's first
        answer instead — its hit, or else a parked acknowledgement — so
        nothing is sent here.  A parked wait holds no thread: its
        resolution is event-driven off the put path.
        """
        reply = self.server.guarded(self._park_new, msg, envelope, cid)
        if reply is not _OWED:
            self._send_replies([(reply, cid)])
        return True

    def _park_new(
        self, msg: GetWaitRequest, envelope: Envelope | None, cid: int
    ) -> Reply:
        token = msg.waiter
        entry = ParkedWaiter(token, msg.folder, msg.mode, msg.origin)
        entry.owed = cid
        # Table entry goes in BEFORE the wait is parked anywhere: its
        # completion may fire from a concurrent put the instant it parks,
        # and must find the entry.  (The push may then legally overtake
        # the parked ack on the wire — the client routes by token, not
        # arrival order.)
        with self._lock:
            if token in self._waiters:
                raise ProtocolError(
                    f"waiter token {token} is already parked on this session"
                )
            self._waiters[token] = entry
        try:
            reply = self._park(entry, envelope)
        except BaseException:
            with self._lock:
                self._waiters.pop(token, None)
            raise
        if reply.found:
            with self._lock:
                self._waiters.pop(token, None)
        elif reply is _OWED:  # counted active as it left (_relay)
            self.server.stats.bump("waiters_parked")
        else:
            self.server.stats.bump_pair("waiters_parked", "waiters_active")
        return reply

    def _park(self, entry: ParkedWaiter, envelope=None) -> Reply:
        """Park *entry* wherever its folder is served — the one way to wait.

        The chain is walked as any request's is (the router's ``walk``):
        the first live member that is this host parks the wait in its own
        store (primary or, failed over, replica), any other has the wait
        sent on to it.  A wait a peer relayed here (*envelope*) is passed
        along its route or served where the peer aimed it, never
        re-routed.
        """
        router = self.server.router
        reg, chain, candidates = router.candidates(entry.folder)
        if envelope is not None:
            if envelope.target_host != self.server.host:
                self.server.stats.bump("forwards_relayed")
                return self._relay(reg, envelope.target_host, entry, envelope.trail)
            candidates = [router.chained_here(entry.folder, chain, "the relayed wait")]
        return router.walk(
            reg, chain, candidates, entry.folder, self._park_here, self._relay, entry
        )

    def _relay(self, reg, target: str, entry: ParkedWaiter, trail=()) -> Reply:
        """Send *entry*'s wait on toward *target*: ``_OWED`` while its
        GetWait's reply is owed, else (a re-park) the parked ack.

        Decided before the wait is on the link: from then on whoever reads
        the link — this thread too — may answer the id, even before this
        returns.  So a wait relayed from :meth:`_park_new` counts as
        active before it leaves.
        """
        if entry.owed is None:
            self.server.router.relay_wait(self, entry, reg, target, trail)
            return _PARKED_ACK
        stats = self.server.stats
        stats.bump("waiters_active")
        try:
            self.server.router.relay_wait(self, entry, reg, target, trail)
        except BaseException:
            stats.bump("waiters_active", -1)
            raise
        return _OWED

    def _park_here(self, _reg, chain: tuple, sid: str, entry: ParkedWaiter) -> Reply:
        """Park *entry* in this host's own store for *chain*, or hit."""
        entry.owed = None  # answered by the caller, now
        if chain[0][1] != self.server.host:
            # Dead primary: serve the wait out of this host's replica
            # store, exactly as the replicator fails reads over.
            self.server.stats.bump("failover_dispatches")
        fs = self.server.replicator.store_for(chain, sid)
        entry.home, entry.handle = fs, None
        record, handle = fs.get_async(
            entry.folder,
            entry.mode,
            lambda rec, err: self.complete_waiter(entry, rec, err),
        )
        if handle is None:
            self.server.stats.bump("local_dispatches")
            return Reply(
                ok=True, found=True, payload=record.payload, folder=entry.folder
            )
        entry.handle = handle
        return _PARKED_ACK

    def _is_live(self, entry: ParkedWaiter) -> bool:
        with self._lock:
            return self._waiters.get(entry.token) is entry

    def relay_ended(self, entry: ParkedWaiter, reason: str, stale=False) -> None:
        """A relayed wait came back without a memo: re-park it, or say so.

        A retryable end — the folder migrated, the member is shutting
        down, the link was lost — sends the wait back through
        :meth:`_park` under the placement in force *now* (possibly into
        this host's own replica store): ``MemoClient._resubscribe_locked``
        one hop later, bounded by :data:`MIGRATION_RETRY_MAX`.
        Only the server where the wait started re-routes; a relay hop
        hands the reason up the link it came from — unless the stale rule
        reset the link (*stale*), which is no evidence against its peer.
        Either way a GetWait reply still owed is paid first, with the
        parked ack.
        """
        self.ack_parked(entry)
        if not stale and (entry.trail or not retryable(reason)):
            self.complete_waiter(entry, None, reason)
            return
        if not self._is_live(entry):
            return  # cancelled or torn down meanwhile: nothing to park
        reply = self.server.guarded(self._repark, entry, reason, stale)
        if not reply.ok:
            self.complete_waiter(entry, None, reply.error)
        elif reply.found:
            record = MemoRecord(payload=reply.payload, origin=entry.origin)
            self.complete_waiter(entry, record, None)
        elif not self._is_live(entry):
            # Cancelled while re-parking: the canceller detached the
            # old home; leave no waiter behind at the new one.
            entry.home.cancel_waiter(entry.folder, entry.handle)

    def _repark(self, entry: ParkedWaiter, reason: str, stale: bool) -> Reply:
        """Where a retryable end sends the wait: a parked/hit reply from
        its new home, or the error to end it with."""
        entry.attempts += 1
        if entry.attempts > MIGRATION_RETRY_MAX:
            return Reply(
                ok=False, error=f"folder {entry.folder} kept migrating; giving up"
            )
        if stale:  # the same way again, on a fresh dial
            try:
                reg = self.server.router.registration(entry.folder.app)
                return self._relay(reg, entry.target, entry, entry.trail)
            except CommunicationError as exc:  # as a lost link's wait, then
                reason = f"shutdown: {exc}"
                if entry.trail:
                    return Reply(ok=False, error=reason)
        if shutting_down(reason):
            # The member is stopping or unreachable.  Its data is on the
            # next chain member, as the chain walk treats it — and when
            # there is none, the client paces the retry toward its next
            # incarnation, as it does for its own server.
            if len(self.server.router.candidates(entry.folder)[1]) == 1:
                return Reply(ok=False, error=reason)
            self.server.router.suspect(entry.target)
        return self._park(entry)

    def complete_waiter(
        self, entry: ParkedWaiter, record: MemoRecord | None, error: str | None
    ) -> None:
        """Resolve one table entry into its push frame (from any thread).

        Runs on whatever thread completed the wait — a put lane here, a
        peer session's worker, the migration path, a relay link's reader.
        Exactly one resolution wins the table entry; a completion that
        finds its entry gone lost a cancellation/teardown race, and a
        consumed memo is then re-deposited so the race never loses data.
        A relayed wait whose GetWait reply is still owed is resolved by
        that reply instead: the found ``Reply`` for a memo (no push), or
        the parked ack ahead of the ``WaitCancelled``.
        """
        with self._lock:
            live = self._waiters.get(entry.token) is entry
            if live:
                del self._waiters[entry.token]
                owed, entry.owed = entry.owed, None
        if not live:
            self._requeue(entry, record)
            return
        stats = self.server.stats
        stats.bump("waiters_active", -1)
        if error is not None:
            stats.bump_pair("waiters_cancelled", "push_frames")
            if owed is not None:
                self._send_replies([(_PARKED_ACK, owed)])
            frame: object = WaitCancelled(waiter=entry.token, reason=error)
            owed = None
        elif owed is not None:
            stats.bump("waiters_completed")
            frame = Reply(
                ok=True, found=True, payload=record.payload, folder=entry.folder
            )
        else:
            stats.bump_pair("waiters_completed", "push_frames")
            frame = MemoReady(
                waiter=entry.token, folder=entry.folder, payload=record.payload
            )
        try:
            send_message(self.conn, frame, corr_id=owed)
        except CommunicationError:
            # The peer is gone: close, so this session tears down and a
            # peer server still holding the other end re-parks what it
            # relayed here.  A consumed memo must not die with the push
            # — put it back.
            self.conn.close()
            self._requeue(entry, record)

    def ack_parked(self, entry: ParkedWaiter) -> None:
        """Pay *entry*'s GetWait reply with the parked ack, if still owed.

        The owner parked the relayed wait, or something else ended it
        first; either way the client sees the sequence a wait parked here
        produces.  Taking the id under the lock makes this, a hit's
        reply and every other end race for it: exactly one sends.
        """
        with self._lock:
            owed, entry.owed = entry.owed, None
        if owed is not None:
            self._send_replies([(_PARKED_ACK, owed)])

    def _requeue(self, entry: ParkedWaiter, record: MemoRecord | None) -> None:
        """Re-deposit a memo a dead/cancelled waiter consumed (no losses)."""
        if record is not None and entry.mode == "get":
            if self.server.replicator.redeposit(entry.folder, record) is not None:
                self.server.stats.bump("errors")

    def _withdraw(self, entry: ParkedWaiter) -> None:
        """Count *entry* (already out of the table) cancelled and detach it
        from its home — the local store, or the owner's table beyond a
        relay link.  Best-effort: a completion already in flight finds the
        table entry gone and requeues.  A GetWait reply still owed goes
        out first."""
        self.ack_parked(entry)
        self.server.stats.bump("waiters_active", -1)
        self.server.stats.bump("waiters_cancelled")
        if entry.handle is not None:
            entry.home.cancel_waiter(entry.folder, entry.handle)

    def cancel_wait(self, msg: CancelWaitRequest, cid, _envelope=None) -> bool:
        """Withdraw a parked wait; inline on the reader, non-blocking.

        ``found=False``: cancelled — the token's push will never come
        (a completion that raced us re-deposits its memo).  ``found=True``:
        too late — the wait already resolved and its push is on the wire.
        """
        with self._lock:
            entry = self._waiters.pop(msg.waiter, None)
        if entry is not None:
            self._withdraw(entry)
        self._send_replies([(Reply(ok=True, found=entry is None), cid)])
        return True

    def _send_replies(self, replies: list) -> None:
        """Emit completed ``(reply, corr_id)`` pairs.  A lone reply is its
        correlated frame; of more, the :data:`PUT_ACK` ones go as one
        :class:`Acks` frame and each other reply as its own.

        Send failures are swallowed: the peer is gone and the replies are
        moot — the counters in the callers' ``finally`` blocks still
        settle, which is what the drain logic relies on.
        """
        try:
            if len(replies) == 1:
                reply, cid = replies[0]
                send_message(self.conn, reply, corr_id=cid)
                return
            acks = tuple(cid for reply, cid in replies if reply is PUT_ACK)
            if acks:
                send_message(self.conn, Acks(acks))
            if len(acks) < len(replies):
                for reply, cid in replies:
                    if reply is not PUT_ACK:
                        send_message(self.conn, reply, corr_id=cid)
        except CommunicationError:
            pass

    # -- draining -------------------------------------------------------------

    def read_ended(self, grace: float = 2.0) -> None:
        """Orderly session teardown: answer queued work, wait for in-flight.

        Requests decoded but not yet started are answered with a shutdown
        error so the peer can fail them promptly instead of waiting on ids
        that would never resolve; workers already running get *grace*
        seconds to finish (their replies still go out if the connection
        lives), then the connection closes either way.
        """
        with self._lock:
            stranded = list(self._put_queue)
            self._put_queue.clear()
            self._inflight -= len(stranded)
            waiters = list(self._waiters.values())
            self._waiters.clear()
        # Detach parked waits: no pushes (the peer is gone), but they
        # must leave their homes or the folders would stay pinned alive by
        # dead waiters forever.
        for entry in waiters:
            self._withdraw(entry)
        if stranded and not self.conn.closed:
            shut = Reply(
                ok=False,
                error="shutdown: server stopped before the request was served",
            )
            self._send_replies([(shut, e[1]) for e in stranded])
        deadline = time.monotonic() + grace
        with self._lock:
            self._draining = True
            while self._inflight and time.monotonic() < deadline:
                self._idle.wait(deadline - time.monotonic())
        self.conn.close()
