"""One inbound connection: its reader, put lane, replies and waiter table.

*Where* a request runs — the connection's FIFO put lane, on the reader as
it is read, or on a worker of its own — is its row in the server's handler
table (:data:`repro.servers.memo_server.HANDLERS`); this module never asks
what type a request is.  :class:`_ConnectionSession` says what each place
is.

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

The reader never waits on a peer (paper section 4.1: the server hands a
request on "while it goes back to listening for more requests"): a
request that needs a peer's answer hands a continuation on with what it
sends, and whoever reads the answer runs it, sending the reply here.

Everything without an underscore is for the other server modules (the
accept path, the handler table's reader rows, a peer link's reader).
What this one calls on them — the server's ``host``, ``stats``, ``cache``,
``running``, ``handlers``, ``serve``, ``handle``, ``failed``; the
router's ``registration``, ``candidates``, ``admit``, ``chained_here``,
``walk``, ``relay_wait``, ``suspect``, ``forward_target``,
``forward_burst``; the replicator's ``store_for``, ``redeposit``,
``count_failure`` and ``collect_copies`` / ``send_copies``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

from repro.core.memo import MemoRecord
from repro.errors import CommunicationError, ProtocolError, ServerError
from repro.network.codec import encode_message
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
    put_ack_frame,
    retryable,
    send_message,
    shutting_down,
)
from repro.servers.link import ParkedWaiter
from repro.servers.threadcache import attempt, scatter, wait_for

if TYPE_CHECKING:
    from repro.servers.memo_server import MemoServer

__all__ = ["_ConnectionSession", "Row", "LANE", "READER", "WORKER", "reads"]

#: Where a request runs (a :class:`Row`'s ``where``): on the connection's
#: one FIFO put lane, on the reader as it is read (it never waits on a
#: peer; it may answer later), or on a worker of its own (it may wait).
LANE, READER, WORKER = "lane", "reader", "worker"


class Row(NamedTuple):
    """One handler-table entry: how the server serves one message class.

    A ``LANE`` / ``WORKER`` row's handler is ``handler(server, msg,
    envelope, done, raw)``: it returns its :class:`Reply`, or None once it
    handed ``done`` on.  A ``READER`` row's is ``handler(session, msg, cid,
    envelope, raw) -> bool``: it sends what it owes itself, and False
    closes the session (:func:`reads` makes one).  ``raw`` is the frame
    ``msg`` was read from: what a forward sends on.  *enveloped* rows may
    be members of a peer's :class:`~repro.network.protocol.Envelope` (then
    ``envelope``, else None); any other member is answered with a
    ``ProtocolError`` where it was aimed.
    """

    handler: object
    where: str
    enveloped: bool


def reads(handler):
    """A ``READER`` row's handler that serves by *handler*, a ``LANE`` row's
    kind (:meth:`_ConnectionSession.answer`)."""
    return lambda session, msg, cid, envelope=None, raw=None: session.answer(
        msg, cid, envelope, handler, raw
    )


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


class _ConnectionSession:
    """Pipelined service state for one inbound connection.

    The paper's server loop was strictly request/reply per connection:
    decode, handle, reply, repeat — so a client pipelining requests
    (deferred acks, ``put_many``) still paid one full server round per
    request.  A session runs that loop on its *reader* (this thread, from
    the accept path's :class:`ThreadCache` submit), and the reader never
    waits on a peer.  Every request carries a correlation id (an id-less
    one closes the session) and runs where its handler-table row says — a
    carrier's members each where theirs says:

    * ``LANE`` rows keep their order on the connection's one FIFO put
      lane.  A lone one — a carrier's only lane request included — runs
      on the reader when the lane is idle and no whole frame is buffered
      behind it; otherwise it queues for the lane's one worker, in rounds
      (one worker is the throughput sweet spot under the GIL).  A round
      of one answered later holds the lane until its reply runs it on;
    * ``READER`` rows — all but migration and anti-entropy — run as they
      are read, and what needs a peer's answer is answered when it comes;
    * ``WORKER`` rows, which wait on peers, run on a worker of their own;
    * replies are sent as the requests complete — out of order, tagged
      with the request's correlation id; of a set completed together (a
      lane round, what a carrier's members answered as it was read) the
      put acks go as one :class:`Acks` frame.

    On shutdown or connection loss the session *drains*: queued-but-
    unstarted requests are answered with a shutdown error (never silently
    dropped — an unanswered id would strand the peer's waiter), and
    requests in flight — answered later counts too — get a bounded grace
    period before the connection closes.
    """

    __slots__ = (
        "server",
        "conn",
        "_lock",
        "_idle",
        "_draining",
        "_put_queue",
        "_put_running",
        "_inflight",
        "_waiters",
        "_batch",
    )

    def __init__(self, server: "MemoServer", conn: Connection) -> None:
        self.server = server
        self.conn = conn
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        #: Whether :meth:`read_ended` waits on ``_idle`` for the workers.
        self._draining = False
        self._put_queue: deque = deque()
        self._put_running = False
        #: Requests accepted and not yet answered (lane, reader, workers).
        self._inflight = 0
        #: The waiter table: parked GetWaits keyed by client-chosen token.
        self._waiters: dict[int, ParkedWaiter] = {}
        #: While a carrier is read: the replies to send once it is.
        self._batch: list | None = None

    # -- the reader ---------------------------------------------------------------

    def serve(self) -> None:
        """Read and dispatch frames until the session ends, then drain."""
        while self.read_one():
            pass
        self.read_ended()

    def read_one(self) -> bool:
        """Read one frame and run it where its row says; False ends the session
        (the connection closed, the server stopped, a frame broke the rules)."""
        while self.server.running.is_set():
            try:
                raw = self.conn.recv(timeout=0.5)
                msg, cid = decode_protocol_frame(raw)
            except TimeoutError:
                continue
            except CommunicationError:
                return False
            kind = type(msg)
            if (cid is None) is not (kind in _CARRIERS):
                return False
            if cid is not None:
                self.server.stats.bump_pair("requests", "pipelined_requests")
            return self._run(self.server.handlers.get(kind), msg, cid, None, raw, None)
        return False

    def _run(self, row, msg, cid, envelope, raw, lane) -> bool:
        """Run *msg* where *row* says (no row: as read, where the server
        passes it on or answers what it is).  A carrier's member queues
        its lane request in the carrier's *lane* round."""
        where = row.where if row is not None else READER
        if where is LANE:
            entry = (msg, cid, envelope, raw)
            if lane is None:
                self._enqueue([entry], alone=True)
            else:
                lane.append(entry)
            return True
        if lane:
            # What the carrier queued so far goes ahead of what follows it.
            self._enqueue(lane[:])
            lane.clear()
        if where is READER and row is not None:
            return row.handler(self, msg, cid, envelope, raw)
        with self._lock:
            self._inflight += 1
        if row is None:
            self._serve(msg, cid, envelope, None, raw)
        else:
            self._spawn(self._serve, msg, cid, envelope, None, raw)
        return True

    def answer(self, msg, cid: int, envelope=None, handler=None, raw=None) -> bool:
        """Serve *msg* (read as *raw*) here by *handler* (its row's if None);
        its reply goes under *cid* when it comes, in flight until then."""
        with self._lock:
            self._inflight += 1
        self._serve(msg, cid, envelope, handler, raw)
        return True

    def _serve(self, msg, cid: int, envelope=None, handler=None, raw=None) -> None:
        self.server.serve(msg, envelope, partial(self._answered, cid), handler, raw)

    def _answered(self, cid: int, reply) -> None:
        """Send *reply* now, or with the carrier being read, if one is."""
        if type(reply) is not Reply:
            reply = self.server.failed(reply)
        if self._batch is not None:
            with self._lock:
                batch = self._batch
                if batch is not None:
                    batch.append((reply, cid))
                    self._inflight -= 1
                    return
        self._send_replies([(reply, cid)])
        self._settle(1)

    def _settle(self, n: int) -> None:
        """*n* requests in flight were answered."""
        with self._lock:
            self._inflight -= n
            if self._draining:
                self._idle.notify_all()

    def unpack_batch(self, batch: PipelineBatch, *_) -> bool:
        """Unpack one coalesced burst; False (undecodable) closes the session."""
        self.server.stats.bump("pipelined_batches")
        return self._unpack(batch.frames, None, None)

    def open_envelope(self, envelope: Envelope, *_) -> bool:
        """Run what a peer sent in *envelope*, once :meth:`Router.admit`
        lets it in (else each member is answered with the refusal).

        Each member runs where its row says, its lane members as one
        round, with the envelope as its context.  A member passed on, or
        one that may not ride an envelope, is served as read, where the
        server passes it on (or refuses it) — never on the lane, where a
        ring of relays could hold itself up.  The replies go back to the
        sending server's link, which answers each member's caller.
        """
        self.server.stats.bump_pair("pipelined_batches", "forwards_in")
        refused = self.server.guarded(self.server.router.admit, envelope)
        return self._unpack(envelope.frames, envelope, refused)

    def _unpack(self, frames: tuple, envelope, refused) -> bool:
        """Dispatch a carrier's frames, its lane requests as one round (a lone
        member as if it came alone); False closes the session (an
        undecodable, id-less or nested frame).  A *refused* envelope's
        members get that reply, unserved."""
        self.server.stats.bump_pair("requests", "pipelined_requests", len(frames))
        handlers = self.server.handlers
        relayed = envelope is not None and envelope.target_host != self.server.host
        many = len(frames) > 1 or refused is not None
        lane, batch = ([], []) if many else (None, None)
        self._batch = batch
        for raw in frames:
            try:
                msg, cid = decode_protocol_frame(raw)
            except ProtocolError:
                return False
            kind = type(msg)
            if cid is None or kind in _CARRIERS:
                return False
            if refused is not None:
                batch.append((refused, cid))
                continue
            row = handlers.get(kind)
            if envelope is not None and (
                row is None or not row.enveloped or (relayed and row.where is LANE)
            ):
                row = None
            if not self._run(row, msg, cid, envelope, raw, lane):
                return False
        if batch is None:
            return True
        with self._lock:
            self._batch = None
        if batch:
            self._send_replies(batch)
        if lane:
            self._enqueue(lane, alone=len(lane) == 1)
        return True

    def _enqueue(self, entries: list, alone: bool = False) -> None:
        """Queue lane requests, starting the lane if it is idle: right here
        on the reader for a request that is *alone* (on its own, or the
        only lane request of a carrier) with no whole frame buffered
        behind it (the inline rule), else on the lane's worker.  A lone
        request that finds the lane idle is its next round, never queued."""
        with self._lock:
            self._inflight += len(entries)
            if self._put_running or not alone:
                self._put_queue.extend(entries)
                if self._put_running:
                    return
                entries = []
            self._put_running = True
        if alone and not self.conn.frame_buffered():
            self._run_put_lane(entries)
        else:
            self._spawn(self._run_put_lane, entries)

    def _spawn(self, fn, *args) -> None:
        try:
            self.server.cache.submit(fn, *args)
        except ServerError:
            # The thread cache shut down under us (server stopping): run
            # inline, so counters settle and queued peers still get replies.
            fn(*args)

    # -- the put lane ----------------------------------------------------------

    def _run_put_lane(self, batch: list) -> None:
        """Serve the lane's rounds, *batch* first unless empty, until the
        lane is empty, or a round of one waits on a peer: its reply runs
        the lane on."""
        queue = self._put_queue
        while not batch or self._serve_round(batch):
            batch = []
            with self._lock:
                while queue and len(batch) < _LANE_BATCH_MAX:
                    batch.append(queue.popleft())
                if not batch:
                    self._put_running = False
                    return

    def _serve_round(self, batch: list) -> bool:
        """Serve one lane round; whether the lane goes on at once.

        A single request takes the audited route, as if it came alone; a
        reply that comes later holds the lane (:meth:`_lane_answered`).  A
        round of many, on the lane's worker, burst-forwards runs of remote
        puts (:meth:`_process_put_batch`), and has the replicator collect
        the copies its writes fan out and send them as one burst per chain
        member before any reply is emitted, so a write is copied before it
        is acknowledged.  Only an error sending them raises (the server
        stopping) replaces the round's acks.
        """
        if len(batch) == 1:
            msg, cid, envelope, raw = batch[0]
            turn = [None]
            self.server.serve(msg, envelope, partial(self._lane_answered, cid, turn), None, raw)
            with self._lock:
                if turn[0] is None:
                    turn[0] = False  # answered later: the answer runs the lane on
                    return False
            return True
        replicator = self.server.replicator
        try:
            replicator.collect_copies()
            try:
                replies = self._process_put_batch(batch)
            finally:
                sent = self.server.guarded(replicator.send_copies)
            if not sent.ok:
                replies = [(sent if reply.ok else reply, cid) for reply, cid in replies]
        except Exception as exc:  # noqa: BLE001 - a worker must always
            # reply AND keep the lane alive: an exception escaping here
            # would leave _put_running stuck True (no future round ever
            # spawns) and the peer waiting on ids that never resolve.
            replies = [(self.server.failed(exc), entry[1]) for entry in batch]
        try:
            self._send_replies(replies)
        finally:
            self._settle(len(batch))
        return True

    def _lane_answered(self, cid: int, turn: list, reply: Reply) -> None:
        """A round of one answered: reply, and run the lane on if its
        runner left it waiting (``turn`` False)."""
        self._send_replies([(self.server.failed(reply), cid)])
        with self._lock:
            self._inflight -= 1
            if self._draining:
                self._idle.notify_all()
            waited, turn[0] = turn[0] is False, True
            if waited and not self._put_queue:
                self._put_running = waited = False
        if waited:
            self._spawn(self._run_put_lane, [])

    def _process_put_batch(self, batch: list) -> list:
        """Serve a lane round of many, burst-forwarding runs of remote puts.

        Puts headed here and enveloped requests are served in place; puts
        headed by another directly linked host, at any replication
        factor, ride one :class:`Envelope` per ``(app, chain head)`` —
        the head serves them as one lane round, copies them on, and
        answers the client's own ids.  Entries the burst cannot resolve —
        connection failures, a head answering mid-teardown, a folder that
        migrated underneath the burst — take the server's full routing:
        suspicion, then fail-over to the next chain member.
        Batch order is preserved per folder: a folder's puts either all
        apply here or all belong to the same burst group, in index order.
        """
        router = self.server.router
        replies: list = [None] * len(batch)
        groups: dict = {}
        # Phase 1: decide each folder's route ONCE for the round.  A
        # re-registration or liveness flip mid-scan could split a folder's
        # puts between a burst and the inline path, which runs first, and
        # reorder them: such a folder takes the inline path for the round.
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
        for i, (msg, cid, envelope, raw) in enumerate(batch):
            target = decisions.get(getattr(msg, "folder", None))
            if envelope is not None or target is None:
                replies[i] = (self.server.handle(msg, envelope, raw), cid)
            else:
                groups.setdefault((msg.folder.app, target), []).append(i)
        bursts = self._run_burst_groups(batch, groups)
        for key, idxs in groups.items():
            for i, result in zip(idxs, bursts[key]):
                if result is None or retryable(result.error):
                    # Unresolved, or the owner was dying or the folder
                    # moved mid-burst: the slow path knows how to chase
                    # all three.
                    result = self.server.handle(batch[i][0], None, batch[i][3])
                replies[i] = (result, batch[i][1])
        return replies

    def _run_burst_groups(self, batch: list, groups: dict) -> dict:
        """Fire one burst per owner, all at once, and wait for them: a
        round touching K owners costs ~the slowest owner's round trip,
        not the sum."""
        bursts = []
        for (app, owner), idxs in groups.items():
            entries = [(batch[i][0], batch[i][3]) for i in idxs]
            self.server.stats.bump("forwards_out", len(entries))
            bursts.append((self.server.router.forward_burst, app, owner, entries))
        (results,) = wait_for(scatter, self.server.cache, bursts)
        return dict(zip(groups, results))

    # -- waiter table (parked GetWait service) ---------------------------------

    def get_wait(self, msg: GetWaitRequest, cid: int, envelope=None, *_) -> bool:
        """Serve one GetWait on the reader — never blocks.

        Parked or answered here, the correlated reply is immediate: a hit
        (folder had a memo), a parked acknowledgement (wait recorded in
        the table), or an error mapped exactly like any other handler's.
        A wait relayed to another host is answered by the owner's first
        answer instead — its hit, or else a parked acknowledgement — so
        nothing is sent here.  A parked wait holds no thread: its
        resolution is event-driven off the put path.
        """
        entry = ParkedWaiter(msg.waiter, msg.folder, msg.mode, msg.origin)
        entry.owed = cid
        attempt(self._park_new, entry, envelope, partial(self._parked, entry, cid))
        return True

    def _park_new(self, entry: ParkedWaiter, envelope, done) -> None:
        # Table entry goes in BEFORE the wait is parked anywhere: its
        # completion may fire from a concurrent put the instant it parks,
        # and must find the entry.  (The push may then legally overtake
        # the parked ack on the wire — the client routes by token, not
        # arrival order.)
        with self._lock:
            if entry.token in self._waiters:
                raise ProtocolError(
                    f"waiter token {entry.token} is already parked on this session"
                )
            self._waiters[entry.token] = entry
        self._park(entry, envelope, done)

    def _parked(self, entry: ParkedWaiter, cid: int, reply) -> None:
        """Where a new wait went: its GetWait's reply, unless it is owed."""
        if not isinstance(reply, Reply) or reply.found:
            with self._lock:
                if self._waiters.get(entry.token) is entry:
                    del self._waiters[entry.token]
            reply = reply if isinstance(reply, Reply) else self.server.failed(reply)
        elif reply is _OWED:  # counted active as it left (_relay)
            self.server.stats.bump("waiters_parked")
            return
        else:
            self.server.stats.bump_pair("waiters_parked", "waiters_active")
        self._send_replies([(reply, cid)])

    def _park(self, entry: ParkedWaiter, envelope, done) -> None:
        """Park *entry* wherever its folder is served — the one way to wait.

        The chain is walked as any request's is (the router's ``walk``):
        the first live member that is this host parks the wait in its own
        store (primary or, failed over, replica), any other has the wait
        sent on to it.  A wait a peer relayed here (*envelope*) is passed
        along its route or served where the peer aimed it, never
        re-routed.  ``done`` takes the reply.
        """
        router = self.server.router
        reg, chain, candidates = router.candidates(entry.folder)
        if envelope is not None:
            if envelope.target_host != self.server.host:
                self.server.stats.bump("forwards_relayed")
                self._relay(reg, envelope.target_host, entry, done, envelope.trail)
                return
            candidates = [router.chained_here(entry.folder, chain, "the relayed wait")]
        router.walk(
            reg, chain, candidates, entry.folder, self._park_here, self._relay, entry, done
        )

    def _relay(self, reg, target: str, entry: ParkedWaiter, then, trail=()) -> None:
        """Send *entry*'s wait on toward *target*; ``then`` takes
        ``_OWED`` while its GetWait's reply is owed, else (a re-park) the
        parked ack.

        Decided before the wait is on the link: from then on whoever reads
        the link — this thread too — may answer the id, even before this
        returns.  So a wait relayed from :meth:`get_wait` counts as
        active before it leaves.
        """
        if entry.owed is None:
            self.server.router.relay_wait(self, entry, reg, target, trail)
            then(_PARKED_ACK)
            return
        stats = self.server.stats
        stats.bump("waiters_active")
        try:
            self.server.router.relay_wait(self, entry, reg, target, trail)
        except BaseException:
            stats.bump("waiters_active", -1)
            raise
        then(_OWED)

    def _park_here(self, _reg, chain, sid: str, entry: ParkedWaiter, _done) -> Reply:
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
            return Reply(ok=True, found=True, payload=record.payload, folder=entry.folder)
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
        attempt(self._repark, entry, reason, stale, partial(self._reparked, entry))

    def _reparked(self, entry: ParkedWaiter, reply) -> None:
        if not isinstance(reply, Reply):
            reply = self.server.failed(reply)
        if not reply.ok:
            self.complete_waiter(entry, None, reply.error)
        elif reply.found:
            record = MemoRecord(payload=reply.payload, origin=entry.origin)
            self.complete_waiter(entry, record, None)
        elif not self._is_live(entry):
            # Cancelled while re-parking: the canceller detached the
            # old home; leave no waiter behind at the new one.
            entry.home.cancel_waiter(entry.folder, entry.handle)

    def _repark(self, entry: ParkedWaiter, reason: str, stale: bool, done) -> None:
        """Where a retryable end sends the wait: ``done`` takes a
        parked/hit reply from its new home, or the error to end it with."""
        entry.attempts += 1
        if entry.attempts > MIGRATION_RETRY_MAX:
            done(Reply(ok=False, error=f"folder {entry.folder} kept migrating; giving up"))
            return
        if stale:  # the same way again, on a fresh dial
            try:
                reg = self.server.router.registration(entry.folder.app)
                self._relay(reg, entry.target, entry, done, entry.trail)
                return
            except CommunicationError as exc:  # as a lost link's wait, then
                reason = f"shutdown: {exc}"
                if entry.trail:
                    done(Reply(ok=False, error=reason))
                    return
        if shutting_down(reason):
            # The member is stopping or unreachable.  Its data is on the
            # next chain member, as the chain walk treats it — and when
            # there is none, the client paces the retry toward its next
            # incarnation, as it does for its own server.
            if len(self.server.router.candidates(entry.folder)[1]) == 1:
                done(Reply(ok=False, error=reason))
                return
            self.server.router.suspect(entry.target)
        self._park(entry, None, done)

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
        """Re-deposit a memo a dead/cancelled waiter consumed (no losses);
        nothing waits for it, so it may run on a thread that reads."""
        if record is not None and entry.mode == "get":
            replicator = self.server.replicator
            replicator.redeposit(entry.folder, record, None, replicator.count_failure)

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

    def cancel_wait(self, msg: CancelWaitRequest, cid, *_) -> bool:
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
        correlated frame (a put ack's copied from a prebuilt one); of more,
        the :data:`PUT_ACK` ones go as one :class:`Acks` frame and each
        other reply as its own.

        Send failures are swallowed: the peer is gone and the replies are
        moot — the counters in the callers' ``finally`` blocks still
        settle, which is what the drain logic relies on.
        """
        try:
            if len(replies) == 1:
                reply, cid = replies[0]
                frame = put_ack_frame(cid) if reply is PUT_ACK else encode_message(reply, cid)
                self.conn.send(frame)
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
                ok=False, error="shutdown: server stopped before the request was served"
            )
            self._send_replies([(shut, e[1]) for e in stranded])
        deadline = time.monotonic() + grace
        with self._lock:
            self._draining = True
            while self._inflight and time.monotonic() < deadline:
                self._idle.wait(deadline - time.monotonic())
        self.conn.close()
