"""The memo server: one per machine, routing memos between processes.

"The memo servers are responsible for message routing between processes
(there is one memo server per machine). ... Each memo server listens for
connection requests from either other memo servers (inter-machine traffic)
or user applications.  As requests arrive, the server will create a thread
(if no cached thread is available) to handle the request while it goes back
to listening for more requests." (paper section 4.1)

Request life cycle:

1. An application process sends a request over its connection to the local
   memo server (Figure 1).
2. The serving thread (from the :class:`ThreadCache`) resolves the folder's
   owner via the application's :class:`FolderPlacement`.
3. Owned locally → direct call into the local :class:`FolderServer`.
   Owned remotely → the request is wrapped in a
   :class:`~repro.network.protocol.ForwardEnvelope` and sent to the *next
   hop* memo server on the cost-weighted shortest path (Figure 2); every
   hop relays the reply back.  No broadcasting, ever.

Every request receives exactly one :class:`~repro.network.protocol.Reply`
on its connection.  *When* it arrives depends on the framing: correlated
requests (version-2 compact frames) pipeline through a per-connection
worker set (:class:`_ConnectionSession`) and their tagged replies return
as the work completes — out of order, coalesced into
:class:`~repro.network.protocol.PipelineBatch` bursts — while id-less
requests keep the paper's strict request-by-request service.  Blocked
waiting is event-driven: a :class:`~repro.network.protocol.GetWaitRequest`
on an empty folder parks in the session's *waiter table* (one dict entry,
no thread) and resolves later through an unsolicited
:class:`~repro.network.protocol.MemoReady` /
:class:`~repro.network.protocol.WaitCancelled` push completed directly
off the put path — a million parked waiters cost a table, not a thread
pool.  That holds from any host: a wait for a folder served elsewhere is
sent on, inside a correlated :class:`~repro.network.protocol.ForwardEnvelope`
over one long-lived link per next hop
(:class:`~repro.servers.relay.RelayLink`), and parks in
the *owner's* table like everyone else's; its answer comes back on the
link as a message.  Strict sessions never receive pushes.  Puts ride one FIFO
queue per connection, so pipelining never reorders two puts to the same
folder, and runs of puts owned by a remote host are forwarded as one
:class:`~repro.network.protocol.BurstEnvelope` instead of one strict
round trip each.

Replication (``replication_factor > 1``): a folder's placement becomes an
ordered *replica chain* of distinct hosts.  The router walks the chain,
skipping hosts the local :class:`~repro.replication.failure.FailureDetector`
suspects, so reads land on a live backup when the primary dies; whichever
chain member accepts a write applies it locally and fans
:class:`~repro.network.protocol.ReplicatePut` copies out to the other live
members before acknowledging.  Backup copies live in per-server *replica*
folder servers, kept apart from primary data so ownership, migration, and
stats stay exact.  With the default factor of 1 every one of these paths
collapses to the paper's single-owner behaviour.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.core.keys import FolderName
from repro.core.memo import MemoRecord
from repro.errors import (
    CommunicationError,
    ConnectionClosedError,
    FolderMigratedError,
    HostDownError,
    MemoError,
    NotRegisteredError,
    ProtocolError,
    ReplicationError,
    RoutingError,
    ServerError,
    ShutdownError,
)
from repro.network.codec import (
    decode_message,
    encode_correlated_burst,
    encode_message,
    folder_intern_stats,
    split_correlated,
)
from repro.network.connection import Address, Connection, Transport
from repro.network.protocol import (
    AddressUpdate,
    BurstEnvelope,
    CancelWaitRequest,
    ForwardEnvelope,
    GetAltSkipRequest,
    GetRequest,
    GetWaitRequest,
    Heartbeat,
    MemoReady,
    MigrateRequest,
    PipelineBatch,
    PutDelayedRequest,
    PutRequest,
    RegisterRequest,
    DeltaSyncPull,
    ReplicatePut,
    Reply,
    ResyncRequest,
    ShutdownRequest,
    StatsRequest,
    WaitCancelled,
    decode_protocol_frame,
    recv_message,
    send_message,
)
from repro.durability.config import DurabilityConfig
from repro.durability.manager import DurabilityManager
from repro.network.routing import RoutingTable
from repro.replication.failure import FailureDetector, HeartbeatMonitor
from repro.replication.resync import Resyncer
from repro.servers.folder_server import FolderServer
from repro.servers.hashing import FolderPlacement, HashWeightPolicy, PlacementCache
from repro.servers.relay import ParkedWaiter, RelayLink
from repro.servers.threadcache import ThreadCache, scatter_join

__all__ = ["MemoServer", "MemoServerStats", "AppRegistration", "MEMO_PORT"]

#: Well-known memo server port on the logical network.
MEMO_PORT = 7094


@dataclass
class MemoServerStats:
    """Counters for the FIG1/FIG2 benches and stats replies."""

    requests: int = 0
    local_dispatches: int = 0
    forwards_out: int = 0
    forwards_relayed: int = 0
    forwards_in: int = 0
    registrations: int = 0
    errors: int = 0
    pipelined_requests: int = 0
    pipelined_batches: int = 0
    replications_out: int = 0
    replications_in: int = 0
    replication_failures: int = 0
    failover_dispatches: int = 0
    resync_returned: int = 0
    resync_reseeded: int = 0
    resync_reseed_skipped: int = 0
    #: Waiter-table gauges: parked is cumulative, active is the current
    #: table population across all sessions (incremented on park,
    #: decremented on completion/cancellation).
    waiters_parked: int = 0
    waiters_active: int = 0
    waiters_completed: int = 0
    waiters_cancelled: int = 0
    push_frames: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + by)

    def bump_pair(self, first: str, second: str) -> None:
        """Two increments, one lock round — for per-request hot paths."""
        with self._lock:
            setattr(self, first, getattr(self, first) + 1)
            setattr(self, second, getattr(self, second) + 1)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                k: getattr(self, k)
                for k in self.__dataclass_fields__
                if not k.startswith("_")
            }


@dataclass
class AppRegistration:
    """Everything a memo server knows about one registered application."""

    app: str
    routing: RoutingTable
    placement: FolderPlacement
    replication_factor: int = 1


#: Idle connections a pool keeps per destination; extras are closed.
_POOL_IDLE_CAP = 4


class _ConnectionPool:
    """Exclusive-use connection pool keyed by destination address.

    A forwarded request owns its connection for the full request/reply
    round (blocking gets can hold it for a long time); concurrent requests
    to the same next hop get their own connections, so there is no
    head-of-line blocking or deadlock.
    """

    def __init__(self, transport: Transport) -> None:
        self._transport = transport
        self._idle: dict[Address, list[Connection]] = {}
        self._lock = threading.Lock()
        self._closed = False

    def acquire(self, address: Address) -> tuple[Connection, bool]:
        """Returns ``(conn, reused)`` — reused means it came from the pool.

        A reused connection may be silently dead (its peer restarted); the
        caller retries such failures once on a fresh connection before
        concluding the host is down.
        """
        with self._lock:
            if self._closed:
                raise ShutdownError("connection pool is closed")
            bucket = self._idle.get(address)
            while bucket:
                conn = bucket.pop()
                if not conn.closed:
                    return conn, True
        return self._transport.connect(address), False

    def drop(self, address: Address) -> None:
        """Close every idle connection to *address* (peer died/restarted)."""
        with self._lock:
            bucket = self._idle.pop(address, [])
        for conn in bucket:
            conn.close()

    def release(self, address: Address, conn: Connection) -> None:
        if conn.closed:
            return
        with self._lock:
            if self._closed:
                conn.close()
                return
            bucket = self._idle.setdefault(address, [])
            if len(bucket) < _POOL_IDLE_CAP:
                bucket.append(conn)
                return
        conn.close()

    def discard(self, conn: Connection) -> None:
        conn.close()

    def close_all(self) -> None:
        with self._lock:
            self._closed = True
            buckets = list(self._idle.values())
            self._idle.clear()
        for bucket in buckets:
            for conn in bucket:
                conn.close()


#: Shared acknowledgement for accepted writes.  Reply is frozen, so one
#: instance serves every put — and identity-keyed burst encoding turns a
#: lane's worth of acks into one body encode (see ``_send_replies``).
_PUT_ACK = Reply(ok=True, found=True)

#: The ack's tag+body bytes (what :func:`split_correlated` exposes): a
#: burst-forwarded put whose reply matches these bytes can be relayed to
#: the client verbatim, no decode, no re-encode.
_PUT_ACK_TAGBODY = encode_message(_PUT_ACK)[3:]

#: Shared "your wait is parked" acknowledgement for GetWait requests
#: whose folder was empty: ok, nothing found *yet* — the resolution
#: arrives later as a MemoReady/WaitCancelled push.
_PARKED_ACK = Reply(ok=True, found=False)


#: How often one relayed wait may re-enter routing after a retryable end
#: before it fails — the bound ``_route_with_retry`` puts on a folder that
#: keeps moving.
_REPARK_MAX = 8


def _relayed_wait(envelope: ForwardEnvelope) -> GetWaitRequest | None:
    """The wait a peer relayed inside *envelope*, if that is what it holds."""
    try:
        inner = decode_message(envelope.inner)
    except MemoError:
        return None  # the worker path reports the undecodable inner
    return inner if isinstance(inner, GetWaitRequest) else None


#: Most requests the put worker drains per round; bounds reply-batch size
#: (and so peak reply-frame size) under a firehose producer.
_LANE_BATCH_MAX = 128

#: Deadline for each reply read of a burst-forward.  The strict path can
#: afford an unbounded reply wait (it wedges one request); a wedged burst
#: would stall its whole put lane, so a frozen owner must instead fail
#: the burst and send the unresolved puts down the audited retry path.
_BURST_REPLY_TIMEOUT = 30.0


class _ConnectionSession:
    """Pipelined service state for one inbound connection.

    The paper's server loop was strictly request/reply per connection:
    decode, handle, reply, repeat — so a client pipelining requests
    (deferred acks, ``put_many``) still paid one full server round per
    request.  A session splits that loop into a *reader* (this thread,
    from the accept path's :class:`ThreadCache` submit) and a
    per-connection *worker set*:

    * correlated requests (version-2 frames) are dispatched — puts onto
      the connection's one FIFO queue, drained by one worker (two puts
      on a connection can never reorder; one worker is the throughput
      sweet spot under the GIL, and cross-owner latency overlap comes
      from the worker firing its burst groups concurrently), everything
      else onto its own worker so a blocking ``get`` never stalls the
      puts pipelined behind it;
    * replies are sent as the workers complete — out of order, tagged
      with the request's correlation id, coalesced into
      :class:`PipelineBatch` frames when a burst completes together;
    * id-less requests (seed peers, forwarded envelopes, heartbeats) keep
      the exact strict request/reply behaviour: the reader waits for the
      put queue to drain (so a legacy request observes the pipelined
      writes that preceded it), handles inline, and replies untagged.

    On shutdown or connection loss the session *drains*: queued-but-
    unstarted requests are answered with a shutdown error (never silently
    dropped — an unanswered id would strand the peer's waiter), and
    in-flight workers get a bounded grace period before the connection
    closes.
    """

    __slots__ = (
        "server",
        "conn",
        "_lock",
        "_idle",
        "_put_queue",
        "_put_running",
        "_inflight_puts",
        "_inflight_other",
        "_waiters",
    )

    def __init__(self, server: "MemoServer", conn: Connection) -> None:
        self.server = server
        self.conn = conn
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._put_queue: deque = deque()
        self._put_running = False
        self._inflight_puts = 0
        self._inflight_other = 0
        #: The waiter table: parked GetWaits keyed by client-chosen token.
        self._waiters: dict[int, ParkedWaiter] = {}

    # -- reader ---------------------------------------------------------------

    def serve(self) -> None:
        server = self.server
        conn = self.conn
        try:
            while server._running.is_set():
                try:
                    raw = conn.recv(timeout=0.5)
                    msg, cid = decode_protocol_frame(raw)
                except TimeoutError:
                    continue
                except (ConnectionClosedError, ProtocolError):
                    return
                if isinstance(msg, PipelineBatch):
                    server.stats.bump("pipelined_batches")
                    if not self._dispatch_batch(msg):
                        return
                elif isinstance(msg, BurstEnvelope):
                    server.stats.bump("pipelined_batches")
                    if not self._dispatch_burst_envelope(msg):
                        return
                elif cid is None:
                    if not self._serve_legacy(msg):
                        return
                else:
                    server.stats.bump("requests")
                    server.stats.bump("pipelined_requests")
                    self._dispatch(msg, cid, raw)
        finally:
            self._drain_and_close()

    def _serve_legacy(self, msg: object) -> bool:
        """Strict request/reply for an id-less frame; False closes the session."""
        self.server.stats.bump("requests")
        # Pipelined puts already accepted on this connection must land
        # before a legacy request runs: the legacy peer believes its last
        # write completed when this one is served.  If the queue cannot
        # drain within the bound, serving anyway would silently reorder —
        # fail the request instead, like any other server-side error.
        if self._await_put_lanes():
            reply = self.server._handle(msg)
        else:
            self.server.stats.bump("errors")
            reply = Reply(
                ok=False,
                error="ServerError: pipelined puts still in flight; "
                "refusing to serve a strict request out of order",
            )
        try:
            send_message(self.conn, reply)
        except (ConnectionClosedError, CommunicationError):
            return False
        return True

    def _dispatch_batch(self, batch: PipelineBatch) -> bool:
        """Unpack one coalesced burst; False (undecodable) closes the session."""
        server = self.server
        n = len(batch.frames)
        server.stats.bump("requests", n)
        server.stats.bump("pipelined_requests", n)
        for raw in batch.frames:
            try:
                msg, cid = decode_protocol_frame(raw)
            except ProtocolError:
                return False
            if cid is None or isinstance(msg, PipelineBatch):
                # Inner frames must be correlated and batches do not nest;
                # a peer that violates either is talking a different
                # protocol, and the connection cannot be trusted further.
                return False
            self._dispatch(msg, cid, raw)
        return True

    def _dispatch_burst_envelope(self, burst: BurstEnvelope) -> bool:
        """Unwrap a peer's burst-forwarded puts into the put queue.

        One :class:`ForwardEnvelope` stand-in is built for the whole burst
        (the trail/ownership checks in ``_handle_envelope_inner`` read
        only its header fields), and each member frame keeps the
        *client's* correlation id — the replies this session emits go
        back to the forwarding server, which relays them verbatim.
        False closes the session: a burst not targeted here, or carrying
        anything but correlated puts, is a protocol violation.
        """
        server = self.server
        if burst.target_host != server.host:
            return False
        n = len(burst.frames)
        server.stats.bump("requests", n)
        server.stats.bump("pipelined_requests", n)
        shared = ForwardEnvelope(
            app=burst.app,
            target_host=burst.target_host,
            inner=b"",
            trail=burst.trail,
        )
        for raw in burst.frames:
            try:
                inner, cid = decode_protocol_frame(raw)
            except ProtocolError:
                return False
            if cid is None or not isinstance(
                inner, (PutRequest, PutDelayedRequest)
            ):
                return False
            self._enqueue_put((shared, cid, inner, None))
        return True

    def _enqueue_put(self, entry: tuple) -> None:
        """Queue one put, spawning the worker if it is idle (shared by
        direct and burst-unwrapped puts)."""
        with self._lock:
            self._put_queue.append(entry)
            self._inflight_puts += 1
            spawn = not self._put_running
            self._put_running = True
        if spawn:
            self._spawn(self._run_put_lane)

    # -- dispatch -------------------------------------------------------------

    def _dispatch(self, msg: object, cid: int, raw: bytes | None = None) -> None:
        # Puts ride the FIFO queue; GetWait/CancelWait — a client's own or
        # one a peer relays here inside a ForwardEnvelope — are
        # non-blocking by construction and served inline on the reader
        # (that inlining IS the waiter table's O(1)-thread property);
        # everything else gets its own worker so a blocking request
        # stalls nothing behind it.
        if isinstance(msg, (PutRequest, PutDelayedRequest)):
            self._enqueue_put((msg, cid, None, raw))
        elif isinstance(msg, GetWaitRequest):
            self._handle_get_wait(msg, cid)
        elif isinstance(msg, CancelWaitRequest):
            self._handle_cancel_wait(msg, cid)
        elif isinstance(msg, ForwardEnvelope) and (wait := _relayed_wait(msg)):
            self._handle_get_wait(wait, cid, msg)
        else:
            with self._lock:
                self._inflight_other += 1
            self._spawn(self._run_single, msg, cid)

    def _spawn(self, fn, *args) -> None:
        try:
            self.server._cache.submit(fn, *args)
        except ServerError:
            # The thread cache shut down under us (server stopping); run
            # inline so counters settle and queued peers still get replies
            # (the folder servers are already waking blocked waiters, so
            # nothing here can block the reader for long).
            fn(*args)

    # -- workers --------------------------------------------------------------

    def _safe_handle(self, msg: object) -> Reply:
        try:
            return self.server._handle(msg)
        except Exception as exc:  # noqa: BLE001 - a worker must always reply
            self.server.stats.bump("errors")
            return Reply(ok=False, error=f"internal error: {type(exc).__name__}: {exc}")

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
                    replies = self._process_put_batch(batch)
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
                    self._inflight_puts -= len(batch)
                    self._idle.notify_all()

    def _process_put_batch(self, batch: list) -> list:
        """Serve one lane round, burst-forwarding runs of remote puts.

        Local puts (and inbound forwarded puts this host owns) apply
        directly; puts owned by a single remote host are grouped per
        ``(app, owner)`` and forwarded as one :class:`BurstEnvelope`
        instead of one strict request/reply round trip each — the owner's
        acknowledgement frames come back tagged with the client's own ids
        and are relayed verbatim.  Entries the burst cannot resolve —
        connection failures, a peer answering mid-teardown, a folder that
        migrated underneath the burst — fall back to the full
        :meth:`MemoServer._route` machinery, which owns retry, suspicion,
        and fail-over policy.  Batch order is preserved per folder: a
        folder's puts either all apply here or all belong to the same
        burst group, in index order.
        """
        server = self.server
        replies: list = [None] * len(batch)
        groups: dict = {}
        # Phase 1: decide each folder's route ONCE for the whole round.
        # A re-registration or liveness flip landing mid-scan could make
        # _forward_target answer differently for two puts to the same
        # folder; since grouped entries execute after inline ones, a
        # split decision would reorder them.  A folder whose decision
        # flips mid-scan is demoted to the inline path for the entire
        # round — the audited _route serves any placement correctly, and
        # inline entries run in batch order.
        decisions: dict = {}
        for msg, _cid, inner, _raw in batch:
            if inner is not None:
                continue
            folder = msg.folder
            target = server._forward_target(msg)
            if folder not in decisions:
                decisions[folder] = target
            elif decisions[folder] != target:
                decisions[folder] = None
        # Phase 2: execute — inline in batch order, bursts collected.
        for i, (msg, cid, inner, _raw) in enumerate(batch):
            if inner is not None:
                replies[i] = (
                    server._guarded(server._handle_envelope_inner, msg, inner),
                    cid,
                )
                continue
            target = decisions[msg.folder]
            if target is None:
                replies[i] = (self._safe_handle(msg), cid)
            else:
                groups.setdefault((msg.folder.app, target), []).append(i)
        bursts = self._run_burst_groups(server, batch, groups)
        for (app, owner), idxs in groups.items():
            for i, result in zip(idxs, bursts[(app, owner)]):
                if isinstance(result, bytes):
                    # The owner's ack frame, already tagged with the
                    # client's correlation id: relay it untouched.
                    replies[i] = result
                    continue
                if isinstance(result, Reply) and not result.ok and (
                    result.error.startswith("shutdown:")
                    or "FolderMigratedError" in result.error
                ):
                    # The owner was dying or the folder moved mid-burst;
                    # the slow path knows how to chase both.
                    result = None
                if result is None:
                    result = self._safe_handle(batch[i][0])
                replies[i] = (result, batch[i][1])
        return replies

    def _run_burst_groups(self, server: "MemoServer", batch: list, groups: dict) -> dict:
        """Fire one burst per owner; independent owners' bursts overlap.

        Each group's round trip is pure waiting from this thread's point
        of view, so the groups scatter across thread-cache workers — a
        round touching K owners costs ~the slowest owner's round trip,
        not the sum.
        """
        bursts: dict = {}

        def one_group(key: tuple) -> None:
            app, owner = key
            entries = [(batch[i][0], batch[i][1], batch[i][3]) for i in groups[key]]
            try:
                bursts[key] = server._forward_put_burst(app, owner, entries)
            except Exception:  # noqa: BLE001 - burst is an optimistic path
                bursts[key] = [None] * len(entries)

        scatter_join(
            server._cache, [lambda key=key: one_group(key) for key in groups]
        )
        return bursts

    def _run_single(self, msg: object, cid: int) -> None:
        try:
            self._send_replies([(self._safe_handle(msg), cid)])
        finally:
            with self._lock:
                self._inflight_other -= 1
                self._idle.notify_all()

    # -- waiter table (parked GetWait service) ---------------------------------

    def _handle_get_wait(
        self, msg: GetWaitRequest, cid: int, envelope: ForwardEnvelope | None = None
    ) -> None:
        """Serve one GetWait inline on the reader — never blocks.

        The immediate correlated reply is a hit (folder had a memo), a
        parked acknowledgement (wait recorded in the table), or an error
        mapped exactly like any other handler's.  A parked wait holds no
        thread: its resolution is event-driven off the put path.
        """
        reply = self.server._guarded(self._get_wait_inner, msg, envelope)
        self._send_replies([(reply, cid)])

    def _get_wait_inner(
        self, msg: GetWaitRequest, envelope: ForwardEnvelope | None
    ) -> Reply:
        token = msg.waiter
        entry = ParkedWaiter(token, msg.folder, msg.mode, msg.origin)
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
        else:
            self.server.stats.bump_pair("waiters_parked", "waiters_active")
        return reply

    def _park(
        self, entry: ParkedWaiter, envelope: ForwardEnvelope | None = None
    ) -> Reply:
        """Park *entry* wherever its folder is served — the one way to wait.

        The chain is walked as :meth:`MemoServer._route` walks it: the
        first live member that is this host parks the wait in its own
        store (primary or, failed over, replica), any other has the wait
        sent on to it; a member that cannot be dialled is demoted and the
        next tried, a sole owner's failure raised.  A wait a peer relayed
        here (*envelope*) is served where the peer aimed it or passed
        along its route, never re-routed: two servers that briefly
        disagree on an owner must not bounce it between them, which is
        the refusal :meth:`MemoServer._handle_envelope_inner` makes.
        """
        server = self.server
        reg, chain, candidates = server._candidates(entry.folder)
        if envelope is not None:
            server.stats.bump("forwards_in")
            if server.host in envelope.trail:
                raise RoutingError(
                    f"routing loop: {server.host} already in trail {envelope.trail}"
                )
            if envelope.target_host != server.host:
                server.stats.bump("forwards_relayed")
                server._relay_wait(
                    self, entry, reg, envelope.target_host, envelope.trail
                )
                return _PARKED_ACK
            member = server._chain_entry(chain, server.host)
            if member is None:
                raise RoutingError(
                    f"folder {entry.folder} is not chained to {server.host} "
                    f"(chain {[h for _s, h in chain]}), but the relayed wait "
                    f"targeted it — inconsistent ADFs?"
                )
            candidates = [member]
        failures: list[str] = []
        for sid, host in candidates:
            if host == server.host:
                return self._park_here(entry, chain, sid)
            try:
                server._relay_wait(self, entry, reg, host, ())
                return _PARKED_ACK
            except CommunicationError as exc:
                if len(chain) == 1:
                    raise
                server._suspect(host)
                failures.append(f"{host}: {exc}")
        raise HostDownError(
            f"no reachable replica for {entry.folder} "
            f"(chain {[h for _s, h in chain]}): " + "; ".join(failures)
        )

    def _park_here(self, entry: ParkedWaiter, chain: tuple, sid: str) -> Reply:
        """Park *entry* in this host's own store for *chain*, or hit."""
        server = self.server
        if chain[0][1] != server.host:
            # Dead primary: serve the wait out of this host's replica
            # store, exactly as _dispatch_chain fails reads over.
            server.stats.bump("failover_dispatches")
        fs = server._store_for(chain, sid)
        entry.home, entry.handle = fs, None
        record, handle = fs.get_async(
            entry.folder,
            entry.mode,
            lambda rec, err: self._complete_waiter(entry, rec, err),
        )
        if handle is None:
            server.stats.bump("local_dispatches")
            return Reply(
                ok=True, found=True, payload=record.payload, folder=entry.folder
            )
        entry.handle = handle
        return _PARKED_ACK

    def _relay_ended(self, entry: ParkedWaiter, reason: str) -> None:
        """A relayed wait came back without a memo: re-park it, or say so.

        A retryable end — the folder migrated, the member is shutting
        down, the link was lost — sends the wait back through
        :meth:`_park` under the placement in force *now* (possibly into
        this host's own replica store): ``MemoClient._resubscribe_locked``
        one hop later, bounded like ``_route_with_retry``.  Only the
        server where the wait started re-routes; a relay hop hands the
        reason up the link it came from.
        """
        retryable = "FolderMigratedError" in reason or reason.startswith("shutdown:")
        if entry.trail or not retryable:
            self._complete_waiter(entry, None, reason)
            return
        with self._lock:
            live = self._waiters.get(entry.token) is entry
        if not live:
            return  # cancelled or torn down meanwhile: nothing to park
        reply = self.server._guarded(self._repark, entry, reason)
        if not reply.ok:
            self._complete_waiter(entry, None, reply.error)
        elif reply.found:
            record = MemoRecord(payload=reply.payload, origin=entry.origin)
            self._complete_waiter(entry, record, None)
        else:
            with self._lock:
                live = self._waiters.get(entry.token) is entry
            if not live:
                # Cancelled while re-parking: the canceller detached the
                # old home; leave no waiter behind at the new one.
                entry.home.cancel_waiter(entry.folder, entry.handle)

    def _repark(self, entry: ParkedWaiter, reason: str) -> Reply:
        """Where a retryable end sends the wait: a parked/hit reply from
        its new home, or the error to end it with."""
        server = self.server
        entry.attempts += 1
        if entry.attempts > _REPARK_MAX:
            return Reply(
                ok=False, error=f"folder {entry.folder} kept migrating; giving up"
            )
        if "FolderMigratedError" not in reason:
            # The member is stopping or unreachable.  Its data is on the
            # next chain member, as _route treats it — and when there is
            # none, the client paces the retry toward its next
            # incarnation, as it does for its own server.
            if len(server._candidates(entry.folder)[1]) == 1:
                return Reply(ok=False, error=reason)
            server._suspect(entry.target)
        return self._park(entry)

    def _complete_waiter(
        self, entry: ParkedWaiter, record: MemoRecord | None, error: str | None
    ) -> None:
        """Resolve one table entry into a push frame (from any thread).

        Runs on whatever thread completed the wait — a put lane here, a
        peer session's worker, the migration path, a relay link's reader.
        Exactly one resolution wins the table entry; a completion that
        finds its entry gone lost a cancellation/teardown race, and a
        consumed memo is then re-deposited so the race never loses data.
        """
        server = self.server
        with self._lock:
            live = self._waiters.get(entry.token) is entry
            if live:
                del self._waiters[entry.token]
        if not live:
            if record is not None and entry.mode == "get":
                self._requeue_record(entry, record)
            return
        server.stats.bump("waiters_active", -1)
        if error is None:
            server.stats.bump_pair("waiters_completed", "push_frames")
            push: object = MemoReady(
                waiter=entry.token, folder=entry.folder, payload=record.payload
            )
        else:
            server.stats.bump_pair("waiters_cancelled", "push_frames")
            push = WaitCancelled(waiter=entry.token, reason=error)
        try:
            send_message(self.conn, push)
        except (ConnectionClosedError, CommunicationError):
            # The peer is gone: close, so this session tears down and a
            # peer server still holding the other end re-parks what it
            # relayed here.  A consumed memo must not die with the push
            # — put it back.
            self.conn.close()
            if record is not None and entry.mode == "get":
                self._requeue_record(entry, record)

    def _requeue_record(self, entry: ParkedWaiter, record: MemoRecord) -> None:
        """Re-deposit a memo a dead/cancelled waiter consumed (no losses)."""
        try:
            reply = self.server._route_with_retry(
                entry.folder,
                PutRequest(
                    folder=entry.folder,
                    payload=record.payload,
                    origin=record.origin,
                ),
            )
            if not reply.ok:
                self.server.stats.bump("errors")
        except MemoError:
            self.server.stats.bump("errors")

    def _handle_cancel_wait(self, msg: CancelWaitRequest, cid: int) -> None:
        """Withdraw a parked wait; inline on the reader, non-blocking.

        ``found=False``: cancelled — the token's push will never come
        (a completion that raced us re-deposits its memo).  ``found=True``:
        too late — the wait already resolved and its push is on the wire.
        """
        with self._lock:
            entry = self._waiters.pop(msg.waiter, None)
        if entry is None:
            self._send_replies([(Reply(ok=True, found=True), cid)])
            return
        self.server.stats.bump("waiters_active", -1)
        self.server.stats.bump("waiters_cancelled")
        if entry.handle is not None:
            # Best-effort detach from the wait's home — the local store,
            # or the owner's table beyond a relay link; a completion
            # already in flight finds the table entry gone and requeues.
            entry.home.cancel_waiter(entry.folder, entry.handle)
        self._send_replies([(Reply(ok=True, found=False), cid)])

    def _send_replies(self, replies: list) -> None:
        """Emit completed replies, coalescing a burst into one batch frame.

        Each entry is either a ``(reply, corr_id)`` pair to encode, or a
        ready-made frame (``bytes``) relayed from a burst-forward's owner
        — already tagged with the right id, sent verbatim.

        Send failures are swallowed: the peer is gone and the replies are
        moot — the counters in the callers' ``finally`` blocks still
        settle, which is what the drain logic relies on.
        """
        try:
            if len(replies) == 1:
                entry = replies[0]
                if isinstance(entry, bytes):
                    self.conn.send(entry)
                else:
                    send_message(self.conn, entry[0], corr_id=entry[1])
                return
            pairs = [e for e in replies if not isinstance(e, bytes)]
            encoded = iter(encode_correlated_burst(pairs))
            frames = tuple(
                e if isinstance(e, bytes) else next(encoded) for e in replies
            )
            send_message(self.conn, PipelineBatch(frames))
        except (ConnectionClosedError, CommunicationError):
            pass

    # -- draining -------------------------------------------------------------

    def _await_put_lanes(self, timeout: float = 30.0) -> bool:
        """Wait (bounded) until every accepted put has been applied."""
        deadline = time.monotonic() + timeout
        with self._lock:
            while self._inflight_puts:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def _drain_and_close(self, grace: float = 2.0) -> None:
        """Orderly session teardown: answer queued work, wait for in-flight.

        Requests decoded but not yet started are answered with a shutdown
        error so the peer can fail them promptly instead of waiting on ids
        that would never resolve; workers already running get *grace*
        seconds to finish (their replies still go out if the connection
        lives), then the connection closes either way.
        """
        stranded: list = []
        with self._lock:
            stranded.extend(self._put_queue)
            self._put_queue.clear()
            self._inflight_puts -= len(stranded)
            waiters = list(self._waiters.values())
            self._waiters.clear()
        # Detach parked waits: no pushes (the peer is gone), but they
        # must leave their homes — the local store, or the owner's table
        # beyond a relay link — or the folders would stay pinned alive by
        # dead waiters forever.  A completion racing this teardown finds
        # its table entry gone and requeues any consumed memo.
        for entry in waiters:
            self.server.stats.bump("waiters_active", -1)
            self.server.stats.bump("waiters_cancelled")
            if entry.handle is not None:
                entry.home.cancel_waiter(entry.folder, entry.handle)
        if stranded and not self.conn.closed:
            shut = Reply(
                ok=False,
                error="shutdown: server stopped before the request was served",
            )
            self._send_replies([(shut, cid) for _msg, cid, _inner, _raw in stranded])
        deadline = time.monotonic() + grace
        with self._lock:
            while self._inflight_puts or self._inflight_other:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._idle.wait(remaining)
        self.conn.close()


class MemoServer:
    """The per-host memo server.

    Args:
        host: logical host name (from the ADF HOSTS section).
        transport: medium to listen/connect on.
        address_book: logical host name → memo-server address.  The cluster
            fills it in after all listeners are bound (needed for TCP where
            ports are dynamic); for the in-memory fabric it is simply
            ``Address(host, MEMO_PORT)`` for every host.
        idle_timeout: thread-cache idle timer (section 4.1).
        policy: hash-weight policy for folder placement (ablation knob).
        listen_port: port to bind; defaults to :data:`MEMO_PORT` (use 0 for
            OS-assigned TCP ports).
        heartbeat_interval: seconds between failure-detector probe rounds
            (the monitor only runs once an application registers with
            ``replication_factor > 1``).
        failure_threshold: consecutive missed probes before a peer is
            suspected dead.
    """

    def __init__(
        self,
        host: str,
        transport: Transport,
        address_book: dict[str, Address] | None = None,
        idle_timeout: float = 2.0,
        policy: HashWeightPolicy | None = None,
        listen_port: int = MEMO_PORT,
        heartbeat_interval: float = 0.1,
        failure_threshold: int = 3,
        durability: DurabilityConfig | None = None,
    ) -> None:
        self.host = host
        self.transport = transport
        self.address_book = address_book if address_book is not None else {}
        self.policy = policy
        self.stats = MemoServerStats()
        #: When configured, every folder store journals to a per-store WAL
        #: under ``<data_dir>/<host>/`` and recovers from it at
        #: registration time (see :mod:`repro.durability`).
        self.durability = (
            DurabilityManager(host, durability) if durability is not None else None
        )
        #: Epoch-guarded (app, folder) -> (chain, live candidates) routing
        #: cache; bumped by registration, migration, and liveness flips.
        self.placement_cache = PlacementCache()
        self.failure = FailureDetector(
            threshold=failure_threshold,
            on_transition=self._on_liveness_change,
        )
        self._registrations: dict[str, AppRegistration] = {}
        self._folder_servers: dict[str, FolderServer] = {}
        #: Backup copies, keyed by the *local* folder-server id named in a
        #: folder's replica chain.  Kept apart from the primary stores so
        #: ownership checks, migration, and live-memo counts stay exact.
        self._replica_servers: dict[str, FolderServer] = {}
        #: An LSN no store of a dead prior incarnation reached, set by
        #: the backend on a respawn.  Log-less stores (no WAL to replay)
        #: resume their clocks past it when they materialize at
        #: registration.
        self.lsn_rebase = 0
        self._reg_lock = threading.Lock()
        self._cache = ThreadCache(idle_timeout, name=f"memo-{host}")
        self._pool = _ConnectionPool(transport)
        #: Next hop -> the link carrying every wait relayed that way.
        self._relay_links: dict[str, RelayLink] = {}
        self._relay_lock = threading.Lock()
        #: Server-scoped relay tokens (and cancel correlation ids).
        self._relay_ids = itertools.count(1)
        self._listener = transport.listen(Address(host, listen_port))
        self.address_book.setdefault(host, self._listener.address)
        self._accept_thread: threading.Thread | None = None
        self._running = threading.Event()
        self._monitor = HeartbeatMonitor(
            host,
            transport,
            self.address_book,
            self.failure,
            interval=heartbeat_interval,
        )
        self._stop_lock = threading.Lock()
        self._stopped = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> Address:
        """Where applications and peer servers connect."""
        return self._listener.address

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` ran (including via :class:`ShutdownRequest`)."""
        return self._stopped

    def start(self) -> None:
        """Begin accepting connections."""
        if self._stopped:
            raise ServerError(
                f"memo server {self.host} was stopped; create a new instance"
            )
        if self._running.is_set():
            raise ServerError(f"memo server {self.host} already started")
        self._running.set()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"memo-{self.host}-accept", daemon=True
        )
        self._accept_thread.start()

    def stop(self) -> None:
        """Shut down: wake blocked getters, close listener and pool.

        Idempotent and race-free: concurrent callers (e.g. a
        :class:`ShutdownRequest`'s daemon thread racing a direct
        ``stop()``) are serialized on a once-flag, and the accept thread
        is joined so no late connection slips past the teardown.
        """
        with self._stop_lock:
            if self._stopped:
                return
            self._stopped = True
        self._running.clear()
        self._monitor.stop()
        # Relayed waits end as a store's own do: with a shutdown: reason,
        # so their clients re-subscribe at the next incarnation.
        with self._relay_lock:
            links = list(self._relay_links.values())
        for link in links:
            for session, entry in link.retire():
                session._complete_waiter(
                    entry, None, "shutdown: server stopping; relayed wait ended"
                )
        with self._reg_lock:
            folder_servers = list(self._folder_servers.values())
            folder_servers += list(self._replica_servers.values())
        for fs in folder_servers:
            fs.shutdown()
        if self.durability is not None:
            # Orderly shutdown: every journaled record reaches the platter,
            # so a clean stop/start round loses nothing even at fsync=none.
            self.durability.close()
        self._listener.close()
        self._pool.close_all()
        self._cache.shutdown()
        thread = self._accept_thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=2.0)

    def _accept_loop(self) -> None:
        while self._running.is_set():
            try:
                conn = self._listener.accept(timeout=0.5)
            except TimeoutError:
                continue
            except ConnectionClosedError:
                break
            try:
                self._cache.submit(self._serve_connection, conn)
            except ServerError:  # stop() raced us: the cache just shut down
                conn.close()
                break

    # -- connection service -----------------------------------------------------

    def _serve_connection(self, conn: Connection) -> None:
        """Serve one connection until it closes (see :class:`_ConnectionSession`).

        Correlated requests pipeline across a per-connection worker set
        with out-of-order tagged replies; id-less requests keep the
        paper's strict request/reply loop byte-for-byte.
        """
        _ConnectionSession(self, conn).serve()

    def _handle(self, msg: object) -> Reply:
        return self._guarded(self._handle_inner, msg)

    def _guarded(self, fn, *args) -> Reply:
        """Run a handler, mapping the protocol's failure modes to replies.

        Shared by the strict path (:meth:`_handle`) and the pipelined
        session's workers, so a request fails with the same error text
        whichever path served it.
        """
        try:
            return fn(*args)
        except ShutdownError as exc:
            return Reply(ok=False, error=f"shutdown: {exc}")
        except HostDownError as exc:
            self.stats.bump("errors")
            return Reply(ok=False, error=f"host down: {exc}")
        except (NotRegisteredError, RoutingError, ServerError, ProtocolError) as exc:
            self.stats.bump("errors")
            return Reply(ok=False, error=f"{type(exc).__name__}: {exc}")
        except CommunicationError as exc:
            self.stats.bump("errors")
            return Reply(ok=False, error=f"communication failure: {exc}")

    def _handle_inner(self, msg: object) -> Reply:
        if isinstance(msg, (GetWaitRequest, CancelWaitRequest)):
            # Reached only off a strict (id-less) frame: a peer with no
            # demultiplexer could never route the push frames a parked
            # wait resolves through — legacy sessions stay push-free.
            raise ProtocolError(
                f"{type(msg).__qualname__} requires a correlated "
                f"(pipelined) session; strict peers must use GetRequest"
            )
        if isinstance(msg, RegisterRequest):
            return self._handle_register(msg)
        if isinstance(msg, ForwardEnvelope):
            return self._handle_envelope(msg)
        if isinstance(msg, (PutRequest, PutDelayedRequest, GetRequest)):
            return self._route_with_retry(msg.folder, msg)
        if isinstance(msg, GetAltSkipRequest):
            return self._handle_get_alt(msg)
        if isinstance(msg, MigrateRequest):
            return self._handle_migrate(msg)
        if isinstance(msg, ReplicatePut):
            return self._handle_replicate(msg)
        if isinstance(msg, Heartbeat):
            # Hearing from a host is itself proof of life.
            if msg.host:
                self.failure.mark_alive(msg.host)
            return Reply(ok=True)
        if isinstance(msg, DeltaSyncPull):
            return self._handle_delta_sync(msg)
        if isinstance(msg, StatsRequest):
            return Reply(ok=True, stats=self._collect_stats())
        if isinstance(msg, AddressUpdate):
            return self._handle_address_update(msg)
        if isinstance(msg, ResyncRequest):
            return self._handle_resync_request(msg)
        if isinstance(msg, ShutdownRequest):
            threading.Thread(target=self.stop, daemon=True).start()
            return Reply(ok=True)
        raise ProtocolError(f"unhandled message {type(msg).__qualname__}")

    # -- registration (section 4.4) ------------------------------------------------

    def _handle_register(self, msg: RegisterRequest) -> Reply:
        routing = RoutingTable(
            {src: dict(nbrs) for src, nbrs in msg.links.items()},
            hosts=list(msg.host_costs),
        )
        placement = FolderPlacement(
            [(sid, host) for sid, host in msg.folder_servers],
            host_power=dict(msg.host_costs),
            routing=routing,
            policy=self.policy,
            replication_factor=msg.replication_factor,
        )
        with self._reg_lock:
            self._registrations[msg.app] = AppRegistration(
                msg.app, routing, placement, msg.replication_factor
            )
            # Materialize folder servers placed on this host (shared across
            # applications: identity is the server id, data is disjoint
            # because folder names are app-qualified).
            for sid, host in msg.folder_servers:
                if host == self.host and sid not in self._folder_servers:
                    self._folder_servers[sid] = self._make_folder_server(sid)
            if msg.replication_factor > 1:
                # Stores are shared across applications: one materialized
                # earlier for an unreplicated app must start stamping
                # origin coordinates now that replicated data can land in
                # it (the flag only ever flips on).
                for fs in self._folder_servers.values():
                    fs.track_origins = True
        if self.durability is not None:
            # Replica stores with on-disk state are materialized eagerly so
            # a cold-started backup can serve fail-overs (and answer
            # delta-sync pulls) from its recovered copies at once.
            for sid in self.durability.on_disk_replica_sids():
                self._replica_server(sid)
        self.placement_cache.bump()  # new placement inputs: old routes are void
        self.stats.bump("registrations")
        # Failure detection only matters (and only costs traffic) once some
        # application actually replicates.
        if msg.replication_factor > 1 and self._running.is_set():
            self._monitor.start()
        return Reply(ok=True)

    def _on_liveness_change(self, host: str, alive: bool) -> None:
        """A peer flipped alive <-> dead: cached candidate lists are void."""
        self.placement_cache.bump()

    def registration(self, app: str) -> AppRegistration:
        # Lock-free read: dict lookups are atomic under the GIL, and a
        # racing re-registration just means this request sees either the
        # old or the new registration — both were valid an instant apart.
        reg = self._registrations.get(app)
        if reg is None:
            raise NotRegisteredError(
                f"application {app!r} is not registered with memo server {self.host}"
            )
        return reg

    # -- dynamic data migration -------------------------------------------------

    def _handle_migrate(self, msg: MigrateRequest) -> Reply:
        """Move locally held folders whose owner changed at re-registration.

        For every local folder server, folders belonging to *msg.app* whose
        current placement names a *different* (server, host) are extracted
        and their memos re-deposited through ordinary routing — no special
        transfer channel, "dynamic data migration" is just puts.
        """
        reg = self.registration(msg.app)
        self.placement_cache.bump()  # contents are moving: drop cached routes
        with self._reg_lock:
            folder_servers = dict(self._folder_servers)
        moved_memos = 0
        moved_folders = 0
        for sid, fs in folder_servers.items():
            def should_move(name: FolderName, sid: str = sid) -> bool:
                if name.app != msg.app:
                    return False
                new_sid, new_host = reg.placement.place_host(name)
                return new_sid != sid or new_host != self.host

            for name, memos, delayed in fs.extract_folders(should_move):
                moved_folders += 1
                for record in memos:
                    moved_memos += 1
                    reply = self._route(
                        name,
                        PutRequest(
                            folder=name, payload=record.payload, origin=record.origin
                        ),
                    )
                    if not reply.ok:
                        return Reply(
                            ok=False,
                            error=f"migration of {name} failed: {reply.error}",
                        )
                for record, release_to in delayed:
                    moved_memos += 1
                    reply = self._route(
                        name,
                        PutDelayedRequest(
                            folder=name,
                            release_to=release_to,
                            payload=record.payload,
                            origin=record.origin,
                        ),
                    )
                    if not reply.ok:
                        return Reply(
                            ok=False,
                            error=f"migration of delayed {name} failed: {reply.error}",
                        )
        # Replica copies whose chain no longer lists this host are stale:
        # the primary's own migration re-deposited (and re-fanned-out) the
        # data, so the leftover copies are dropped, not re-routed.
        dropped = 0
        with self._reg_lock:
            replica_servers = dict(self._replica_servers)
        for sid, fs in replica_servers.items():
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

    def _emit_put(self, folder: FolderName, record: MemoRecord) -> None:
        """Route a delayed-release put whose target folder lives elsewhere."""
        reply = self._route(
            folder, PutRequest(folder=folder, payload=record.payload, origin=record.origin)
        )
        if not reply.ok:
            self.stats.bump("errors")

    # -- routing (sections 4.1 and 5, plus replica-chain fail-over) ------------------

    def _suspect(self, host: str) -> None:
        """Declare *host* dead and flush idle connections to it."""
        self.failure.mark_dead(host)
        address = self.address_book.get(host)
        if address is not None:
            self._pool.drop(address)

    def _route_with_retry(self, folder: FolderName, msg: object) -> Reply:
        """Route, transparently re-routing when the folder migrates.

        A blocked get whose folder is rebalanced away wakes with
        :class:`FolderMigratedError` (locally as the exception, remotely
        as an error reply); the placement in force *now* names the
        folder's new home, so the request simply re-enters routing and
        re-blocks there.  Bounded to catch pathological ping-ponging.
        """
        for _attempt in range(8):
            try:
                reply = self._route(folder, msg)
            except FolderMigratedError:
                continue
            if not reply.ok and "FolderMigratedError" in reply.error:
                continue
            return reply
        return Reply(
            ok=False, error=f"folder {folder} kept migrating; giving up"
        )

    def _candidates(
        self, folder: FolderName
    ) -> tuple[AppRegistration, tuple, list]:
        """The registration, replica chain, and live candidates for *folder*.

        Epoch is read BEFORE any routing input (registration, liveness):
        the stamp must predate everything the computation reads, so a
        re-registration or liveness flip landing mid-computation bumps
        past the stamp and the stale publish is rejected.
        """
        epoch = self.placement_cache.epoch
        reg = self.registration(folder.app)
        cache_key = (folder.app, folder.canonical())
        cached = self.placement_cache.get(cache_key)
        if cached is None:
            chain = reg.placement.replica_chain(folder)
            candidates = [c for c in chain if self.failure.is_alive(c[1])]
            if not candidates:
                candidates = list(chain)
            self.placement_cache.put(cache_key, epoch, (chain, candidates))
        else:
            chain, candidates = cached
        return reg, chain, candidates

    def _route(self, folder: FolderName, msg: object) -> Reply:
        """Serve *msg* at the first reachable member of *folder*'s chain.

        With ``replication_factor=1`` the chain is exactly the single
        owner, and this walks the seed code path: local dispatch or one
        forward, errors propagated unchanged.  With a longer chain,
        suspected hosts are skipped up front (unless *every* member is
        suspected, in which case each is tried — a wholly-suspected chain
        usually means the detector is stale, not the cluster gone), and a
        connection failure or shutdown reply marks the host dead and falls
        through to the next member.

        The chain + live-candidate decision is memoized in the epoch-guarded
        :class:`~repro.servers.hashing.PlacementCache` — steady-state
        routing is one dict hit instead of K salted hashes per request.
        """
        reg, chain, candidates = self._candidates(folder)
        failures: list[str] = []
        for index, (sid, host) in enumerate(candidates):
            last = index == len(candidates) - 1
            if host == self.host:
                self.stats.bump("local_dispatches")
                return self._dispatch_chain(reg, chain, sid, msg)
            self.stats.bump("forwards_out")
            try:
                reply = self._forward(reg, host, msg)
            except CommunicationError as exc:
                if len(chain) == 1:
                    raise
                self._suspect(host)
                failures.append(f"{host}: {exc}")
                if last:
                    break
                continue
            if not reply.ok and reply.error.startswith("shutdown:") and not last:
                # The member answered mid-teardown; its data is on the
                # next chain member, so treat it like a dead host.
                self._suspect(host)
                failures.append(f"{host}: {reply.error}")
                continue
            return reply
        raise HostDownError(
            f"no reachable replica for {folder} "
            f"(chain {[h for _s, h in chain]}): " + "; ".join(failures)
        )

    def _forward(self, reg: AppRegistration, owner_host: str, msg: object) -> Reply:
        # The envelope carries the inner request's already-encoded bytes —
        # a compact frame inside a compact frame, never a second graph
        # linearization pass.
        envelope = ForwardEnvelope(
            app=reg.app,
            target_host=owner_host,
            inner=encode_message(msg),
            trail=(self.host,),
        )
        return self._send_envelope(reg, envelope)

    def _send_envelope(self, reg: AppRegistration, envelope: ForwardEnvelope) -> Reply:
        next_hop = reg.routing.next_hop(self.host, envelope.target_host)
        address = self.address_book.get(next_hop)
        if address is None:
            raise RoutingError(f"no address known for host {next_hop!r}")
        retried = False
        while True:
            conn, reused = self._pool.acquire(address)
            try:
                send_message(conn, envelope)
                reply = recv_message(conn)
            except (ConnectionClosedError, TimeoutError) as exc:
                self._pool.discard(conn)
                if reused and not retried:
                    # A pooled connection can be silently dead (the peer
                    # restarted since it idled); flush the bucket and try
                    # once on a provably fresh connection before deciding
                    # the host itself is down.
                    self._pool.drop(address)
                    retried = True
                    continue
                raise CommunicationError(
                    f"forward to {envelope.target_host} via {next_hop} failed: {exc}"
                ) from exc
            if (
                reused
                and not retried
                and isinstance(reply, Reply)
                and not reply.ok
                and reply.error.startswith("shutdown:")
            ):
                # A zombie serving thread of a dead incarnation can answer
                # one last request on a pooled connection with a shutdown
                # error while a restarted server is already healthy at the
                # same address — same staleness, different symptom.
                self._pool.discard(conn)
                self._pool.drop(address)
                retried = True
                continue
            break
        self._pool.release(address, conn)
        if not isinstance(reply, Reply):
            raise ProtocolError(
                f"expected Reply from {next_hop}, got {type(reply).__qualname__}"
            )
        return reply

    def _relay_wait(
        self,
        session: _ConnectionSession,
        entry: ParkedWaiter,
        reg: AppRegistration,
        target: str,
        trail: tuple[str, ...],
    ) -> None:
        """Send *entry*'s wait on toward *target*, to park in its table.

        The continuation is shipped to the host that owns the data and
        the result comes back as a message; no thread waits on either
        side.  The wait rides a correlated :class:`ForwardEnvelope` over
        the link to the next hop, so a multi-hop topology relays it hop
        by hop — and refuses a routing loop — exactly as it does any
        forward.  Raises only before the wait is on a link (no route, the
        next hop cannot be dialled, this server is stopping); after that
        its fate is the link reader's.
        """
        next_hop = reg.routing.next_hop(self.host, target)
        token = next(self._relay_ids)
        entry.target, entry.trail = target, trail
        with self._relay_lock:
            link = self._relay_links.get(next_hop)
            if link is None or not link.add(token, session, entry):
                link = self._open_relay_link(next_hop)
                if not link.add(token, session, entry):
                    raise ConnectionClosedError(
                        f"relay link to {next_hop} was lost as it opened"
                    )
        self.stats.bump("forwards_out")
        wait = GetWaitRequest(
            folder=entry.folder, mode=entry.mode, waiter=token, origin=entry.origin
        )
        link.send(
            ForwardEnvelope(
                app=reg.app,
                target_host=target,
                inner=encode_message(wait),
                trail=trail + (self.host,),
            ),
            token,
        )

    def _open_relay_link(self, next_hop: str) -> RelayLink:
        """Dial *next_hop* and start the link's reader (``_relay_lock`` held)."""
        if not self._running.is_set():
            raise ShutdownError("server stopping; wait not relayed")
        address = self.address_book.get(next_hop)
        if address is None:
            raise RoutingError(f"no address known for host {next_hop!r}")
        link = RelayLink(
            next_hop, self.transport.connect(address), self._relay_ids, self.host
        )
        try:
            self._cache.submit(link.serve)
        except ServerError:  # stop() raced us: the cache just shut down
            link.conn.close()
            raise ShutdownError("server stopping; wait not relayed") from None
        self._relay_links[next_hop] = link
        return link

    def _forward_target(self, msg: PutRequest | PutDelayedRequest) -> str | None:
        """The single remote owner a pipelined put can burst-forward to.

        None means the put must take the full :meth:`_route` path: local
        ownership, a replica chain (fan-out and chain walking belong to
        the audited route), a multi-hop topology (a relay serves each
        envelope on its own worker, which would reorder same-folder
        puts), or a missing registration/address (let the slow path
        produce its usual error).
        """
        try:
            reg, chain, candidates = self._candidates(msg.folder)
            if len(chain) != 1:
                return None
            host = candidates[0][1]
            if host == self.host:
                return None
            if reg.routing.next_hop(self.host, host) != host:
                return None
        except MemoError:
            # Unknown app, unroutable host, bad topology... — whatever it
            # is, the audited slow path knows how to turn it into the
            # right error reply; the fast path only answers "yes, one
            # healthy remote owner, directly linked".
            return None
        if self.address_book.get(host) is None:
            return None
        return host

    def _forward_put_burst(
        self, app: str, owner_host: str, entries: list
    ) -> list:
        """Forward a run of puts to *owner_host* as one :class:`BurstEnvelope`.

        *entries* are ``(message, corr_id, raw_frame_or_None)`` triples;
        the client's raw correlated frames travel verbatim (a forwarded
        put is never re-encoded — the ids are unique within the burst
        because they came from one client connection), and the owner's
        replies come back tagged with those same ids.

        Returns one result per entry:

        * ``bytes`` — the owner's acknowledgement frame, byte-identical
          to what the client expects; the caller relays it untouched;
        * :class:`Reply` — a decoded non-ack reply (error, found-flag);
        * ``None`` — unresolved (connection failure, pool shutdown); the
          caller re-routes through the full :meth:`_route` machinery.

        A stale pooled connection is retried once on a provably fresh
        one, mirroring :meth:`_send_envelope`; resends keep at-least-once
        semantics (duplicates possible, never losses).
        """
        address = self.address_book.get(owner_host)
        if address is None:
            return [None] * len(entries)
        frames = {}
        index_of = {}
        for i, (msg, cid, raw) in enumerate(entries):
            if raw is None:
                raw = encode_message(msg, corr_id=cid)
            frames[cid] = raw
            index_of[cid] = i
        self.stats.bump("forwards_out", len(entries))
        results: list = [None] * len(entries)
        unresolved = set(index_of)

        def absorb(raw_reply: bytes) -> None:
            split = split_correlated(raw_reply)
            if split is None:
                return  # id-less frame: not a burst reply, skip
            cid, tagbody = split
            if cid not in unresolved:
                return
            if tagbody == _PUT_ACK_TAGBODY:
                results[index_of[cid]] = raw_reply
            else:
                reply, _ = decode_protocol_frame(raw_reply)
                if not isinstance(reply, Reply):
                    return
                results[index_of[cid]] = reply
            unresolved.discard(cid)

        retried = False
        while unresolved:
            try:
                conn, reused = self._pool.acquire(address)
            except ShutdownError:
                break
            try:
                pending = [frames[cid] for cid in sorted(unresolved)]
                send_message(
                    conn,
                    BurstEnvelope(
                        app=app,
                        target_host=owner_host,
                        frames=tuple(pending),
                        trail=(self.host,),
                    ),
                )
                while unresolved:
                    data = conn.recv(timeout=_BURST_REPLY_TIMEOUT)
                    msg_, _cid = decode_protocol_frame(data)
                    if isinstance(msg_, PipelineBatch):
                        for raw_reply in msg_.frames:
                            absorb(raw_reply)
                    else:
                        absorb(data)
            except (ConnectionClosedError, TimeoutError, ProtocolError):
                self._pool.discard(conn)
                if reused and not retried:
                    self._pool.drop(address)
                    retried = True
                    continue
                break
            self._pool.release(address, conn)
            break
        return results

    def _handle_envelope(self, envelope: ForwardEnvelope) -> Reply:
        return self._handle_envelope_inner(envelope, decode_message(envelope.inner))

    def _handle_envelope_inner(
        self, envelope: ForwardEnvelope, inner: object
    ) -> Reply:
        if self.host in envelope.trail:
            self.stats.bump("forwards_in")
            raise RoutingError(
                f"routing loop: {self.host} already in trail {envelope.trail}"
            )
        if envelope.target_host == self.host:
            if isinstance(inner, (PutRequest, PutDelayedRequest, GetRequest)):
                self.stats.bump_pair("forwards_in", "local_dispatches")
                reg, chain, _candidates = self._candidates(inner.folder)
                entry = self._chain_entry(chain, self.host)
                if entry is None:
                    raise RoutingError(
                        f"folder {inner.folder} is not chained to {self.host} "
                        f"(chain {[h for _s, h in chain]}), but the envelope "
                        f"targeted it — inconsistent ADFs?"
                    )
                return self._dispatch_chain(reg, chain, entry[0], inner)
            self.stats.bump("forwards_in")
            if isinstance(inner, GetAltSkipRequest):
                return self._get_alt_local(inner)
            if isinstance(inner, ReplicatePut):
                return self._handle_replicate(inner)
            raise ProtocolError(
                f"envelope carried unexpected {type(inner).__qualname__}"
            )
        # Relay toward the target along the application's topology.
        self.stats.bump_pair("forwards_in", "forwards_relayed")
        reg = self.registration(envelope.app)
        relayed = ForwardEnvelope(
            app=envelope.app,
            target_host=envelope.target_host,
            inner=envelope.inner,
            trail=envelope.trail + (self.host,),
        )
        return self._send_envelope(reg, relayed)

    # -- local dispatch -------------------------------------------------------------

    def _folder_server(self, sid: str) -> FolderServer:
        # Lock-free read, same justification as :meth:`registration`: dict
        # lookups are atomic under the GIL, folder servers are only ever
        # added, and this sits on every local dispatch.
        fs = self._folder_servers.get(sid)
        if fs is None:
            raise ServerError(f"host {self.host} has no folder server {sid!r}")
        return fs

    def _replica_server(self, sid: str) -> FolderServer:
        """The backup store for chain entries naming local server *sid*."""
        with self._reg_lock:
            fs = self._replica_servers.get(sid)
            if fs is None:
                fs = self._make_folder_server(sid, replica=True)
                self._replica_servers[sid] = fs
        return fs

    def _make_folder_server(self, sid: str, replica: bool = False) -> FolderServer:
        """Construct a folder store, recovering it from disk when durable."""
        store_id = f"replica:{sid}" if replica else sid
        journal = None
        if self.durability is not None:
            journal = self.durability.store_for(store_id)
        # Origin coordinates only matter once records can exist in more
        # than one place (replication/anti-entropy) or on disk (journal);
        # an unreplicated in-memory store skips the stamping work.
        track = replica or any(
            reg.replication_factor > 1 for reg in self._registrations.values()
        )
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
        return fs

    def _store_for(
        self, chain: tuple[tuple[str, str], ...], sid: str
    ) -> FolderServer:
        """The local store that serves *chain* on this host.

        The primary serves from its ordinary folder server; any other
        member (chain entry *sid*) from its replica store.
        """
        if chain[0][1] == self.host:
            return self._folder_server(chain[0][0])
        return self._replica_server(sid)

    @staticmethod
    def _chain_entry(
        chain: tuple[tuple[str, str], ...], host: str
    ) -> tuple[str, str] | None:
        """This host's ``(sid, host)`` entry in a replica chain, if any."""
        for sid, chain_host in chain:
            if chain_host == host:
                return sid, chain_host
        return None

    def _dispatch_chain(
        self,
        reg: AppRegistration,
        chain: tuple[tuple[str, str], ...],
        sid: str,
        msg: object,
    ) -> Reply:
        """Serve *msg* on this host — as primary, or as acting backup.

        The primary serves from its ordinary folder server; a backup
        serves from its replica store (which holds copies of everything
        the dead primary acknowledged — this is what lets blocked ``get``\\ s
        complete through a fail-over).  Whoever accepts a write fans it out
        to the other live chain members *before* acknowledging, so an
        acknowledged put survives the loss of any single chain member.
        """
        if chain[0][1] != self.host:
            self.stats.bump("failover_dispatches")
        reply, record = self._apply_store(self._store_for(chain, sid), msg)
        if record is not None and len(chain) > 1:
            self._fan_out(reg, chain, msg, record)
        return reply

    def _apply_store(
        self, fs: FolderServer, msg: object
    ) -> tuple[Reply, MemoRecord | None]:
        """Apply *msg* to *fs*; for writes, also return the stored record.

        The record comes back stamped with its origin coordinates (the
        accepting store's id + LSN), which the fan-out propagates so every
        replica copy names the same cluster-wide write.
        """
        if isinstance(msg, PutRequest):
            record = fs.put(
                msg.folder, MemoRecord(payload=msg.payload, origin=msg.origin)
            )
            return _PUT_ACK, record
        if isinstance(msg, PutDelayedRequest):
            record = fs.put_delayed(
                msg.folder,
                msg.release_to,
                MemoRecord(payload=msg.payload, origin=msg.origin),
            )
            return _PUT_ACK, record
        if isinstance(msg, GetRequest):
            if msg.mode == "get":
                record = fs.get(msg.folder)
                return (
                    Reply(ok=True, found=True, payload=record.payload, folder=msg.folder),
                    None,
                )
            if msg.mode == "copy":
                record = fs.get_copy(msg.folder)
                return (
                    Reply(ok=True, found=True, payload=record.payload, folder=msg.folder),
                    None,
                )
            record_or_none = fs.get_skip(msg.folder)
            if record_or_none is None:
                return Reply(ok=True, found=False), None
            return (
                Reply(
                    ok=True, found=True, payload=record_or_none.payload, folder=msg.folder
                ),
                None,
            )
        raise ProtocolError(f"cannot dispatch {type(msg).__qualname__} locally")

    # -- replication (replica chains, fan-out, anti-entropy) -------------------------

    def _fan_out(
        self,
        reg: AppRegistration,
        chain: tuple[tuple[str, str], ...],
        msg: PutRequest | PutDelayedRequest,
        record: MemoRecord,
    ) -> None:
        """Copy an accepted write to every other live chain member.

        The :class:`ReplicatePut` is encoded *once* and the copies go out
        *concurrently* (extra legs on thread-cache workers, the last on
        this thread), so the pre-ack replication cost is the slowest
        member's round trip, not the sum of all of them.  All legs are
        awaited before returning — the copy-before-ack durability
        guarantee is untouched.

        Failures demote the target to dead and are counted, not raised:
        the write is already durable on this host, and the dead member
        will pull the copy back through anti-entropy when it rejoins.
        """
        targets = [
            member
            for _sid, member in chain
            if member != self.host and self.failure.is_alive(member)
        ]
        if not targets:
            return
        release_to = msg.release_to if isinstance(msg, PutDelayedRequest) else None
        inner = encode_message(
            self._replica_copy(reg.app, msg.folder, record, release_to)
        )
        # _replicate_to absorbs communication failures itself; what the
        # join collects (e.g. ShutdownError mid-teardown) must not vanish
        # in a worker thread — it is re-raised once every leg has landed,
        # matching the sequential loop's error surface.
        errors = scatter_join(
            self._cache,
            [lambda m=member: self._replicate_to(reg, m, inner) for member in targets],
        )
        if errors:
            raise errors[0]

    @staticmethod
    def _replica_copy(
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

    def _replicate_to(self, reg: AppRegistration, member: str, inner: bytes) -> bool:
        """Push one pre-encoded :class:`ReplicatePut` frame to *member*;
        True when the member acknowledged the copy."""
        try:
            reply = self._send_envelope(
                reg,
                ForwardEnvelope(
                    app=reg.app,
                    target_host=member,
                    inner=inner,
                    trail=(self.host,),
                ),
            )
        except CommunicationError:
            self._suspect(member)
            self.stats.bump("replication_failures")
            return False
        self.stats.bump("replications_out" if reply.ok else "replication_failures")
        return reply.ok

    def _handle_replicate(self, msg: ReplicatePut) -> Reply:
        """Apply a replica copy to the right local store.

        A backup stores the copy in its replica server; re-application is
        *quiet* (no delayed-release trigger) because the authoritative
        member already ran the trigger — running it again on every copy
        would release each delayed memo once per replica.
        """
        reg = self.registration(msg.app)
        chain = reg.placement.replica_chain(msg.folder)
        entry = self._chain_entry(chain, self.host)
        if entry is None:
            raise ReplicationError(
                f"{self.host} is not in the replica chain of {msg.folder} "
                f"(chain {[h for _s, h in chain]})"
            )
        self.stats.bump("replications_in")
        fs = self._store_for(chain, entry[0])
        if msg.src_lsn and fs.contains_src(
            msg.folder, msg.src_sid, msg.src_lsn, delayed=msg.delayed
        ):
            # Already holding this exact write (named by its origin
            # coordinates): re-seeds from anti-entropy sweeps and resync
            # overlaps are dropped here, which is what keeps repeated
            # sweeps idempotent instead of at-least-once.
            self.stats.bump("resync_reseed_skipped")
            return Reply(ok=True, found=True)
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
        return Reply(ok=True, found=True)

    def _handle_delta_sync(self, msg: DeltaSyncPull) -> Reply:
        """Anti-entropy: return and re-seed what a requester's state lacks.

        Phase 1 *returns* — record by record — the replica-held writes
        whose primary is the requester and that it does NOT already
        hold, by extracting them and re-depositing through ordinary
        routing (the same machinery as :class:`MigrateRequest`; the
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
        :meth:`_handle_replicate` makes overlap harmless, so a host
        that came back with no marks gets everything.
        """
        reg = self.registration(msg.app)
        # A pull is proof the requester is back (it may still be marked
        # dead here, which would bounce the returned puts straight back
        # into our own replica store).
        self.failure.mark_alive(msg.requester)
        with self._reg_lock:
            replicas = dict(self._replica_servers)
            primaries = dict(self._folder_servers)

        chain_cache: dict[FolderName, tuple] = {}

        def chain_of(name: FolderName):
            chain = chain_cache.get(name)
            if chain is None:
                chain = reg.placement.replica_chain(name)
                chain_cache[name] = chain
            return chain

        returned = 0
        for fs in replicas.values():
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

            extracted = fs.extract_records(requester_is_missing)
            failure: str | None = None
            for index, (name, memos, delayed) in enumerate(extracted):
                # Consume each list head only after a confirmed return, so
                # a mid-stream failure leaves exactly the unreturned tail.
                while memos and failure is None:
                    record = memos[0]
                    failure = self._route_soft(
                        name,
                        PutRequest(
                            folder=name, payload=record.payload, origin=record.origin
                        ),
                    )
                    if failure is None:
                        memos.pop(0)
                        returned += 1
                while delayed and failure is None:
                    record, release_to = delayed[0]
                    failure = self._route_soft(
                        name,
                        PutDelayedRequest(
                            folder=name,
                            release_to=release_to,
                            payload=record.payload,
                            origin=record.origin,
                        ),
                    )
                    if failure is None:
                        delayed.pop(0)
                        returned += 1
                if failure is not None:
                    # These replica copies may be the records' only
                    # surviving incarnation (the requester restarted
                    # empty); put everything unreturned back so a later
                    # pull still finds it, then report the failure.
                    for rname, rmemos, rdelayed in extracted[index:]:
                        for rec in rmemos:
                            fs.put(rname, rec, trigger_release=False)
                        for rec, rel in rdelayed:
                            fs.put_delayed(rname, rel, rec)
                    self.stats.bump("resync_returned", returned)
                    return Reply(
                        ok=False, error=f"delta resync of {name} failed: {failure}"
                    )

        reseeded = 0
        for sid, fs in primaries.items():
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
                    copy = self._replica_copy(msg.app, name, record, release_to)
                    reseeded += self._replicate_to(
                        reg, msg.requester, encode_message(copy)
                    )

        self.stats.bump("resync_returned", returned)
        self.stats.bump("resync_reseeded", reseeded)
        return Reply(ok=True, stats={"returned": returned, "reseeded": reseeded})

    def _handle_address_update(self, msg: AddressUpdate) -> Reply:
        """Adopt the cluster's current host → port map (process mode).

        Pooled connections to a host whose port changed are dropped so
        nothing keeps dialing the pre-restart listener.
        """
        for host, port in msg.ports.items():
            new = Address(str(host), int(port))
            old = self.address_book.get(new.host)
            if old == new:
                continue
            if old is not None:
                self._pool.drop(old)
            self.address_book[new.host] = new
        return Reply(ok=True)

    def _handle_resync_request(self, msg: ResyncRequest) -> Reply:
        """Run one anti-entropy round from here, on the parent's behalf.

        The per-peer stats come back flattened as ``"<peer>:<metric>"``
        inside the reply's counter map (the wire stats dict is flat).
        """
        resyncer = Resyncer(self.host, self.transport, self.address_book)
        stats = resyncer.resync(list(msg.apps), delta_state=self.delta_sync_state())
        flat = {
            f"{peer}:{metric}": count
            for peer, counters in stats.items()
            for metric, count in counters.items()
        }
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
        with self._reg_lock:
            primaries = dict(self._folder_servers)
            replicas = dict(self._replica_servers)
        primary_lsns = {sid: fs.current_lsn() for sid, fs in primaries.items()}
        primary_floors = {
            sid: floor
            for sid, fs in primaries.items()
            if (floor := fs.resync_floor())
        }
        replica_marks: dict[str, int] = {}
        for fs in replicas.values():
            for src_sid, mark in fs.src_high_water().items():
                if mark > replica_marks.get(src_sid, 0):
                    replica_marks[src_sid] = mark
        return primary_lsns, replica_marks, primary_floors

    def _route_soft(self, folder: FolderName, msg: object) -> str | None:
        """Route, reporting any failure as a string instead of raising."""
        try:
            reply = self._route(folder, msg)
        except (CommunicationError, ServerError) as exc:
            return f"{type(exc).__name__}: {exc}"
        if not reply.ok:
            return reply.error
        return None

    # -- get_alt (section 6.1.2) -------------------------------------------------------

    def _handle_get_alt(self, msg: GetAltSkipRequest) -> Reply:
        """One non-blocking round over folders that may span hosts.

        Folders are grouped by owning host preserving first-occurrence
        order (the client already randomized the folder order, providing
        the nondeterministic choice).  Local groups are checked by direct
        calls; remote groups by forwarding a sub-request.  First hit wins.
        """
        apps = {f.app for f in msg.folders}
        if len(apps) != 1:
            raise ProtocolError("get_alt folders must belong to one application")
        reg = self.registration(next(iter(apps)))

        groups: dict[str, list[FolderName]] = {}
        order: list[str] = []
        for folder in msg.folders:
            # The first chain member believed alive (primary when healthy).
            owner = self._candidates(folder)[2][0][1]
            if owner not in groups:
                groups[owner] = []
                order.append(owner)
            groups[owner].append(folder)

        for owner in order:
            subset = tuple(groups[owner])
            if owner == self.host:
                reply = self._get_alt_local(
                    GetAltSkipRequest(folders=subset, origin=msg.origin)
                )
            else:
                self.stats.bump("forwards_out")
                envelope = ForwardEnvelope(
                    app=reg.app,
                    target_host=owner,
                    inner=encode_message(
                        GetAltSkipRequest(folders=subset, origin=msg.origin)
                    ),
                    trail=(self.host,),
                )
                reply = self._send_envelope(reg, envelope)
            if reply.ok and reply.found:
                return reply
            if not reply.ok:
                return reply
        return Reply(ok=True, found=False)

    def _get_alt_local(self, msg: GetAltSkipRequest) -> Reply:
        """Check co-located folders, grouped per serving folder server.

        A folder may be served here as its primary or — when its primary
        is dead — out of this host's replica store; folders are grouped
        by the store itself so a folder never reads from the wrong one.
        """
        reg = self.registration(msg.folders[0].app)
        by_store: dict[FolderServer, list[FolderName]] = {}
        for folder in msg.folders:
            chain = reg.placement.replica_chain(folder)
            entry = self._chain_entry(chain, self.host)
            if entry is None:
                raise RoutingError(
                    f"folder {folder} is not chained to {self.host} "
                    f"(chain {[h for _s, h in chain]})"
                )
            by_store.setdefault(self._store_for(chain, entry[0]), []).append(folder)
        for fs, folders in by_store.items():
            hit = fs.get_alt_skip(tuple(folders))
            if hit is not None:
                name, record = hit
                return Reply(ok=True, found=True, payload=record.payload, folder=name)
        return Reply(ok=True, found=False)

    # -- stats -----------------------------------------------------------------------

    def _collect_stats(self) -> dict:
        stats: dict = {f"memo.{k}": v for k, v in self.stats.snapshot().items()}
        stats.update(
            {f"cache.{k}": v for k, v in self._cache.stats.snapshot().items()}
        )
        stats.update(
            {f"failure.{k}": v for k, v in self.failure.snapshot().items()}
        )
        # Per process, not per server: in-process hosts share one table.
        stats.update({f"codec.{k}": v for k, v in folder_intern_stats().items()})
        with self._reg_lock:
            folder_servers = dict(self._folder_servers)
            replica_servers = dict(self._replica_servers)
        for sid, fs in folder_servers.items():
            for k, v in fs.stats.snapshot().items():
                stats[f"folder.{sid}.{k}"] = v
            stats[f"folder.{sid}.live_folders"] = fs.folder_count()
            stats[f"folder.{sid}.live_memos"] = fs.memo_count()
        for sid, fs in replica_servers.items():
            stats[f"replica.{sid}.live_folders"] = fs.folder_count()
            stats[f"replica.{sid}.live_memos"] = fs.memo_count()
        for k, v in self.durability_gauges().items():
            stats[f"durability.{k}"] = v
        return stats

    def durability_gauges(self) -> dict:
        """Aggregated durability gauges; empty when running in-memory."""
        if self.durability is None:
            return {}
        return self.durability.gauges()

    def local_folder_servers(self) -> dict[str, FolderServer]:
        """Direct handles to this host's folder servers (tests/benches)."""
        with self._reg_lock:
            return dict(self._folder_servers)

    def local_replica_servers(self) -> dict[str, FolderServer]:
        """Direct handles to this host's replica stores (tests/benches)."""
        with self._reg_lock:
            return dict(self._replica_servers)

    def __repr__(self) -> str:
        return f"<MemoServer {self.host} at {self.address}>"
