"""A process's connection to its local memo server.

Every application process owns one connection to the memo server on its
host (Figure 1).  Synchronous calls (``get``, ``register``, …) block for
their reply; ``put``/``put_delayed`` acknowledgements are *deferred*: the
call returns as soon as the request bytes are sent ("control is
immediately returned", section 6.1.2) and the pending acknowledgements are
drained before the next synchronous call, preserving read-your-writes
ordering and still surfacing any asynchronous put failure on the very next
API call.

Pipelining: every request the client sends carries a correlation id
(version-2 compact frames), so the memo server is free to work many of the
connection's requests at once and return the replies out of order — the
client demultiplexes them by id.  ``put_many`` additionally coalesces
bursts of requests into :class:`~repro.network.protocol.PipelineBatch`
frames, paying one transport send per burst; the server answers the puts
of a lane round it accepted with one :class:`~repro.network.protocol.Acks`
frame, which every read path routes id by id.

Futures: ``get_wait`` registers a server-parked wait (one waiter-table
entry server-side, zero blocked threads on either end) and returns a
:class:`~repro.core.futures.MemoFuture`; ``put_future`` returns a future
for a put's acknowledgement.  The demultiplexer routes three kinds of
frame: correlated replies matched to a waiting ``request``/ack future,
unsolicited :class:`~repro.network.protocol.MemoReady` /
:class:`~repro.network.protocol.WaitCancelled` pushes matched to wait
futures by waiter token, and deferred-put acknowledgements absorbed into
the pending set.  Any thread that reads frames — a synchronous
``request``, an explicit ``pump``, a future being waited on — advances
every outstanding future in passing.  Parked waits survive reconnects:
the client re-subscribes them (same token, fresh correlation id) on every
fresh connection, and re-subscribes through migration and server
restarts when a ``WaitCancelled`` names a retryable reason.

Connection hygiene rules:

* a :class:`TimeoutError` inside ``request`` abandons the connection — the
  reply is still in flight, and reusing the socket would hand the *next*
  request a stale reply (correlation ids make that stale reply *ignorable*,
  but the fresh connection keeps the failure domain clean);
* a closed connection triggers bounded reconnect-and-resend to the
  :class:`Address` the client was built with — a host keeps its address
  across restarts on every backend and transport, which is what lets a
  client ride through its memo server being killed and restarted
  (fail-over gives at-least-once delivery: a resent put may duplicate a
  memo whose first ack was lost, never lose one);
* acknowledgements that die with a connection are *counted*, accumulating
  accurately across repeated losses, and surface as exactly one
  :class:`~repro.errors.MemoError` on the next synchronous call.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable

from repro.core.futures import MemoFuture
from repro.core.keys import FolderName
from repro.errors import (
    CommunicationError,
    ConnectionClosedError,
    MemoError,
    ProtocolError,
)
from repro.network.codec import encode_message
from repro.network.connection import Address, Transport
from repro.network.protocol import (
    PUT_ACK,
    Acks,
    CancelWaitRequest,
    GetWaitRequest,
    MemoReady,
    PipelineBatch,
    Reply,
    WaitCancelled,
    recv_tagged,
    retryable,
    send_message,
    shutting_down,
)

__all__ = ["MemoClient"]

#: Requests coalesced per :class:`PipelineBatch` frame in ``put_many``.
_BATCH_FRAMES = 64

#: Flow-control window: ``put_many`` drains acknowledgements once this
#: many are outstanding.  Without a window a huge batch never reads its
#: acks, the receive buffer fills, and the *server's* reply sends stall
#: until it fails a connection that was ingesting perfectly.
_MAX_PENDING = 4096

#: How many times one parked wait may be re-subscribed after retryable
#: cancellations (migration chases, server restarts) before it fails —
#: mirrors the server's own ``MIGRATION_RETRY_MAX`` bound on a folder that
#: keeps moving.
_RESUBSCRIBE_MAX = 8

#: How many times a request/post retries over a fresh connection after
#: the old one closes or answers mid-teardown.
_RECONNECT_MAX = 3

#: Pause before each reconnect, giving a restarting server time to bind.
_RECONNECT_PAUSE = 0.1

#: Round-trip budget for a CancelWait request: cancellation usually runs
#: under a caller's own deadline and must stay bounded even against a
#: wedged server (a timed-out cancel simply reports "not cancelled").
_CANCEL_TIMEOUT = 5.0


class _WaitState:
    """Client-side record of one server-parked wait."""

    __slots__ = ("request", "future", "attempts")

    def __init__(self, request: GetWaitRequest, future: MemoFuture) -> None:
        self.request = request
        self.future = future
        #: Consecutive retryable re-subscriptions without reaching parked.
        self.attempts = 0


class _AckState:
    """Client-side record of one acknowledgement future (``put_future``)."""

    __slots__ = ("msg", "future", "attempts")

    def __init__(self, msg: object, future: MemoFuture) -> None:
        self.msg = msg
        self.future = future
        #: Shutdown-reply retries, bounded like ``request``'s own.
        self.attempts = 0


class MemoClient:
    """Pipelined request/reply client with deferred-acknowledgement writes.

    Args:
        transport: medium to (re)connect over.
        server_address: the local memo server.
        origin: process name stamped on requests (diagnostics).
    """

    def __init__(
        self,
        transport: Transport,
        server_address: Address,
        origin: str = "",
    ) -> None:
        self.origin = origin
        self.server_address = server_address
        self._transport = transport
        self._conn = transport.connect(server_address)
        self._lock = threading.Lock()
        #: Correlation ids of posted puts whose acks are still in flight.
        self._pending: set[int] = set()
        #: Acks that died with a lost connection, accumulated until raised.
        self._lost_acks = 0
        self._next_cid = 1
        self._deferred_error: str | None = None
        #: Server-parked waits: waiter token -> state (push routing key).
        self._wait_by_token: dict[int, _WaitState] = {}
        #: In-flight GetWait sends: correlation id -> state (reply routing).
        self._wait_by_cid: dict[int, _WaitState] = {}
        #: Acknowledgement futures: correlation id -> state.
        self._ack_by_cid: dict[int, _AckState] = {}
        #: Ack futures knocked off a dead connection, awaiting resend.
        self._ack_resend: list[_AckState] = []
        self._next_token = 1

    # -- plumbing -------------------------------------------------------------

    def _new_cid(self) -> int:
        cid = self._next_cid
        self._next_cid += 1
        return cid

    def _route_frame_locked(self, msg: object, cid: int | None) -> None:
        """Demultiplex one wire frame; an :class:`Acks` frame is
        :data:`PUT_ACK` for each of its ids, most of them pending."""
        if type(msg) is not Acks:
            self._route_one_locked(msg, cid)
            return
        pending = self._pending
        for acked in msg.cids:
            if acked in pending:
                pending.discard(acked)
            else:
                self._route_one_locked(PUT_ACK, acked)

    def _route_one_locked(self, msg: object, cid: int | None) -> None:
        """Route one frame: pushes to wait futures, correlated replies to
        whichever future/pending-set entry owns the id.  What answers
        nothing waited for — an id-less frame, an id from a previous
        connection incarnation — is skipped: the ids are what make stale
        replies harmless."""
        if isinstance(msg, MemoReady):
            state = self._wait_by_token.pop(msg.waiter, None)
            if state is not None:
                state.future._complete(msg.payload)
            return
        if isinstance(msg, WaitCancelled):
            self._on_wait_cancelled_locked(msg)
            return
        if cid is None:
            return
        wait = self._wait_by_cid.pop(cid, None)
        if wait is not None:
            self._on_wait_reply_locked(wait, msg)
            return
        ack = self._ack_by_cid.pop(cid, None)
        if ack is not None:
            self._on_ack_reply_locked(ack, msg)
        elif cid in self._pending:
            self._pending.discard(cid)
            if isinstance(msg, Reply) and not msg.ok and self._deferred_error is None:
                self._deferred_error = msg.error

    # -- wait futures (server-parked GetWait) ----------------------------------

    def _on_wait_reply_locked(self, state: _WaitState, msg: object) -> None:
        """The immediate (correlated) answer to one GetWait send."""
        token = state.request.waiter
        if not isinstance(msg, Reply):
            self._wait_by_token.pop(token, None)
            state.future._fail(
                ProtocolError(f"expected Reply, got {type(msg).__qualname__}")
            )
            return
        if msg.ok and msg.found:
            self._wait_by_token.pop(token, None)
            state.future._complete(msg.payload)
            return
        if msg.ok:
            # Parked: the wait is now a server-side table entry; its
            # resolution arrives as a push.  A clean park resets the
            # re-subscription budget — the wait provably reached a home.
            state.attempts = 0
            return
        if retryable(msg.error):
            self._resubscribe_locked(state, msg.error)
            return
        self._wait_by_token.pop(token, None)
        state.future._fail(MemoError(msg.error))

    def _on_wait_cancelled_locked(self, push: WaitCancelled) -> None:
        state = self._wait_by_token.get(push.waiter)
        if state is None or state.future.done():
            return
        if retryable(push.reason):
            self._resubscribe_locked(state, push.reason)
            return
        self._wait_by_token.pop(push.waiter, None)
        state.future._fail(MemoError(push.reason))

    def _resubscribe_locked(self, state: _WaitState, reason: str) -> None:
        """Chase a wait whose folder moved or whose server is restarting.

        Migration keeps the connection: the wait simply re-enters routing
        at the server (which now knows the folder's new home).  A
        ``shutdown:`` reason means this server instance is dying — the
        connection is replaced first (mirroring ``request``'s
        kill/restart fail-over), and :meth:`_reconnect_locked` re-sends
        every parked wait on the fresh connection, this one included.
        """
        state.attempts += 1
        if state.attempts > _RESUBSCRIBE_MAX:
            self._wait_by_token.pop(state.request.waiter, None)
            state.future._fail(
                MemoError(f"wait kept being cancelled ({reason}); giving up")
            )
            return
        if shutting_down(reason):
            try:
                self._reconnect_locked()
            except CommunicationError:
                # Connection already discarded; the pump path owns the
                # remaining reconnect budget and will fail the future if
                # the server never comes back.
                pass
            return
        try:
            self._send_wait_locked(state)
        except ConnectionClosedError:
            self._discard_connection_locked()

    def _send_wait_locked(self, state: _WaitState) -> None:
        """(Re-)send one GetWait on the current connection."""
        cid = self._new_cid()
        send_message(self._conn, state.request, corr_id=cid)
        self._wait_by_cid[cid] = state

    # -- ack futures (put_future) ----------------------------------------------

    def _on_ack_reply_locked(self, state: _AckState, msg: object) -> None:
        if not isinstance(msg, Reply):
            state.future._fail(
                ProtocolError(f"expected Reply, got {type(msg).__qualname__}")
            )
            return
        if msg.ok:
            state.future._complete(None)
            return
        if shutting_down(msg.error) and state.attempts < _RECONNECT_MAX:
            # The server answered mid-teardown; retry over a fresh
            # connection (kill/restart fail-over), like ``request`` does.
            state.attempts += 1
            self._ack_resend.append(state)
            try:
                self._reconnect_locked()
            except CommunicationError:
                pass  # stays queued; the next successful reconnect resends
            return
        state.future._fail(MemoError(msg.error))

    def _fail_outstanding_locked(self, exc: BaseException) -> None:
        """Fail every outstanding future — the connection is gone for good."""
        waits = list(self._wait_by_token.values())
        self._wait_by_token.clear()
        self._wait_by_cid.clear()
        acks = list(self._ack_by_cid.values()) + self._ack_resend
        self._ack_by_cid.clear()
        self._ack_resend = []
        for state in waits:
            state.future._fail(exc)
        for ack in acks:
            ack.future._fail(exc)

    def _drain_locked(self) -> None:
        """Collect acknowledgements for all outstanding async requests.

        A connection that dies mid-drain is discarded with its remaining
        acks counted as lost; together with any server-reported put
        failure they raise exactly one :class:`MemoError` here — never
        silently forgotten, never double-raised.
        """
        self._drain_until_locked(0)
        self._raise_deferred_locked()

    def _drain_until_locked(self, target: int) -> None:
        """Absorb acknowledgements until at most *target* remain pending.

        A connection that dies mid-drain is discarded with its remaining
        acks counted lost; the loss surfaces via
        :meth:`_raise_deferred_locked` on the next synchronous call.
        """
        while len(self._pending) > target:
            try:
                msg, cid = recv_tagged(self._conn)
            except (ConnectionClosedError, TimeoutError):
                self._discard_connection_locked()
                return
            self._route_frame_locked(msg, cid)

    @staticmethod
    def _ack_failure_message(error: str | None, lost: int) -> str | None:
        """The single wording of the deferred-put failure report."""
        if error is None and not lost:
            return None
        parts = []
        if error is not None:
            parts.append(error)
        if lost:
            parts.append(f"connection lost with {lost} unacknowledged puts")
        return "asynchronous put failed: " + "; ".join(parts)

    def _raise_deferred_locked(self) -> None:
        message = self._ack_failure_message(self._deferred_error, self._lost_acks)
        if message is None:
            return
        self._deferred_error = None
        self._lost_acks = 0
        raise MemoError(message)

    def _discard_connection_locked(self) -> None:
        """Drop the current connection; its in-flight state is abandoned.

        Un-drained acknowledgements die with the connection; they are
        *added* to the lost-ack count (a second loss before the first was
        reported keeps both counts) and surface once via
        :meth:`_raise_deferred_locked` on the next synchronous call.
        Futures are *not* failed here: parked waits keep their tokens for
        re-subscription and ack futures queue for resend — both belong to
        the operation, not the connection, and ride to the next one.
        """
        self._salvage_pushes_locked()
        self._conn.close()
        self._lost_acks += len(self._pending)
        self._pending.clear()
        self._wait_by_cid.clear()
        if self._ack_by_cid:
            self._ack_resend.extend(
                st for st in self._ack_by_cid.values() if not st.future.done()
            )
            self._ack_by_cid.clear()

    def _salvage_pushes_locked(self) -> None:
        """Drain already-delivered push frames off a dying connection.

        A MemoReady queued behind the frame that doomed the connection
        names a memo the server has *already consumed* — abandoning it
        unread would lose that memo (the re-subscribed wait parks on a
        now-empty folder).  Only pushes are handled: anything that could
        re-enter connection management (ack retries, re-subscriptions)
        is skipped, since the connection is going away regardless.  Best
        effort by design — a push still in flight server-side shares the
        fate of any reply lost with a connection (at-least-once, same as
        acked puts).
        """
        if self._conn.closed:
            return
        for _ in range(10_000):
            try:
                msg, _cid = recv_tagged(self._conn, 0.005)
            except (TimeoutError, MemoError):
                return
            if isinstance(msg, MemoReady):
                state = self._wait_by_token.pop(msg.waiter, None)
                if state is not None:
                    state.future._complete(msg.payload)

    def _reconnect_locked(self) -> None:
        self._discard_connection_locked()
        time.sleep(_RECONNECT_PAUSE)
        self._conn = self._transport.connect(self.server_address)
        self._resubscribe_all_locked()

    def _resubscribe_all_locked(self) -> None:
        """Re-send every parked wait and queued ack on a fresh connection.

        A send failure aborts quietly: the connection died again, and the
        next reconnect (driven by whichever call observes the loss)
        retries the remainder — nothing is dropped, nothing double-sent.
        """
        try:
            for state in list(self._wait_by_token.values()):
                if not state.future.done():
                    self._send_wait_locked(state)
            while self._ack_resend:
                ack = self._ack_resend[0]
                if not ack.future.done():
                    cid = self._new_cid()
                    send_message(self._conn, ack.msg, corr_id=cid)
                    self._ack_by_cid[cid] = ack
                self._ack_resend.pop(0)
        except (ConnectionClosedError, CommunicationError):
            pass

    def _recv_matching_locked(self, cid: int, timeout: float | None) -> object:
        """Read frames until the reply tagged *cid* arrives.

        Replies to other outstanding requests (earlier posts whose acks
        ride the same stream, possibly in the same :class:`Acks` frame)
        are routed in passing; id-less or foreign frames are skipped.
        Routing a frame can *replace* the connection (an ack's
        shutdown-retry, a wait's fail-over re-subscription reconnect
        under us); the awaited reply died with the old connection, so
        that surfaces as a connection loss for the caller's retry loop
        rather than a silent hang.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        conn = self._conn
        while True:
            if self._conn is not conn:
                raise ConnectionClosedError(
                    "connection replaced while awaiting the reply"
                )
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("request timed out")
            msg, got = recv_tagged(self._conn, remaining)
            if got == cid:
                return msg
            # Routed whole, even when it answers *cid* too: dropping the
            # rest of an Acks frame would strand every drain after this.
            self._route_frame_locked(msg, got)
            if type(msg) is Acks and cid in msg.cids:
                return PUT_ACK

    def request(
        self, msg: object, timeout: float | None = None, drain: bool = True
    ) -> Reply:
        """Send *msg* and wait for its reply (draining async acks first).

        The request is tagged with a fresh correlation id and the reply is
        matched by id, so replies the server returns out of order (or
        stale frames) can never be mistaken for it.  A timeout discards
        the connection and reconnects for subsequent calls.  A connection
        closed under the request — e.g. the server was killed — retries
        over a fresh connection up to :data:`_RECONNECT_MAX` times.

        ``drain=False`` skips the deferred-acknowledgement drain (and its
        raise): housekeeping requests like a wait cancellation must not
        *consume* a pending put failure that belongs to the next real
        synchronous call.
        """
        with self._lock:
            attempts = 0
            while True:
                try:
                    if drain:
                        self._drain_locked()
                    cid = self._new_cid()
                    send_message(self._conn, msg, corr_id=cid)
                    reply = self._recv_matching_locked(cid, timeout)
                    if (
                        isinstance(reply, Reply)
                        and shutting_down(reply.error)
                        and attempts < _RECONNECT_MAX
                    ):
                        # A dying server instance answered mid-teardown; if
                        # a healthy instance is (or comes) back at the same
                        # address — kill/restart fail-over — retry there.
                        # When reconnecting fails the shutdown reply stands.
                        attempts += 1
                        try:
                            self._reconnect_locked()
                        except CommunicationError:
                            break
                        continue
                    break
                except TimeoutError:
                    try:
                        self._reconnect_locked()
                    except CommunicationError:
                        pass  # the timeout is what the caller must see
                    raise
                except ConnectionClosedError:
                    attempts += 1
                    if attempts > _RECONNECT_MAX:
                        raise
                    if not self._conn.closed:
                        # The connection was *replaced* under this request
                        # (frame routing ran an ack-retry or wait
                        # re-subscription reconnect) — it is healthy and
                        # already carries the re-subscribed waits, so just
                        # resend on it instead of tearing it down again.
                        continue
                    try:
                        self._reconnect_locked()
                    except CommunicationError:
                        if attempts >= _RECONNECT_MAX:
                            raise
        if not isinstance(reply, Reply):
            raise ProtocolError(f"expected Reply, got {type(reply).__qualname__}")
        return reply

    def post(self, msg: object) -> None:
        """Send *msg* without waiting; its tagged ack is drained later."""
        def send() -> None:
            cid = self._new_cid()
            send_message(self._conn, msg, corr_id=cid)
            self._pending.add(cid)

        with self._lock:
            self._send_locked(send)

    def _send_locked(
        self, send: Callable[[], None], resubscribes: bool = False
    ) -> None:
        """Run *send* on the current connection — the one resend rule.

        A connection that closes under the send is replaced, up to
        :data:`_RECONNECT_MAX` times, and the send repeated on the fresh
        one; *send* records its ids only after its bytes went out, so a
        repeat never double-counts.  *resubscribes* marks a send the
        reconnect itself repeats (a parked wait rides every fresh
        connection), which must then not go out a second time.
        """
        attempts = 0
        while True:
            try:
                send()
                return
            except ConnectionClosedError:
                attempts += 1
                if attempts > _RECONNECT_MAX:
                    raise
                try:
                    self._reconnect_locked()
                    if resubscribes:
                        return
                except CommunicationError:
                    if attempts >= _RECONNECT_MAX:
                        raise

    def put_many(self, msgs: "Iterable[object]") -> None:
        """Pipeline a batch of put requests over the deferred-ack path.

        Semantically equivalent to calling :meth:`post` once per message,
        but the whole run rides a single lock acquisition and consecutive
        requests are coalesced — :data:`_BATCH_FRAMES` tagged frames per
        :class:`PipelineBatch` wire message — so the transport is paid per
        burst, not per memo.  *msgs* is consumed lazily, so a generator
        producer overlaps its encoding with the server already working the
        earlier bursts.  Once :data:`_MAX_PENDING` acknowledgements are
        outstanding a window of them is drained before sending more (flow
        control — unread acks must not back up into the server's sends).
        On a connection loss the current (unsent) burst is resent on the
        fresh connection; acknowledgements of bursts already on the dead
        wire are counted lost and surface as the usual single deferred
        error.
        """
        with self._lock:
            frames: list[bytes] = []
            cids: list[int] = []
            add_frame, add_cid, encode = frames.append, cids.append, encode_message
            cid = self._next_cid
            for msg in msgs:
                add_frame(encode(msg, cid))
                add_cid(cid)
                cid += 1
                if len(frames) >= _BATCH_FRAMES:
                    self._next_cid = cid
                    self._send_burst_locked(frames, cids)
                    frames, cids = [], []
                    add_frame, add_cid = frames.append, cids.append
                    if len(self._pending) >= _MAX_PENDING:
                        # Flow control: absorb a window of acks before
                        # pushing more, so replies never back up far
                        # enough to stall the server's sends.
                        self._drain_until_locked(_MAX_PENDING // 2)
            self._next_cid = cid
            if frames:
                self._send_burst_locked(frames, cids)

    def _send_burst_locked(self, frames: list[bytes], cids: list[int]) -> None:
        """Send one coalesced burst; ids join the pending set only after
        the send succeeds, so a resend never double-counts them."""
        def send() -> None:
            if len(frames) == 1:
                self._conn.send(frames[0])
            else:
                send_message(self._conn, PipelineBatch(tuple(frames)))
            self._pending.update(cids)

        self._send_locked(send)

    # -- futures ---------------------------------------------------------------

    def get_wait(
        self,
        folder: FolderName,
        mode: str = "get",
        transform: Callable[[object], object] | None = None,
    ) -> MemoFuture:
        """Register a server-parked wait on *folder*; returns its future.

        The future resolves with the memo's payload bytes (run through
        *transform* when given) — immediately when the folder already
        held a memo, later via a :class:`MemoReady` push when the wait
        parked.  No thread blocks anywhere while the wait is parked: the
        server holds one waiter-table entry, the client one dict entry.

        Pending deferred acknowledgements are drained first (the same
        read-your-writes point every synchronous call honours), so a
        previously-failed asynchronous put still surfaces here exactly
        once.
        """
        with self._lock:
            self._drain_locked()
            token = self._next_token
            self._next_token += 1
            request = GetWaitRequest(
                folder=folder, mode=mode, waiter=token, origin=self.origin
            )
            future = MemoFuture(
                step=self.pump,
                cancel_impl=lambda: self.cancel_wait(token),
                transform=transform,
            )
            state = _WaitState(request, future)
            self._wait_by_token[token] = state
            try:
                self._send_locked(
                    lambda: self._send_wait_locked(state), resubscribes=True
                )
            except CommunicationError:
                self._wait_by_token.pop(token, None)
                raise
        return future

    def put_future(self, msg: object, drain: bool = False) -> MemoFuture:
        """Send *msg* and return a future for its acknowledgement.

        The future resolves to None on success and fails with
        :class:`MemoError` carrying the server's error text otherwise —
        the exact contract of ``request`` + ``_check``, deferred.  With
        *drain* the pending fire-and-forget acknowledgements are
        collected first (blocking-wrapper parity: ``put(wait=True)``
        historically drained before sending).
        """
        with self._lock:
            if drain:
                self._drain_locked()
            future = MemoFuture(step=self.pump)
            state = _AckState(msg, future)

            def send() -> None:
                cid = self._new_cid()
                send_message(self._conn, msg, corr_id=cid)
                self._ack_by_cid[cid] = state

            self._send_locked(send)
        return future

    def cancel_wait(self, token: int) -> bool:
        """Withdraw a parked wait; True if cancelled before completion.

        Runs the cancellation race on the server: a ``found=True`` reply
        means the memo (or cancellation push) was already on its way —
        the caller keeps the result.  Network failures report False too:
        claiming a successful cancel while the server may still complete
        the wait would risk dropping a consumed memo.  Sent with
        ``drain=False`` so a deferred put failure is neither swallowed
        here nor allowed to block the cancellation — it still surfaces,
        once, on the next ordinary synchronous call.
        """
        with self._lock:
            state = self._wait_by_token.get(token)
            if state is None or state.future.done():
                return False
        try:
            # Bounded: a stalled server must not turn a *cancellation*
            # (typically running under a caller's timeout) into a hang.
            reply = self.request(
                CancelWaitRequest(waiter=token, origin=self.origin),
                timeout=_CANCEL_TIMEOUT,
                drain=False,
            )
        except (MemoError, TimeoutError):
            return False
        if not reply.ok or reply.found:
            return False
        with self._lock:
            return self._wait_by_token.pop(token, None) is state

    def pump(self, timeout: float | None = None) -> bool:
        """Receive and route one frame; False on a quiet timeout.

        The driving primitive behind ``MemoFuture.wait``: every frame —
        a push completing some parked wait, an ack for a deferred put, a
        stray reply — is routed to its owner, so pumping for *one*
        future advances *all* of them.  A lost connection triggers the
        bounded reconnect-and-resubscribe dance; if the server never
        comes back every outstanding future is failed (never stranded).
        """
        with self._lock:
            try:
                msg, cid = recv_tagged(self._conn, timeout)
            except TimeoutError:
                return False
            except (ConnectionClosedError, ProtocolError):
                self._pump_conn_loss_locked()
                return True
            self._route_frame_locked(msg, cid)
            return True

    def _pump_conn_loss_locked(self) -> None:
        attempts = 0
        while True:
            attempts += 1
            try:
                self._reconnect_locked()
                return
            except CommunicationError as exc:
                if attempts >= _RECONNECT_MAX:
                    self._fail_outstanding_locked(
                        ConnectionClosedError(
                            f"connection to {self.server_address} lost and "
                            f"not recovered: {exc}"
                        )
                    )
                    return

    # -- housekeeping ----------------------------------------------------------

    def flush(self) -> None:
        """Wait for all outstanding async acknowledgements."""
        with self._lock:
            self._drain_locked()

    @property
    def pending_acks(self) -> int:
        """Outstanding un-drained acknowledgements (diagnostics)."""
        with self._lock:
            return len(self._pending)

    def close(self) -> None:
        """Close the connection, collecting outstanding acknowledgements first.

        Deferred ``put``/``put_many`` acknowledgements still in flight are
        drained before the connection drops, and a server-reported put
        failure surfaces here as :class:`MemoError` — previously a
        context-manager exit silently abandoned them, so a failed
        asynchronous put could vanish without a trace.  Losses caused by
        the connection dying *during* this final drain stay silent (the
        connection is going away regardless); outstanding futures are
        failed so no waiter stays parked against a closed client.
        """
        with self._lock:
            # Losses *already recorded* before close must surface; losses
            # incurred by the connection dying during this final drain
            # stay silent (deliberately — see the docstring).
            lost_before = self._lost_acks
            if self._pending and not self._conn.closed:
                self._drain_until_locked(0)
            message = self._ack_failure_message(self._deferred_error, lost_before)
            self._deferred_error = None
            self._lost_acks = 0
            self._fail_outstanding_locked(
                ConnectionClosedError("memo client closed")
            )
            self._conn.close()
        if message is not None:
            raise MemoError(message)

    def __enter__(self) -> "MemoClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
