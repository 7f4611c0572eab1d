"""A process's connection to its local memo server.

Every application process owns one connection to the memo server on its
host (Figure 1).  Synchronous calls (``get``, ``register``, …) block for
their reply; ``put``/``put_delayed`` acknowledgements are *deferred*: the
call returns as soon as the request bytes are sent ("control is
immediately returned", section 6.1.2) and the pending acknowledgements are
drained before the next synchronous call, preserving read-your-writes
ordering and still surfacing any asynchronous put failure on the very next
API call.

The client runs on the correlated-call engine a peer link runs on too
(:class:`~repro.network.calls.Calls`): every request is a slot, the
server may answer out of order, and ``put_many`` sends
:class:`~repro.network.protocol.PipelineBatch` bursts of
:data:`_BATCH_FRAMES` puts, one slot each.  What the client adds is what
outlives a connection.  A request, an ack future (``put_future``) and a
parked wait (``get_wait``, a :class:`~repro.core.futures.MemoFuture` that
a ``MemoReady`` push completes by waiter token) are each a :class:`_Request`
whose slot callback settles its future; one lock guards everything, so
every caller leads the read, and any thread that reads — a synchronous
``request``, an explicit ``pump``, a future being waited on — advances
every outstanding call in passing.

Connection hygiene rules:

* a :class:`TimeoutError` inside ``request`` abandons the connection — the
  reply is still in flight, and the fresh connection keeps the failure
  domain clean (its id makes the stale reply ignorable either way);
* a closed connection triggers bounded reconnect-and-resend to the
  :class:`Address` the client was built with — a host keeps its address
  across restarts on every backend and transport, which is what lets a
  client ride through its memo server being killed and restarted
  (fail-over gives at-least-once delivery: a resent put may duplicate a
  memo whose first ack was lost, never lose one).  Requests and ack
  futures are resent, and parked waits re-subscribed (same token, fresh
  id), on the fresh connection; a ``WaitCancelled`` with a retryable
  reason re-subscribes its wait too;
* acknowledgements that die with a connection — the ids its failed put
  slots never got — are *counted*, accumulating accurately across
  repeated losses, and surface as exactly one
  :class:`~repro.errors.MemoError` on the next synchronous call.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Iterable

from repro.core.futures import MemoFuture
from repro.core.keys import FolderName
from repro.errors import CommunicationError, ConnectionClosedError, MemoError
from repro.network.calls import Calls, Slot
from repro.network.codec import encode_message
from repro.network.connection import Address, Transport
from repro.network.protocol import (
    CancelWaitRequest,
    GetWaitRequest,
    MemoReady,
    PipelineBatch,
    Reply,
    recv_tagged,
    retryable,
    send_message,
    shutting_down,
)

__all__ = ["MemoClient"]

#: Requests coalesced per :class:`PipelineBatch` frame in ``put_many``.
_BATCH_FRAMES = 64

#: Flow-control window, in put slots: ``put_many`` drains the older half
#: once this many are outstanding (4096 acks in bursts of 64).  Without a
#: window a huge batch never reads its acks, the receive buffer fills, and
#: the *server's* reply sends stall until it fails a connection that was
#: ingesting perfectly.
_MAX_BURSTS = 64

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


class _Request:
    """A request that outlives a connection: a parked wait's GetWait, a
    put's ack future, a synchronous request.  A lost connection re-sends
    it on the next one."""

    __slots__ = ("msg", "future", "attempts")

    def __init__(self, msg: object, future: MemoFuture) -> None:
        self.msg = msg
        self.future = future
        #: Re-subscriptions of a wait since it last parked; shutdown
        #: replies of a request, bounded like a reconnect.
        self.attempts = 0


def _checked(reply: Reply) -> None:
    """An ack future's result: None, or the server's error raised."""
    if not reply.ok:
        raise MemoError(reply.error)


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
        self._lock = threading.Lock()
        #: The calls on the current connection; a reconnect swaps its
        #: ``conn`` and keeps its ids, so an earlier connection's never recur.
        self._calls = Calls(
            transport.connect(server_address),
            self._pushed,
            self._discard_connection_locked,
        )
        #: Slots of the posted puts not yet drained, oldest first.
        self._puts: deque[Slot] = deque()
        #: Acks that died with a lost connection, accumulated until raised.
        self._lost_acks = 0
        self._deferred_error: str | None = None
        #: Server-parked waits: waiter token -> call (push routing key).
        self._wait_by_token: dict[int, _Request] = {}
        #: Requests knocked off a dead connection, awaiting resend.
        self._resend: list[_Request] = []

    # -- plumbing -------------------------------------------------------------

    def _call_locked(self, call: _Request, then) -> None:
        """Send *call* on the current connection under a fresh slot's id;
        *then* gets the slot.  A send that raises forgets the slot, which
        then runs nothing."""
        calls = self._calls
        slot = calls.open(then=then, tag=call)
        try:
            send_message(calls.conn, call.msg, corr_id=slot.first)
        except BaseException:
            calls.forget(slot)
            raise

    def _pushed(self, token: int, payload: bytes | None, reason: str | None) -> None:
        """A push for the parked wait *token*: its memo, or why it ended."""
        if reason is None:
            wait = self._wait_by_token.pop(token, None)
            if wait is not None:
                wait.future._complete(payload)
            return
        wait = self._wait_by_token.get(token)
        if wait is None or wait.future.done():
            return
        if retryable(reason):
            self._resubscribe_locked(wait, reason)
            return
        self._wait_by_token.pop(token, None)
        wait.future._fail(MemoError(reason))

    def _replied(self, slot: Slot) -> None:
        """A request's reply completes its future, unless the connection
        died under it or a dying server answered mid-teardown: then it
        rides to a fresh connection (kill/restart fail-over)."""
        call = slot.tag
        if call.future.done():
            return  # given up on (a request's deadline passed)
        if slot.error is not None:
            self._resend.append(call)
            return
        (reply,) = slot.results
        if shutting_down(reply.error) and call.attempts < _RECONNECT_MAX:
            call.attempts += 1
            self._resend.append(call)
            try:
                self._reconnect_locked()
            except CommunicationError:
                pass  # stays queued; the next successful reconnect resends
            return
        call.future._complete(reply)

    # -- wait futures (server-parked GetWait) ----------------------------------

    def _on_wait_reply_locked(self, slot: Slot) -> None:
        """The immediate (correlated) answer to one GetWait send; on a
        lost connection the wait is simply re-sent on the next one."""
        wait, (msg,) = slot.tag, slot.results
        if slot.error is not None:
            return
        token = wait.msg.waiter
        if msg.ok and msg.found:
            self._wait_by_token.pop(token, None)
            wait.future._complete(msg.payload)
        elif msg.ok:
            # Parked: the wait is now a server-side table entry; its
            # resolution arrives as a push.  A clean park resets the
            # re-subscription budget — the wait provably reached a home.
            wait.attempts = 0
        elif retryable(msg.error):
            self._resubscribe_locked(wait, msg.error)
        else:
            self._wait_by_token.pop(token, None)
            wait.future._fail(MemoError(msg.error))

    def _resubscribe_locked(self, wait: _Request, reason: str) -> None:
        """Chase a wait whose folder moved or whose server is restarting.

        Migration keeps the connection: the wait simply re-enters routing
        at the server (which now knows the folder's new home).  A
        ``shutdown:`` reason means this server instance is dying — the
        connection is replaced first (mirroring ``request``'s
        kill/restart fail-over), and :meth:`_reconnect_locked` re-sends
        every parked wait on the fresh connection, this one included.
        """
        wait.attempts += 1
        if wait.attempts > _RESUBSCRIBE_MAX:
            self._wait_by_token.pop(wait.msg.waiter, None)
            wait.future._fail(
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
            self._call_locked(wait, self._on_wait_reply_locked)
        except ConnectionClosedError:
            self._discard_connection_locked()

    def _give_up_locked(self, exc: BaseException) -> None:
        """Fail every outstanding future — the connection is gone for good.
        Waits and requests outlive a connection; only this ends them."""
        self._calls.fail(exc)
        for call in [*self._wait_by_token.values(), *self._resend]:
            call.future._fail(exc)
        self._wait_by_token.clear()
        self._resend = []

    # -- deferred acknowledgements ----------------------------------------------

    def _drain_locked(self) -> None:
        """Collect acknowledgements for all outstanding async requests.

        A connection that dies mid-drain is discarded with its remaining
        acks counted as lost; together with any server-reported put
        failure they raise exactly one :class:`MemoError` here — never
        silently forgotten, never double-raised.
        """
        self._drain_until_locked(0)
        self._raise_deferred_locked()

    def _drain_until_locked(self, keep: int) -> None:
        """Wait out the oldest put slots until at most *keep* remain.

        A connection that dies mid-drain is discarded with its remaining
        acks counted lost; the loss surfaces via
        :meth:`_raise_deferred_locked` on the next synchronous call.
        """
        puts = self._puts
        while len(puts) > keep:
            if puts[0].over:
                self._settle_locked(puts.popleft())
                continue
            # Acks mostly come in order: lead until the newest slot that
            # must be in is, settling the older ones as they come.
            newest = puts[len(puts) - keep - 1]
            self._calls.wait(puts[0] if newest.over else newest)

    def _settle_locked(self, slot: Slot) -> None:
        """Book one put slot that is over: the acks it never got are lost,
        and the first failure it was answered with is kept to raise."""
        self._lost_acks += slot.left
        if self._deferred_error is None:
            for reply in slot.results:
                if reply is not None and not reply.ok:
                    self._deferred_error = reply.error
                    return

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

    # -- the connection ----------------------------------------------------------

    def _discard_connection_locked(self) -> None:
        """Drop the current connection; its in-flight state is abandoned.

        Every slot on it fails.  Un-drained acknowledgements die with the
        connection; they are *added* to the lost-ack count (a second loss
        before the first was reported keeps both counts) and surface once
        via :meth:`_raise_deferred_locked` on the next synchronous call.
        Futures are *not* failed here: parked waits keep their tokens for
        re-subscription and ack futures queue for resend — both belong to
        the operation, not the connection, and ride to the next one.
        """
        self._salvage_pushes_locked()
        self._calls.conn.close()
        self._calls.fail(ConnectionClosedError("connection lost"))
        while self._puts:
            self._settle_locked(self._puts.popleft())

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
        conn = self._calls.conn
        if conn.closed:
            return
        for _ in range(10_000):
            try:
                msg, _cid = recv_tagged(conn, 0.005)
            except (TimeoutError, MemoError):
                return
            if isinstance(msg, MemoReady):
                self._pushed(msg.waiter, msg.payload, None)

    def _reconnect_locked(self) -> None:
        self._discard_connection_locked()
        time.sleep(_RECONNECT_PAUSE)
        self._calls.conn = self._transport.connect(self.server_address)
        self._resubscribe_all_locked()

    def _resubscribe_all_locked(self) -> None:
        """Re-send every parked wait and queued request on a fresh connection.

        A send failure aborts quietly: the connection died again, and the
        next reconnect (driven by whichever call observes the loss)
        retries the remainder — nothing is dropped, nothing double-sent.
        """
        try:
            for wait in list(self._wait_by_token.values()):
                if not wait.future.done():
                    self._call_locked(wait, self._on_wait_reply_locked)
            while self._resend:
                if not self._resend[0].future.done():
                    self._call_locked(self._resend[0], self._replied)
                self._resend.pop(0)
        except CommunicationError:
            pass

    def request(
        self, msg: object, timeout: float | None = None, drain: bool = True
    ) -> Reply:
        """Send *msg* and wait for its reply (draining async acks first).

        The request is tagged with a fresh correlation id and the reply is
        matched by id, so replies the server returns out of order (or
        stale frames) can never be mistaken for it.  A timeout discards
        the connection and reconnects for subsequent calls.  A connection
        closed under the request — e.g. the server was killed — resends it
        over a fresh one, as does a reply from a server answering
        mid-teardown (up to :data:`_RECONNECT_MAX` times); a server that
        does not come back fails it, as it fails every future.

        ``drain=False`` skips the deferred-acknowledgement drain (and its
        raise): housekeeping requests like a wait cancellation must not
        *consume* a pending put failure that belongs to the next real
        synchronous call.
        """
        with self._lock:
            if drain:
                self._drain_locked()
            call = _Request(msg, MemoFuture(step=self._pump_locked))
            self._send_locked(lambda: self._call_locked(call, self._replied))
            try:
                return call.future.result(timeout)
            except TimeoutError:
                call.future._fail(TimeoutError("request timed out"))  # no resend
                try:
                    self._reconnect_locked()
                except CommunicationError:
                    pass  # the timeout is what the caller must see
                raise

    def post(self, msg: object) -> None:
        """Send *msg* without waiting; its tagged ack is drained later."""
        with self._lock:
            cid = self._calls.reserve()
            self._send_burst_locked([encode_message(msg, cid)], cid)

    def _send_locked(
        self, send: Callable[[], None], resubscribes: bool = False
    ) -> None:
        """Run *send* on the current connection — the one resend rule.

        A connection that closes under the send is replaced, up to
        :data:`_RECONNECT_MAX` times, and the send repeated on the fresh
        one; a send that raises leaves no slot open (a burst opens its
        slot once its bytes went out, :meth:`_call_locked` forgets its
        slot), so a repeat never double-counts.  *resubscribes* marks a
        send the reconnect itself repeats (a parked wait rides every fresh
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
        :class:`PipelineBatch` wire message, one slot — so the transport
        is paid per burst, not per memo.  *msgs* is consumed lazily, so a
        generator producer overlaps its encoding with the server already
        working the earlier bursts.  Once :data:`_MAX_BURSTS` bursts are
        outstanding the older half is drained before sending more (flow
        control — unread acks must not back up into the server's sends).
        On a connection loss the current (unsent) burst is resent on the
        fresh connection; acknowledgements of bursts already on the dead
        wire are counted lost and surface as the usual single deferred
        error.
        """
        with self._lock:
            reserve = self._calls.reserve
            frames: list[bytes] = []
            add, encode = frames.append, encode_message
            first = cid = reserve(_BATCH_FRAMES)
            for msg in msgs:
                add(encode(msg, cid))
                cid += 1
                if len(frames) >= _BATCH_FRAMES:
                    self._send_burst_locked(frames, first)
                    frames = []
                    add = frames.append
                    first = cid = reserve(_BATCH_FRAMES)
                    if len(self._puts) >= _MAX_BURSTS:
                        self._drain_until_locked(_MAX_BURSTS // 2)
            if frames:
                self._send_burst_locked(frames, first)

    def _send_burst_locked(self, frames: list[bytes], first: int) -> None:
        """Send one coalesced burst, ids from *first*; its slot opens only
        after the send succeeds, so a resend never double-counts them."""
        def send() -> None:
            conn = self._calls.conn
            if len(frames) == 1:
                conn.send(frames[0])
            else:
                send_message(conn, PipelineBatch(tuple(frames)))
            self._puts.append(self._calls.open(len(frames), first=first))

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
            token = self._calls.reserve()
            request = GetWaitRequest(
                folder=folder, mode=mode, waiter=token, origin=self.origin
            )
            future = MemoFuture(
                step=self.pump,
                cancel_impl=lambda: self.cancel_wait(token),
                transform=transform,
            )
            wait = _Request(request, future)
            self._wait_by_token[token] = wait
            try:
                self._send_locked(
                    lambda: self._call_locked(wait, self._on_wait_reply_locked),
                    resubscribes=True,
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
            call = _Request(msg, MemoFuture(step=self.pump, transform=_checked))
            self._send_locked(lambda: self._call_locked(call, self._replied))
        return call.future

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
            wait = self._wait_by_token.get(token)
            if wait is None or wait.future.done():
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
            return self._wait_by_token.pop(token, None) is wait

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
            return self._pump_locked(timeout)

    def _pump_locked(self, timeout: float | None) -> bool:
        try:
            if self._calls.read_one(timeout):
                return True
        except TimeoutError:
            return False
        for attempt in range(1, _RECONNECT_MAX + 1):
            try:
                self._reconnect_locked()
                return True
            except CommunicationError as exc:
                if attempt == _RECONNECT_MAX:
                    self._give_up_locked(
                        ConnectionClosedError(
                            f"connection to {self.server_address} lost and "
                            f"not recovered: {exc}"
                        )
                    )
        return True

    # -- housekeeping ----------------------------------------------------------

    def flush(self) -> None:
        """Wait for all outstanding async acknowledgements."""
        with self._lock:
            self._drain_locked()

    @property
    def pending_acks(self) -> int:
        """Outstanding un-drained acknowledgements (diagnostics)."""
        with self._lock:
            return sum(slot.left for slot in self._puts)

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
            if self._puts and not self._calls.conn.closed:
                self._drain_until_locked(0)
            message = self._ack_failure_message(self._deferred_error, lost_before)
            self._deferred_error = None
            self._lost_acks = 0
            self._give_up_locked(ConnectionClosedError("memo client closed"))
            self._calls.conn.close()
        if message is not None:
            raise MemoError(message)

    def __enter__(self) -> "MemoClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
