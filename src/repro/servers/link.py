"""One link per peer: every exchange a memo server has with a peer rides it.

A memo server reaches the *next hop* toward a peer (paper sections 4.1
and 5) over one long-lived connection, a :class:`PeerLink`.  Forwards,
replica copies, bursts, heartbeats, anti-entropy pulls, relayed waits and
their cancels are correlated requests on it, and whoever reads it hands
each reply to what waits on the id: a call's slot, or a
:class:`ParkedWaiter`.  A call that finds nobody reading the link reads it
itself until its own reply arrives (it *leads*), as does the thread that
relays a wait, until the owner's first answer: a lone exchange is one
send and one read on the calling thread.  A standing reader runs only
while parked waits, cancels or calls no leader reads for are
outstanding.  A call waits at most its :data:`DEADLINES` entry, but a
consuming read waits for its reply as a relayed wait, parked in the
owner's table, does: until a reply, a push or the loss of the link ends it.
What this module calls on a session: ``complete_waiter``, ``ack_parked``
and ``relay_ended``.
"""

from __future__ import annotations

import itertools
import threading
import time

from repro.core.keys import FolderName
from repro.core.memo import MemoRecord
from repro.errors import (
    CommunicationError,
    ConnectionClosedError,
    ProtocolError,
    ServerError,
)
from repro.network.codec import encode_message, recorrelate, tag_of
from repro.network.connection import Connection
from repro.network.protocol import (
    PUT_ACK,
    Acks,
    BurstEnvelope,
    CancelWaitRequest,
    DeltaSyncPull,
    ForwardEnvelope,
    GetAltSkipRequest,
    GetRequest,
    Heartbeat,
    MemoReady,
    Reply,
    WaitCancelled,
    decode_reply,
    send_message,
)
from repro.servers.threadcache import (
    HAND_OFF_AFTER,
    Reader,
    ThreadCache,
    await_peer,
    hand_off,
)

__all__ = ["DEADLINES", "ParkedWaiter", "PeerLink"]

#: Seconds a call on a link waits for its reply, by the class of the
#: request it sent: the one table of peer deadlines (a missed one counts
#: as a failed probe).  A consuming read (:func:`_consuming`) has none.
DEADLINES: dict[type, float] = {
    ForwardEnvelope: 30.0,
    BurstEnvelope: 30.0,
    DeltaSyncPull: 10.0,
    Heartbeat: 1.0,
}

#: Longest a leader reads before it looks at its call again: how soon it
#: sees the call failed by the detector (:meth:`PeerLink.fail_calls`).
_READ_SLICE = 0.05

_CONSUMING_TAGS = frozenset(map(tag_of, (GetRequest, GetAltSkipRequest)))


def _consuming(request: object) -> bool:
    """Whether *request* carries a ``get_skip`` or ``get_alt``: a call
    never abandoned while its link lives, as a peer that froze serves it
    when it thaws, and the memo it takes must find its caller."""
    return type(request) is ForwardEnvelope and request.inner[3] in _CONSUMING_TAGS


class ParkedWaiter:
    """One waiter-table entry: a parked GetWait and where it waits.

    ``home`` holds the wait and ``handle`` names it there: the local
    :class:`~repro.servers.folder_server.FolderServer` and its
    ``AsyncWaiter`` when this host serves the folder, the
    :class:`PeerLink` toward the owner and the relay token when another
    host does.  Both answer ``cancel_waiter(folder, handle)`` and neither
    holds a thread.  A relayed entry also keeps the host it was aimed at
    (``target``) and the hosts it had already crossed when it got here
    (``trail``; empty where the wait started), and ``owed``: the
    correlation id still waiting for the GetWait's reply while the wait
    is relayed (None once it is answered, and for a wait parked here,
    which is answered at once).  Whoever sets it back to None, under the
    session lock, sends that one reply.
    """

    __slots__ = (
        "token",
        "folder",
        "mode",
        "origin",
        "home",
        "handle",
        "target",
        "trail",
        "attempts",
        "owed",
    )

    def __init__(self, token: int, folder: FolderName, mode: str, origin: str) -> None:
        self.token = token
        self.folder = folder
        self.mode = mode
        self.origin = origin
        self.home = None
        self.handle = None
        self.target: str | None = None
        self.trail: tuple[str, ...] = ()
        #: Consecutive re-parks that did not reach a clean park.
        self.attempts = 0
        self.owed: int | None = None


class _Call:
    """A caller's completion slot: the request, one result per correlation
    id it sent, and a lock released once all are in, or the call failed."""

    __slots__ = ("request", "done", "results", "left", "error")

    def __init__(self, request: object, n: int) -> None:
        self.request = request
        self.done = threading.Lock()
        self.done.acquire()
        self.results: list = [None] * n
        self.left = n
        self.error: Exception | None = None


class PeerLink(Reader):
    """A memo server's long-lived correlated connection to one next hop.

    Ids — of calls, burst members, relayed waits (their tokens) and
    cancels — come from one counter per link.  At most one thread reads
    the link at a time.  A call that finds nobody reading leads: it reads
    on its own thread until its reply is in, filling other calls' slots on
    the way; a call that finds a reader waits for it.  A relayed wait's
    first answer is read the same way (:meth:`relay`).  A leader done
    while anything is still outstanding starts the standing reader
    (:meth:`serve`), which stops after the frame that leaves nothing
    outstanding.  A leader or the standing reader that meets a lost link
    retires it.  Whoever reads hands a relayed wait's answer to the
    session entry that parked it: ``complete_waiter`` for a memo,
    ``ack_parked`` when it parked beyond, ``relay_ended`` for anything
    else, a lost link included.  ``heard`` is when the link last received
    a frame.
    """

    def __init__(self, host: str, conn: Connection, origin: str, cache: ThreadCache):
        self.host = host
        self.conn = conn
        self.heard = float("-inf")
        self.reader_cache = cache
        self._ids = itertools.count(1)
        self._origin = origin
        self._lock = threading.Lock()
        self.retired = False
        #: Correlation id -> (call slot, index of its result).
        self._calls: dict[int, tuple[_Call, int]] = {}
        #: Relay token -> (session, entry) of each wait parked beyond here.
        self._waits: dict[int, tuple] = {}
        #: Correlation id of an unanswered cancel -> the token it withdraws.
        self._cancels: dict[int, int] = {}
        #: Tokens of the relayed waits whose first answer has not come.
        self._unanswered: set[int] = set()
        #: Whether a thread reads the link: a leader, or the standing reader.
        self._read = False

    @property
    def answered(self) -> bool:
        """Whether the link ever received a frame."""
        return self.heard != float("-inf")

    # -- calls ----------------------------------------------------------------
    #
    # A call returns ``(results, error)``: one reply per request, None where
    # none came, and what cut it short — ConnectionClosedError (the send
    # failed, or the link was lost or reset), the error its peer was
    # suspected with, or TimeoutError (no reply within the request's
    # deadline).

    def call(self, message: object) -> tuple:
        """Send the request *message* and wait for its reply."""
        cid = next(self._ids)
        return self._exchange(message, encode_message(message, corr_id=cid), (cid,))

    def burst(self, app: str, target: str, entries: list, trail: tuple) -> tuple:
        """Send lane requests as one :class:`BurstEnvelope` and wait for
        their replies.  *entries* are ``(message, raw_frame_or_None)``
        pairs; a raw correlated frame travels with its body untouched,
        under a link id."""
        cids = [next(self._ids) for _ in entries]
        frames = tuple(
            encode_message(msg, corr_id=cid) if raw is None else recorrelate(raw, cid)
            for (msg, raw), cid in zip(entries, cids)
        )
        burst = BurstEnvelope(app=app, target_host=target, frames=frames, trail=trail)
        return self._exchange(burst, encode_message(burst), cids)

    def _exchange(self, request: object, frame: bytes, cids) -> tuple:
        deadline = None if _consuming(request) else DEADLINES[type(request)]
        call = _Call(request, len(cids))
        with self._lock:
            if self.retired:
                return call.results, ConnectionClosedError("link retired")
            self._calls.update((cid, (call, i)) for i, cid in enumerate(cids))
            lead, self._read = not self._read, True
        try:
            self.conn.send(frame)
        except CommunicationError as exc:
            self.conn.close()  # whoever reads the link retires it
            self._forget(cids)
            if lead:
                self._lose()
            return call.results, ConnectionClosedError(f"to {self.host}: {exc}")
        until = None if deadline is None else time.monotonic() + deadline
        if lead and not self._lead(call.done.locked, until, cids):
            over = not call.done.locked()
        else:
            # Made on the thread that reads this link (a memo re-deposited
            # from the push it is delivering): nobody else would read the
            # reply, so that reading goes on at once.
            self.hand_on()
            left = None if until is None else until - time.monotonic()
            over = await_peer(call.done, left)
        if not over:
            self._forget(cids)
            if call.left and call.error is None:
                late = TimeoutError(f"no reply from {self.host} in {deadline} s")
                return call.results, late
        return call.results, call.error

    def _lead(self, pending, until: float | None = None, cids=()) -> bool:
        """Read the link on this thread while ``pending()``, until *until*
        passes (*cids* are then forgotten), in slices: the detector may
        fail a call meanwhile.  Past :data:`HAND_OFF_AFTER` it hands on
        the other reading this thread does, as :func:`await_peer` would.
        True if its own reading of the link was handed on first: the
        caller then waits for the new reader.
        """
        held = self.take_reading()
        now = time.monotonic()
        hand_at: float | None = now + HAND_OFF_AFTER
        try:
            while pending():
                if until is not None and now >= until:
                    self._forget(cids)
                    break
                if hand_at is not None and now >= hand_at:
                    hand_off(keep=self)
                    hand_at = None
                timeout = _READ_SLICE if hand_at is None else hand_at - now
                if until is not None:
                    timeout = min(timeout, until - now)
                try:
                    got = self._receive(timeout)
                except TimeoutError:
                    pass
                else:
                    if got is None:
                        self._lose()
                        break
                    self._take(*got)
                    if self not in held:
                        return True
                now = time.monotonic()
        finally:
            if self in held:
                held.remove(self)
                self._release()
        return False

    def _release(self) -> None:
        """A leader is done: the standing reader reads on while anything
        is outstanding."""
        with self._lock:
            busy = self._calls or self._waits or self._cancels
            self._read = bool(busy) and not self.retired
            if not self._read:
                return
        try:
            self.read_on()
        except ServerError:  # stopping: the links are retired next
            with self._lock:
                self._read = False

    def _forget(self, cids) -> None:
        with self._lock:
            for cid in cids:
                self._calls.pop(cid, None)

    # -- relayed waits --------------------------------------------------------

    def park(self, session: object, entry: ParkedWaiter) -> int | None:
        """Take charge of *entry* and become its home; returns its relay
        token, or None once retired (the caller dials a fresh link).
        From here the wait's fate is the reader's, whatever happens to
        the send — the caller must not touch the entry again."""
        token = next(self._ids)
        with self._lock:
            if self.retired:
                return None
            entry.home, entry.handle = self, token
            self._waits[token] = (session, entry)
            self._unanswered.add(token)
        return token

    def relay(self, message: object, token: int) -> None:
        """Send the wait *message* parked under *token*.  A caller that
        finds nobody reading the link reads it until the wait's first
        answer, as a call does; the standing reader reads on while the
        wait stays parked."""
        with self._lock:
            lead, self._read = not self._read, True
        self.send(message, token)
        if lead:
            self._lead(lambda: token in self._unanswered)

    def send(self, message: object, cid: int) -> None:
        """Send *message* under *cid* with no call waiting on it."""
        try:
            send_message(self.conn, message, corr_id=cid)
        except CommunicationError:
            # A link that cannot send is lost: closing it wakes its
            # reader, which hands every wait it carries back for
            # re-parking.
            self.conn.close()

    def cancel_waiter(self, folder: FolderName, token: int) -> None:
        """Detach the wait parked beyond this link under *token* — what
        :meth:`FolderServer.cancel_waiter` is to a local one.  The entry
        stays until the peer confirms: a push already on the wire must
        still find it, to be re-deposited."""
        cid = next(self._ids)
        with self._lock:
            if token not in self._waits:
                return
            self._cancels[cid] = token
        self.send(CancelWaitRequest(waiter=token, origin=self._origin), cid)

    # -- reading --------------------------------------------------------------

    def _receive(self, timeout: float | None = None) -> tuple | None:
        """The next frame's message and id — or None once the link is
        lost (a bad frame loses it).  Raises TimeoutError when *timeout*
        passes first."""
        try:
            msg, cid = decode_reply(self.conn.recv(timeout))
        except (ConnectionClosedError, ProtocolError):
            return None
        self.heard = time.monotonic()
        return msg, cid

    def _take(self, msg: object, cid: int | None) -> None:
        """Hand on what a received frame answers: an :class:`Acks`
        frame's every id as :data:`PUT_ACK`."""
        if type(msg) is Acks:
            self._on_replies([(PUT_ACK, acked) for acked in msg.cids])
        elif type(msg) is MemoReady:
            self._end(msg.waiter, msg.payload, None)
        elif type(msg) is WaitCancelled:
            self._end(msg.waiter, None, msg.reason)
        else:
            self._on_replies(((msg, cid),))

    def read_one(self) -> bool | None:
        """The standing reader: read one frame and hand on what it answers.
        False once the link is lost; None after the frame that left
        nothing outstanding."""
        got = self._receive()
        if got is None:
            return False
        self._take(*got)
        if not self.reads_here():
            return True  # handed on meanwhile: the new reader decides
        with self._lock:
            if self._calls or self._waits or self._cancels:
                return True
            self._read = False
        return None

    def read_ended(self) -> None:
        self._lose()

    def _lose(self) -> None:
        """The link was lost: retire it, and hand its waits back."""
        lost = ConnectionClosedError(f"link to {self.host} lost")
        for session, entry in self.retire(lost):
            session.relay_ended(entry, f"shutdown: link to {self.host} lost")

    def fail_calls(self, error: Exception) -> None:
        """Fail with *error* every call but a consuming read; the link and
        its waits stay (:func:`_consuming`)."""
        self._fail(error, lambda request: not _consuming(request))

    def retire(self, error: Exception) -> list[tuple]:
        """Close the link and fail every call on it with *error*; returns
        the ``(session, entry)`` pairs of the waits it still carried,
        whose fate is now the caller's."""
        with self._lock:
            self.retired = True
            carried = list(self._waits.values())
            self._waits.clear()
            self._unanswered.clear()
        self.conn.close()
        self._fail(error, lambda _request: True)
        return carried

    def _fail(self, error: Exception, chosen) -> None:
        with self._lock:
            failed = {
                cid: call
                for cid, (call, _i) in self._calls.items()
                if chosen(call.request)
            }
            for cid in failed:
                del self._calls[cid]
        for call in {id(call): call for call in failed.values()}.values():
            call.error = error
            call.done.release()

    def _on_replies(self, replies) -> None:
        """Hand each ``(reply, id)`` in *replies* to what waits on the id."""
        answered = []
        with self._lock:
            for reply, cid in replies:
                if type(reply) is not Reply or cid is None:
                    continue
                waiting = self._calls.pop(cid, None)
                if waiting is not None:
                    call, index = waiting
                    call.results[index] = reply
                    call.left -= 1
                    if not call.left:
                        call.done.release()
                    continue
                token = self._cancels.pop(cid, None)
                if token is not None:
                    if reply.ok and not reply.found:
                        # Withdrawn at the peer: no push will ever follow.
                        self._waits.pop(token, None)
                    continue
                answered.append((reply, cid, self._waits.get(cid)))
                self._unanswered.discard(cid)
        for reply, token, parked in answered:
            if not reply.ok:
                self._end(token, None, reply.error)
            elif reply.found:
                self._end(token, reply.payload, None)
            elif parked is not None:
                session, entry = parked
                entry.attempts = 0  # provably reached a home
                session.ack_parked(entry)

    def _end(self, token: int, payload: bytes | None, reason: str | None) -> None:
        with self._lock:
            session, entry = self._waits.pop(token, (None, None))
            self._unanswered.discard(token)
        if session is None:
            return
        if reason is None:
            record = MemoRecord(payload=payload, origin=entry.origin)
            session.complete_waiter(entry, record, None)
        else:
            session.relay_ended(entry, reason)
