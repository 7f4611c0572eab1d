"""One link per peer: every exchange a memo server has with a peer rides it.

A memo server reaches the *next hop* toward a peer (paper sections 4.1
and 5) over one long-lived connection, a :class:`PeerLink`.  Forwards,
replica copies, bursts, heartbeats, anti-entropy pulls, relayed waits and
their cancels are correlated requests on it, and they run on the
correlated-call engine the client runs too
(:class:`~repro.network.calls.Calls`): each is a slot, and whoever reads
the link hands each reply to its slot.  A call waits on its slot; a
relayed wait's first answer and a cancel's reply are slot callbacks, and
the wait's memo or end comes as a push to its :class:`ParkedWaiter`.  A
caller that finds nobody reading the link reads it itself (it *leads*),
as does the thread that relays a wait, until the owner's first answer: a
lone exchange is one send and one read on the calling thread.  The link
is the engine's reading role: a standing reader runs only while parked
waits, or slots no leader reads for, are outstanding.  A call waits at
most its :data:`DEADLINES` entry, but a consuming read waits for its
reply as a relayed wait, parked in the owner's table, does: until a
reply, a push or the loss of the link ends it.  What this module calls on
a session: ``complete_waiter``, ``ack_parked`` and ``relay_ended``.
"""

from __future__ import annotations

import time

from repro.core.keys import FolderName
from repro.core.memo import MemoRecord
from repro.errors import CommunicationError, ConnectionClosedError, ServerError
from repro.network.calls import Calls, Role, Slot
from repro.network.codec import encode_message, recorrelate, tag_of
from repro.network.connection import Connection
from repro.network.protocol import (
    BurstEnvelope,
    CancelWaitRequest,
    DeltaSyncPull,
    ForwardEnvelope,
    GetAltSkipRequest,
    GetRequest,
    Heartbeat,
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


class PeerLink(Reader, Role):
    """A memo server's long-lived correlated connection to one next hop.

    Ids — of calls, burst members, relayed waits (their tokens) and
    cancels — come from its engine's one counter.  At most one thread
    reads the link at a time: a leader, or the standing reader
    (:meth:`serve`), which a leader done while anything is still
    outstanding starts, and which stops after the frame that leaves
    nothing outstanding.  A leader or the standing reader that meets a
    lost link retires it.  Whoever reads hands a relayed wait's answer to
    the session entry that parked it: ``complete_waiter`` for a memo,
    ``ack_parked`` when it parked beyond, ``relay_ended`` for anything
    else, a lost link included.
    """

    def __init__(self, host: str, conn: Connection, origin: str, cache: ThreadCache):
        self.host = host
        self.conn = conn
        self.reader_cache = cache
        self._origin = origin
        self.calls = Calls(conn, self._end, self._lose, self)
        self._lock = self.calls.lock
        self.retired = False
        #: Relay token -> (session, entry) of each wait parked beyond here.
        self._waits: dict[int, tuple] = {}

    @property
    def answered(self) -> bool:
        """Whether the link ever received a frame."""
        return self.calls.heard != float("-inf")

    # -- calls ----------------------------------------------------------------
    #
    # A call returns ``(results, error)``: one reply per request, None where
    # none came, and what cut it short — ConnectionClosedError (the link
    # was lost, reset or retired), the error its peer was suspected with,
    # or TimeoutError (no reply within the request's deadline).

    def call(self, message: object) -> tuple:
        """Send the request *message* and wait for its reply."""
        slot = self.calls.open(tag=message)
        return self._exchange(slot, slot.first)

    def burst(self, app: str, target: str, entries: list, trail: tuple) -> tuple:
        """Send lane requests as one :class:`BurstEnvelope` and wait for
        their replies.  *entries* are ``(message, raw_frame_or_None)``
        pairs; a raw correlated frame travels with its body untouched,
        under a link id."""
        first = self.calls.reserve(len(entries))
        frames = tuple(
            encode_message(msg, corr_id=cid) if raw is None else recorrelate(raw, cid)
            for cid, (msg, raw) in enumerate(entries, first)
        )
        burst = BurstEnvelope(app=app, target_host=target, frames=frames, trail=trail)
        return self._exchange(self.calls.open(len(entries), tag=burst, first=first))

    def _exchange(self, slot: Slot, cid: int | None = None) -> tuple:
        """Send the request *slot* waits on (its ``tag``), under *cid*."""
        request = slot.tag
        if self.retired or not self.send(request, cid):
            # Lost, or retired after its slots were failed: a caller that
            # finds nobody reading meets the loss and retires the link,
            # and the call fails now either way.
            self.calls.wait(slot, follow=False)
            lost = ConnectionClosedError(f"link to {self.host} lost")
            self.calls.fail(lost, lambda other: other is slot)
        else:
            deadline = None if _consuming(request) else DEADLINES[type(request)]
            until = None if deadline is None else time.monotonic() + deadline
            self.calls.wait(slot, until)
        return slot.results, slot.error

    # -- relayed waits --------------------------------------------------------

    def park(self, session: object, entry: ParkedWaiter) -> Slot | None:
        """Take charge of *entry* and become its home; returns the slot its
        first answer comes to, whose id is its relay token, or None once
        retired (the caller dials a fresh link).  From here the wait's fate
        is the reader's, whatever happens to the send — the caller must
        not touch the entry again."""
        slot = self.calls.open(then=self._answered)
        with self._lock:
            if not self.retired:
                entry.home, entry.handle = self, slot.first
                self._waits[slot.first] = (session, entry)
                return slot
        self.calls.forget(slot)
        return None

    def relay(self, message: object, slot: Slot) -> None:
        """Send the wait *message* parked under *slot*'s token.  A caller
        that finds nobody reading the link reads it until the wait's first
        answer, as a call does; the standing reader reads on while the
        wait stays parked."""
        self.send(message, slot.first)
        self.calls.wait(slot, follow=False)

    def _answered(self, slot: Slot) -> None:
        """A relayed wait's first answer: a hit ends it, as an error does;
        a clean park is acked to the session that parked it."""
        (reply,), token = slot.results, slot.first
        if slot.error is not None:
            return  # the link was lost: whoever retired it re-parks the wait
        if not reply.ok:
            self._end(token, None, reply.error)
        elif reply.found:
            self._end(token, reply.payload, None)
        else:
            with self._lock:
                parked = self._waits.get(token)
            if parked is not None:
                session, entry = parked
                entry.attempts = 0  # provably reached a home
                session.ack_parked(entry)

    def send(self, message: object, cid: int | None) -> bool:
        """Send *message* under *cid*; whether it went out.  A link that
        cannot send is lost: closing it makes whoever reads it retire it."""
        try:
            send_message(self.conn, message, corr_id=cid)
        except CommunicationError:
            self.conn.close()
            return False
        return True

    def cancel_waiter(self, folder: FolderName, token: int) -> None:
        """Detach the wait parked beyond this link under *token* — what
        :meth:`FolderServer.cancel_waiter` is to a local one.  The entry
        stays until the peer confirms: a push already on the wire must
        still find it, to be re-deposited."""
        with self._lock:
            if token not in self._waits:
                return
        slot = self.calls.open(then=self._withdrawn, tag=token)
        self.send(CancelWaitRequest(waiter=token, origin=self._origin), slot.first)

    def _withdrawn(self, slot: Slot) -> None:
        (reply,) = slot.results
        if slot.error is None and reply.ok and not reply.found:
            # Withdrawn at the peer: no push will ever follow.
            with self._lock:
                self._waits.pop(slot.tag, None)

    def _end(self, token: int, payload: bytes | None, reason: str | None) -> None:
        """The push hook: the wait parked under *token* got a memo, or ended."""
        with self._lock:
            session, entry = self._waits.pop(token, (None, None))
        if session is None:
            return
        if reason is None:
            record = MemoRecord(payload=payload, origin=entry.origin)
            session.complete_waiter(entry, record, None)
        else:
            session.relay_ended(entry, reason)

    # -- reading: the engine's role, and the standing reader ------------------

    def lead(self) -> None:
        self.take_reading()

    def leading(self, waited: float) -> bool:
        """Past :data:`HAND_OFF_AFTER` a leader hands on the other reading
        its thread holds, as :func:`await_peer` would."""
        if waited >= HAND_OFF_AFTER:
            hand_off(keep=self)
        return self.reads_here()

    reads_on = True

    def led(self, busy: bool) -> bool:
        """A leader is done: the standing reader reads on while anything
        is outstanding."""
        self.drop_reading()
        if not busy:
            return False
        try:
            self.read_on()
        except ServerError:  # stopping: the links are retired next
            return False
        return True

    def busy(self) -> bool:
        return bool(self._waits)

    def follow(self, done, left: float | None) -> bool:
        # Made on the thread that reads this link (a memo re-deposited
        # from the push it is delivering): nobody else would read the
        # reply, so that reading goes on at once.
        self.hand_on()
        return await_peer(done, left)

    def read_one(self) -> bool | None:
        """The standing reader: read one frame and hand on what it answers.
        False once the link is lost; None after the frame that left
        nothing outstanding."""
        if not self.calls.read_one():
            return False
        if not self.reads_here():
            return True  # handed on meanwhile: the new reader decides
        return None if self.calls.quiet() else True

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
        self.calls.fail(
            error, lambda slot: slot.then is None and not _consuming(slot.tag)
        )

    def retire(self, error: Exception) -> list[tuple]:
        """Close the link and fail every call on it with *error*; returns
        the ``(session, entry)`` pairs of the waits it still carried,
        whose fate is now the caller's."""
        with self._lock:
            self.retired = True
            carried = list(self._waits.values())
            self._waits.clear()
        self.conn.close()
        self.calls.fail(error)
        return carried
