"""One link per peer: every exchange a memo server has with a peer rides it.

A memo server reaches the *next hop* toward a peer (paper sections 4.1
and 5) over one long-lived connection, a :class:`PeerLink`.  Forwards,
relayed hops, replica copies, bursts and relayed waits are the members of
an :class:`~repro.network.protocol.Envelope` (:meth:`PeerLink.forward`,
:meth:`PeerLink.relay`); heartbeats, anti-entropy pulls and wait cancels
are correlated requests of their own.  All of them run on the
correlated-call engine the client runs too
(:class:`~repro.network.calls.Calls`): each is a slot, and whoever reads
the link hands each reply to its slot.  A forward's reply, a relayed
wait's first answer and a cancel's reply finish their request through the
slot's ``then``; only a caller that reads nothing — the heartbeat monitor,
a test — waits on its slot.  A caller that finds nobody reading the link
reads it itself (it *leads*): a waiting one until its reply, any other
for at most one slice, so a lone exchange is one send and one read on the
calling thread.  The link is the engine's reading role: a standing reader
runs only while parked waits, or slots no leader reads for, are
outstanding.  A call fails past its :data:`DEADLINES` entry, but a
consuming read waits for its reply as a relayed wait, parked in the
owner's table, does: until a reply, a push or the loss of the link ends
it.  What this module calls on a session: ``complete_waiter``,
``ack_parked`` and ``relay_ended``.
"""

from __future__ import annotations

import time

from repro.core.keys import FolderName
from repro.core.memo import MemoRecord
from repro.errors import CommunicationError, ConnectionClosedError, ServerError
from repro.network.calls import Calls, Role, Slot
from repro.network.codec import encode_fields, encode_message, recorrelate
from repro.network.connection import Connection
from repro.network.protocol import (
    CancelWaitRequest,
    DeltaSyncPull,
    Envelope,
    GetAltSkipRequest,
    GetRequest,
    GetWaitRequest,
    Heartbeat,
)
from repro.servers.threadcache import ThreadCache

__all__ = ["DEADLINES", "ParkedWaiter", "PeerLink"]

#: Seconds a call on a link waits for its reply, by the class of the
#: request it sent: the one table of peer deadlines (a missed one counts
#: as a failed probe).  A consuming read (:func:`_consuming`) has none.
DEADLINES: dict[type, float] = {
    Envelope: 30.0,
    DeltaSyncPull: 10.0,
    Heartbeat: 1.0,
}

_CONSUMING = (GetRequest, GetAltSkipRequest)


def _consuming(entries: list) -> bool:
    """Whether an enveloped call's *entries* hold a ``get_skip`` or
    ``get_alt``: a call never abandoned while its link lives, as a peer
    that froze serves it when it thaws, and the memo it takes must find
    its caller."""
    for msg, _raw in entries:
        if type(msg) in _CONSUMING:
            return True
    return False


def _answers(then):
    """A slot's ``then`` that hands *then* its ``(results, error)``."""
    return None if then is None else lambda slot: then(slot.results, slot.error)


def _envelope(app: str, target: str, entries: list, trail: tuple, first: int) -> bytes:
    """The frame of one :class:`Envelope` of *entries*, under the ids from
    *first*: a raw member is its frame with the id swapped
    (``recorrelate``), and only a message this server built is encoded.
    No ``Envelope`` object is built to be encoded."""
    frames = [
        encode_message(msg, cid) if raw is None else recorrelate(raw, cid)
        for cid, (msg, raw) in enumerate(entries, first)
    ]
    return encode_fields(Envelope, app, target, frames, trail)


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


class PeerLink(Role):
    """A memo server's long-lived correlated connection to one next hop.

    Ids — of calls, envelope members, relayed waits (their tokens) and
    cancels — come from its engine's one counter.  At most one thread
    reads the link at a time: a leader, or the standing reader
    (:meth:`serve`), which a leader done while anything is still
    outstanding starts, and which stops once nothing is.  A leader or
    the standing reader that meets a lost link retires it.  Whoever
    reads hands a relayed wait's answer to the session entry that parked
    it: ``complete_waiter`` for a memo, ``ack_parked`` when it parked
    beyond, ``relay_ended`` for anything else, a lost link included.
    """

    def __init__(self, host: str, conn: Connection, origin: str, cache: ThreadCache):
        self.host = host
        self.conn = conn
        self._cache = cache
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
    # A call's slot ends with one reply per request, None where none came,
    # and ``error``, what cut it short — ConnectionClosedError (the link was
    # lost, reset or retired), the error its peer was suspected with, or
    # TimeoutError (no reply within the request's deadline).  Given a
    # ``then``, ``then(results, error)`` runs once it is over; else the call
    # waits and returns ``(results, error)``.

    def call(self, message: object, then=None) -> tuple:
        """Send the request *message* (a heartbeat or a pull)."""
        until = time.monotonic() + DEADLINES[type(message)]
        slot = self.calls.open(then=_answers(then), until=until)
        return self._exchange(slot, encode_message(message, slot.first))

    def forward(self, app: str, target: str, entries: list, trail: tuple, then=None):
        """Send requests to *target* as one :class:`Envelope`.  *entries*
        are ``(message, raw_frame_or_None)`` pairs; a raw correlated frame
        travels with its body untouched, under a link id."""
        until = None if _consuming(entries) else time.monotonic() + DEADLINES[Envelope]
        slot = self.calls.open(len(entries), then=_answers(then), until=until)
        return self._exchange(slot, _envelope(app, target, entries, trail, slot.first))

    def _exchange(self, slot: Slot, frame: bytes) -> tuple:
        """Send *frame*, whose requests *slot* waits on."""
        if self.retired or not self.send(frame):
            # Lost, or retired after its slots were failed: a caller that
            # finds nobody reading meets the loss and retires the link,
            # and the call fails now either way.
            self.calls.lead(slot)
            lost = ConnectionClosedError(f"link to {self.host} lost")
            self.calls.fail(lost, lambda other: other is slot)
        elif slot.then is None:
            self.calls.wait(slot, slot.until)
        else:
            self.calls.lead(slot)
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

    def relay(
        self, app: str, target: str, wait: GetWaitRequest, trail: tuple, slot: Slot
    ) -> None:
        """Send *wait*, parked under *slot*'s token, toward *target* as an
        envelope of one, the token its member's id.  A caller that finds
        nobody reading the link leads its read, as a call's does; the
        standing reader reads on while the wait stays parked."""
        self.send(_envelope(app, target, [(wait, None)], trail, slot.first))
        self.calls.lead(slot)

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

    def send(self, frame: bytes) -> bool:
        """Send *frame*; whether it went out.  A link that cannot send is
        lost: closing it makes whoever reads it retire it."""
        try:
            self.conn.send(frame)
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
        cancel = CancelWaitRequest(waiter=token, origin=self._origin)
        self.send(encode_message(cancel, slot.first))

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

    reads_on = True

    def read_on(self) -> bool:
        try:
            self._cache.submit(self.serve)
        except ServerError:  # stopping: the links are retired next
            return False
        return True

    def busy(self) -> bool:
        return bool(self._waits)

    def serve(self) -> None:
        """The standing reader: read while anything is outstanding, and
        retire the link if it is lost meanwhile."""
        if not self.calls.stand():
            self.read_ended()

    def read_ended(self) -> None:
        self._lose()

    def _lose(self) -> None:
        """The link was lost: retire it, and hand its waits back."""
        lost = ConnectionClosedError(f"link to {self.host} lost")
        for session, entry in self.retire(lost):
            session.relay_ended(entry, f"shutdown: link to {self.host} lost")

    def fail_calls(self, error: Exception) -> None:
        """Fail with *error* every call with a deadline — all but a
        consuming read (:func:`_consuming`), a relayed wait and a cancel;
        the link and its waits stay."""
        self.calls.fail(error, lambda slot: slot.until is not None)

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
