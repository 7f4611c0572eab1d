"""One correlated-call engine: what runs on top of a connection.

"The notion of a connection ... can be defined independent of any known
networking protocol" (paper section 3.1.1).  Both ends that make calls
over one — a process's client of its memo server, and a memo server's
link to a peer — run this one mechanism on it, a :class:`Calls`:

* **Ids and slots.**  One id counter.  A :class:`Slot` covers *n* ids (a
  request, or a burst of them), taken and registered in one hold of the
  engine's lock, and is over once every id is answered, or it failed, or
  its deadline passed; it then runs its ``then`` callback, if it has one,
  and wakes the caller that waits on another reader, if one does.  A slot
  whose request never went out is forgotten: it runs nothing.
* **One dispatch.**  An :class:`~repro.network.protocol.Acks` frame is
  :data:`~repro.network.protocol.PUT_ACK` for each of its ids; a
  ``MemoReady`` or ``WaitCancelled`` push goes to the owner's push hook
  by waiter token; any other reply goes to its id's slot.  An id no slot
  holds (stale, or from an earlier connection) is dropped.
* **One reader at a time.**  A caller that finds nobody reading reads the
  connection itself (it *leads*), dispatching every frame it meets: one
  that waits (:meth:`Calls.wait`) until its slot is over — re-entrantly,
  if its thread is the one dispatching — and one whose ``then`` answers
  for at most one slice (:meth:`Calls.lead`).  Another waiter waits on its
  slot.  The owner's :class:`Role` says whether anything reads on.
* **One loss rule.**  :meth:`Calls.fail` fails each chosen slot exactly
  once and returns them: a slot's ``left`` is the ids it never got.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.errors import CommunicationError, ProtocolError
from repro.network.connection import Connection
from repro.network.protocol import (
    PUT_ACK,
    Acks,
    MemoReady,
    Reply,
    WaitCancelled,
    decode_reply,
)

__all__ = ["Calls", "Role", "Slot"]

#: What a caller may receive: replies, and the pushes of parked waits.
_ANSWERS = frozenset((Reply, Acks, MemoReady, WaitCancelled))

#: Longest a caller that does not wait reads for its reply, and how often
#: the role's reader fails slots past their deadline.
_SLICE = 0.02

_STANDING = -1  # ``Calls._reader`` while the role's reader is on its way


class Slot:
    """What waits on the ids ``first .. first + n - 1``: one result per id,
    ``left`` of them still due, the ``error`` that ended it early, ``over``
    once nothing more comes, ``tag``, its owner's, and ``until``, the
    monotonic time it fails with TimeoutError unless over (None: never).

    A slot carries no lock of its own: a caller that leads reads its reply
    itself.  Only a caller that waits for another reader gets ``done``,
    made under the engine's lock while the slot is not over, and released
    once it is over and its ``then`` has run."""

    __slots__ = ("first", "results", "left", "error", "over", "then", "tag", "until", "done")

    def __init__(self, first: int, n: int, then, tag, until: float | None) -> None:
        self.first = first
        self.results: list = [None] * n
        self.left = n
        self.error: Exception | None = None
        self.over = False
        self.then = then
        self.tag = tag
        self.until = until
        self.done: threading.Lock | None = None

    def _finish(self) -> None:
        if self.then is not None:
            self.then(self)
        done = self.done
        if done is not None:
            done.release()


class Role:
    """How a :class:`Calls` reads when no caller does.  This one does not."""

    #: Whether the role has a reader of its own (:meth:`Calls.stand`).
    reads_on = False

    def read_on(self) -> bool:
        """Start the role's own reader; whether it started."""
        return False

    def busy(self) -> bool:
        """Whether anything beyond the slots awaits a frame; asked under
        the engine's lock, and only of a role that :attr:`reads_on`."""
        return False


class Calls:
    """Correlated calls over *conn*: ids, slots, dispatch, reads and loss.

    *push* takes ``(token, payload, reason)`` for a ``MemoReady``
    (``reason`` None) or a ``WaitCancelled`` (``payload`` None).  *lost*
    is the owner's loss rule, run when a caller that reads meets the
    connection's loss, and fails what is outstanding (:meth:`fail`).
    Callbacks run with no lock held.  ``heard`` is when the connection
    last delivered a frame.
    """

    def __init__(
        self,
        conn: Connection,
        push: Callable[[int, bytes | None, str | None], None],
        lost: Callable[[], None],
        role: Role | None = None,
    ) -> None:
        self.conn = conn
        self.lock = threading.Lock()
        self.heard = float("-inf")
        self._push = push
        self._lost = lost
        self.role = role or Role()
        #: Id -> the slot that waits on it.
        self._slots: dict[int, Slot] = {}
        self._next = 1
        #: The thread that reads the connection (its ident), if one does.
        self._reader: int | None = None
        #: When the role's reader next looks for slots past their deadline.
        self._due = 0.0

    # -- ids and slots ----------------------------------------------------------

    def reserve(self, n: int = 1) -> int:
        """Take *n* fresh ids; returns the first.  Only for frames encoded
        before their slot opens (:meth:`open` takes its own)."""
        with self.lock:
            first = self._next
            self._next = first + n
        return first

    def open(self, n=1, then=None, tag=None, first=None, until=None) -> Slot:
        """Wait on *n* ids from *first* (fresh ones if None, taken in the
        same hold of the lock), until the monotonic time *until*: a caller
        then sends under ``slot.first`` and waits on the slot
        (:meth:`wait`), or ``then(slot)`` runs once it is over.  A slot
        whose send fails goes to :meth:`forget`."""
        slot = Slot(first, n, then, tag, until)
        with self.lock:
            if first is None:
                slot.first = first = self._next
                self._next = first + n
            if n == 1:
                self._slots[first] = slot
            else:
                self._slots.update(dict.fromkeys(range(first, first + n), slot))
        return slot

    def forget(self, slot: Slot) -> None:
        """Drop *slot*, whose request never went out: it runs no ``then``
        and wakes nobody, and a reply to one of its ids is dropped."""
        with self.lock:
            self._drop(slot)

    def fail(self, error: Exception, chosen=None) -> list[Slot]:
        """Fail with *error* every outstanding slot that ``chosen(slot)``
        picks (all of them if None), each exactly once; returns them."""
        with self.lock:
            failed = [
                slot
                for slot in dict.fromkeys(self._slots.values())
                if chosen is None or chosen(slot)
            ]
            for slot in failed:
                self._drop(slot)
                slot.error = error
        for slot in failed:
            slot._finish()
        return failed

    def _drop(self, slot: Slot) -> None:
        slot.over = True
        for cid in range(slot.first, slot.first + len(slot.results)):
            self._slots.pop(cid, None)

    # -- reading ----------------------------------------------------------------

    def read_one(self, timeout: float | None = None) -> bool:
        """Read one frame and dispatch it.  False once the connection is
        lost (a bad frame, or one that answers nothing, loses it); raises
        TimeoutError when *timeout* passes first."""
        try:
            msg, cid = decode_reply(self.conn.recv(timeout))
            if type(msg) not in _ANSWERS:
                raise ProtocolError(f"a {type(msg).__qualname__} answers nothing")
        except CommunicationError:
            self.conn.close()
            return False
        self.heard = time.monotonic()
        self.dispatch(msg, cid)
        return True

    def dispatch(self, msg: object, cid: int | None) -> None:
        """Hand one received message, tagged *cid*, to what waits on it."""
        kind = type(msg)
        if kind is Reply:  # the commonest frame: one id, no loop
            if cid is None:
                return
            with self.lock:
                slot = self._slots.pop(cid, None)
                if slot is None:
                    return
                slot.results[cid - slot.first] = msg
                slot.left -= 1
                if slot.left:
                    return
                slot.over = True
            slot._finish()
            return
        if kind is MemoReady:
            self._push(msg.waiter, msg.payload, None)
            return
        if kind is not Acks:
            self._push(msg.waiter, None, msg.reason)
            return
        over = []
        with self.lock:
            slots = self._slots
            for answered in msg.cids:
                slot = slots.pop(answered, None)
                if slot is not None:
                    slot.results[answered - slot.first] = PUT_ACK
                    slot.left -= 1
                    if not slot.left:
                        slot.over = True
                        over.append(slot)
        for slot in over:
            slot._finish()

    def wait(self, slot: Slot, until: float | None = None) -> None:
        """Return once *slot* is over, or fail it with TimeoutError when
        the monotonic time *until* passes first."""
        if slot.over:
            return
        me = threading.get_ident()
        done = None
        with self.lock:
            reader = self._reader
            if reader is None:
                self._reader = me
            elif reader != me:
                done = self._make_done(slot)
        if reader is None or reader == me:
            self._read(slot, until)
            if reader is None:
                self._release()
        elif done is not None:
            done.acquire(True, -1 if until is None else max(0.0, until - time.monotonic()))
        if not slot.over:
            late = TimeoutError("no reply before the deadline")
            self.fail(late, lambda other: other is slot)

    def lead(self, slot: Slot) -> None:
        """Read for *slot*, whose ``then`` answers, if nobody reads: for at
        most one slice, then the role's reader reads on."""
        with self.lock:
            if self._reader is not None:
                return
            self._reader = threading.get_ident()
        self._read(slot, time.monotonic() + _SLICE)
        self._release()

    @staticmethod
    def _make_done(slot: Slot) -> threading.Lock | None:
        """*slot*'s ``done``, made held unless it is over; under the lock."""
        if slot.over:
            return None
        done = slot.done = threading.Lock()
        done.acquire()
        return done

    def _read(self, slot: Slot, stop: float | None) -> None:
        """Read until *slot* is over or the monotonic time *stop* passes."""
        while not slot.over:
            timeout = _SLICE
            if stop is not None:
                timeout = min(timeout, stop - time.monotonic())
                if timeout <= 0:
                    return
            try:
                if not self.read_one(timeout):
                    self._lost()
                    return
            except TimeoutError:
                pass

    def _release(self) -> None:
        """A leader stops: the role's reader reads on if anything is due."""
        role = self.role
        with self.lock:
            busy = role.reads_on and (bool(self._slots) or role.busy())
            self._reader = _STANDING if busy else None
        if busy and not role.read_on():  # stopping: nobody reads on
            with self.lock:
                self._reader = None

    def stand(self) -> bool:
        """The role's own reader: read until nothing is outstanding, failing
        what passed its deadline; False once the connection is lost (the
        caller runs the loss rule)."""
        with self.lock:
            self._reader = threading.get_ident()
        while True:
            try:
                if not self.read_one(_SLICE):
                    return False
            except TimeoutError:
                pass
            now = time.monotonic()
            if now >= self._due:  # what passed its deadline fails
                self._due = now + _SLICE
                late = TimeoutError("no reply before the deadline")
                self.fail(late, lambda slot: slot.until is not None and slot.until <= now)
            with self.lock:
                if not (self._slots or self.role.busy()):
                    self._reader = None
                    return True
