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
* **Leader/follower reads.**  A caller that finds nobody reading reads the
  connection itself until its slot is over (it *leads*), dispatching every
  frame it meets; another waits on its slot.  A leader reads in slices, so
  a slot failed from outside is seen.  Its owner's :class:`Role` says
  whether anything reads on when no caller does.
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

#: Longest a leader reads before it looks at its slot and its role again:
#: how soon it sees the slot failed from outside (a peer declared dead),
#: and when a peer link's leader first hands on its thread's other reading.
_SLICE = 0.02


class Slot:
    """What waits on the ids ``first .. first + n - 1``: one result per id,
    ``left`` of them still due, the ``error`` that ended it early, ``over``
    once nothing more comes, and ``tag``, its owner's.

    A slot carries no lock of its own: a caller that leads reads its reply
    itself.  Only a caller that waits for another reader gets ``done``,
    made under the engine's lock while the slot is not over, and released
    once it is over and its ``then`` has run."""

    __slots__ = ("first", "results", "left", "error", "over", "then", "tag", "done")

    def __init__(self, first: int, n: int, then, tag) -> None:
        self.first = first
        self.results: list = [None] * n
        self.left = n
        self.error: Exception | None = None
        self.over = False
        self.then = then
        self.tag = tag
        self.done: threading.Lock | None = None

    def _finish(self) -> None:
        if self.then is not None:
            self.then(self)
        done = self.done
        if done is not None:
            done.release()


class Role:
    """How a :class:`Calls` reads on its callers' threads.  This one is a
    caller's own thread and nothing else: a caller reads its reply itself,
    and nothing reads the connection when no caller does."""

    def lead(self) -> None:
        """The current thread starts reading the connection."""

    def leading(self, waited: float) -> bool:
        """Whether the current thread still reads, *waited* seconds into
        its lead: asked after each frame and each quiet slice."""
        return True

    #: Whether anything reads on once no caller does (:meth:`led`).
    reads_on = False

    def led(self, busy: bool) -> bool:
        """The current thread stopped reading; while *busy*, whether
        another reads on."""
        return False

    def busy(self) -> bool:
        """Whether anything beyond the slots awaits a frame; asked under
        the engine's lock, and only of a role that :attr:`reads_on`."""
        return False

    def follow(self, done: threading.Lock, left: float | None) -> bool:
        """Acquire *done* (at most *left* seconds): another thread reads
        the slot's reply.  Returns whether it was acquired."""
        return done.acquire(True, -1 if left is None else left)


class Calls:
    """Correlated calls over *conn*: ids, slots, dispatch, reads and loss.

    *push* takes ``(token, payload, reason)`` for a ``MemoReady``
    (``reason`` None) or a ``WaitCancelled`` (``payload`` None).  *lost*
    is the owner's loss rule, run when a leader meets the connection's
    loss, and fails what is outstanding (:meth:`fail`).  Callbacks run
    with no lock held.  ``heard`` is when the connection last delivered a
    frame.
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
        #: Whether a thread reads the connection: a leader, or the role's own.
        self._reading = False

    # -- ids and slots ----------------------------------------------------------

    def reserve(self, n: int = 1) -> int:
        """Take *n* fresh ids; returns the first.  Only for frames encoded
        before their slot opens (:meth:`open` takes its own)."""
        with self.lock:
            first = self._next
            self._next = first + n
        return first

    def open(self, n: int = 1, then=None, tag=None, first: int | None = None) -> Slot:
        """Wait on *n* ids from *first* (fresh ones if None, taken in the
        same hold of the lock): a caller then sends under ``slot.first``
        and waits on the slot (:meth:`wait`), or ``then(slot)`` runs once
        it is over.  A slot whose send fails goes to :meth:`forget`."""
        slot = Slot(first, n, then, tag)
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
        if kind is Reply:
            if cid is None:
                return
            ids, reply = (cid,), msg
        elif kind is Acks:
            ids, reply = msg.cids, PUT_ACK
        elif kind is MemoReady:
            self._push(msg.waiter, msg.payload, None)
            return
        else:
            self._push(msg.waiter, None, msg.reason)
            return
        over = []
        with self.lock:
            slots = self._slots
            for answered in ids:
                slot = slots.pop(answered, None)
                if slot is not None:
                    slot.results[answered - slot.first] = reply
                    slot.left -= 1
                    if not slot.left:
                        slot.over = True
                        over.append(slot)
        for slot in over:
            slot._finish()

    def wait(self, slot: Slot, until: float | None = None, follow: bool = True) -> None:
        """Return once *slot* is over, or fail it with TimeoutError when
        the monotonic time *until* passes first.  A caller that finds
        nobody reading leads; any other waits for the reader — unless not
        *follow*: it then returns at once, and *slot* is the reader's."""
        if slot.over:
            return
        with self.lock:
            lead, self._reading = not self._reading, True
            done = None if lead or not follow else self._make_done(slot)
        if lead:
            if self._lead(slot, until):
                # Its reading was handed on: wait for the new reader.
                if not follow:
                    return
                with self.lock:
                    done = self._make_done(slot)
        elif not follow:
            return
        if done is not None:
            left = None if until is None else until - time.monotonic()
            self.role.follow(done, left)
        if not slot.over:
            self._expire(slot)

    @staticmethod
    def _make_done(slot: Slot) -> threading.Lock | None:
        """*slot*'s ``done``, made held unless it is over; under the lock."""
        if slot.over:
            return None
        done = slot.done = threading.Lock()
        done.acquire()
        return done

    def _expire(self, slot: Slot) -> None:
        with self.lock:
            late = not slot.over
            if late:
                self._drop(slot)
                slot.error = TimeoutError("no reply before the deadline")
        if late:
            slot._finish()

    def _lead(self, slot: Slot, until: float | None) -> bool:
        """Read on this thread until *slot* is over or *until* passes (it
        is then failed); True if the role took the reading away first."""
        role = self.role
        role.lead()
        started = time.monotonic()
        handed = False
        try:
            while not slot.over:
                now = time.monotonic()
                if until is not None and now >= until:
                    self._expire(slot)
                    break
                timeout = _SLICE
                if until is not None:
                    timeout = min(timeout, until - now)
                try:
                    if not self.read_one(timeout):
                        self._lost()
                        break
                except TimeoutError:
                    pass
                if not role.leading(time.monotonic() - started):
                    handed = True
                    break
        finally:
            if not handed:
                with self.lock:
                    busy = self._reading = role.reads_on and (
                        bool(self._slots) or role.busy()
                    )
                if not role.led(busy) and busy:  # stopping: nobody reads on
                    with self.lock:
                        self._reading = False
        return handed

    def quiet(self) -> bool:
        """Whether nothing is outstanding; nobody reads from then on."""
        with self.lock:
            if self._slots or self.role.busy():
                return False
            self._reading = False
            return True
