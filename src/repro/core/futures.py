"""Composable futures — the non-blocking face of the Memo API.

The paper's primitives are synchronous: a blocked ``get`` pins the
calling thread (and, pre-waiter-table, a server worker) until a memo
arrives.  :class:`MemoFuture` inverts that: ``Memo.get_async`` and
friends return immediately with a handle, and *waiting* becomes an
explicit, composable operation — ``wait``/``result`` on one future,
:func:`wait_any`/:func:`as_completed` across many, done-callbacks for
pure event style.  The blocking API is reconstructed on top
(``Memo.get(k)`` is literally ``Memo.get_async(k).wait()``), so
"futures-first" costs existing callers nothing.

Driving model — no background threads.  A ``MemoClient`` owns no reader
thread, so a future cannot complete "by itself": progress happens when
some thread *drives* it.  Each future carries a ``step`` hook supplied
by its factory — for server-parked waits it pumps the client connection
(receiving push frames, completing whichever futures they name); for
client-polled waits (``get_alt_async``) it runs one poll round with
backoff.  ``wait``/``result``/:func:`wait_any`/:func:`as_completed` all
loop that hook, which means a thread waiting on *one* future advances
*every* future sharing the same client — the single-reader fan-in shape
the waiter table was built for.  Completion may also arrive from another
thread's pump (or any synchronous client call that reads frames in
passing).  A future built without a step hook is completed from outside
only: a thread waiting on it blocks on the future's *gate*, a lock held
from birth and released once, at completion; each waiter that gets it
hands it straight back, so every waiter wakes.

Thread-safety: all public methods are safe to call from any thread.
Done-callbacks run exactly once, on the completing thread (or inline
when added after completion), and must be lightweight — in particular
they must not issue blocking calls on the same client, which may be
mid-receive on the completing thread's stack.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable, Iterator

from repro.errors import MemoError

__all__ = ["MemoFuture", "WaitCancelledError", "wait_any", "as_completed"]


class WaitCancelledError(MemoError):
    """The future was cancelled before a result arrived."""


#: Slice handed to a future's step hook per drive round when several
#: futures (possibly on several clients) are being waited on at once —
#: short enough to interleave fairly, long enough to mostly sleep in the
#: transport's own receive wait.
_STEP_SLICE = 0.05

#: How long ``wait`` keeps driving after a *failed* cancellation before
#: reporting the timeout anyway.  A cancel that lost the completion race
#: has its result already on the wire (a pump or two away); a cancel
#: that failed because the connection was lost may never resolve, and
#: must not turn a timed wait into an unbounded hang.
_CANCEL_GRACE = 5.0

_PENDING = 0
_COMPLETED = 1
_FAILED = 2
_CANCELLED = 3

#: Orders every future's settlement against its callback registration:
#: held for a few attribute writes, so one lock serves them all.
_SETTLE = threading.Lock()


class MemoFuture:
    """A handle to one in-flight memo operation.

    Args:
        step: drives the underlying machinery for up to the given number
            of seconds (pump the client connection, run one poll round).
            None for futures that are completed externally.
        cancel_impl: attempts to withdraw the operation; returns True if
            the withdrawal won the race against completion.  None means
            the operation is not cancellable (``cancel`` reports False).
        transform: applied to the raw completion value (e.g. payload
            bytes → decoded memo) on the completing thread; a transform
            that raises fails the future with its exception.
    """

    __slots__ = (
        "_gate",
        "_state",
        "_value",
        "_error",
        "_callbacks",
        "_step",
        "_cancel_impl",
        "_transform",
    )

    def __init__(
        self,
        step: Callable[[float], None] | None = None,
        cancel_impl: Callable[[], bool] | None = None,
        transform: Callable[[object], object] | None = None,
    ) -> None:
        #: Held until the future is done (see the module's driving model).
        self._gate = threading.Lock()
        self._gate.acquire()
        self._state = _PENDING
        self._value: object = None
        self._error: BaseException | None = None
        self._callbacks: list[Callable[["MemoFuture"], None]] = []
        self._step = step
        self._cancel_impl = cancel_impl
        self._transform = transform

    # -- completion (called by the client/driver machinery) --------------------

    def _complete(self, value: object) -> bool:
        """Resolve with *value* (after the transform); False if already done."""
        transform = self._transform
        if transform is not None:
            try:
                value = transform(value)
            except BaseException as exc:  # noqa: BLE001 - becomes the result
                return self._fail(exc)
        return self._settle(_COMPLETED, value, None)

    def _fail(self, error: BaseException) -> bool:
        """Resolve with an exception; False if already done."""
        return self._settle(_FAILED, None, error)

    def _settle(self, state: int, value: object, error: BaseException | None) -> bool:
        with _SETTLE:
            if self._state != _PENDING:
                return False
            self._value = value
            self._error = error
            self._state = state
            callbacks, self._callbacks = self._callbacks, []
        self._gate.release()
        for cb in callbacks:
            try:
                cb(self)
            except Exception:  # noqa: BLE001 - callbacks own their errors
                pass
        return True

    # -- inspection -------------------------------------------------------------

    def done(self) -> bool:
        """True once a result, exception, or cancellation has landed."""
        return self._state != _PENDING

    def cancelled(self) -> bool:
        """True if the future ended by cancellation."""
        return self._state == _CANCELLED

    def add_done_callback(self, fn: Callable[["MemoFuture"], None]) -> None:
        """Run ``fn(self)`` on completion (immediately if already done)."""
        with _SETTLE:
            if self._state == _PENDING:
                self._callbacks.append(fn)
                return
        fn(self)

    # -- cancellation -----------------------------------------------------------

    def cancel(self) -> bool:
        """Attempt to withdraw the operation; True if it was cancelled.

        False means the future is already done (or completing — a result
        that raced the cancel and won is kept, never discarded: for a
        consuming ``get`` the memo was already extracted server-side, and
        dropping it here would lose it).
        """
        if self._state != _PENDING:
            return self._state == _CANCELLED
        impl = self._cancel_impl
        if impl is None:
            return False
        if not impl():
            return False
        return self._settle(
            _CANCELLED, None, WaitCancelledError("memo operation cancelled")
        ) or self._state == _CANCELLED

    # -- waiting ----------------------------------------------------------------

    def result(self, timeout: float | None = None) -> object:
        """Drive until done, then return the value or raise the exception.

        Raises :class:`TimeoutError` after *timeout* seconds with the
        operation left in flight (unlike :meth:`wait`, no cancellation is
        attempted — a later ``result``/``wait`` can still collect it).
        """
        self._drive(timeout)
        if self._state == _PENDING:
            raise TimeoutError("memo future not done in time")
        if self._error is not None:
            raise self._error
        return self._value

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """Drive until done, then return the exception (None on success)."""
        self._drive(timeout)
        if self._state == _PENDING:
            raise TimeoutError("memo future not done in time")
        return self._error

    def wait(self, timeout: float | None = None) -> object:
        """The blocking-API adapter: result, with cancel-on-timeout.

        ``Memo.get(k)`` is ``get_async(k).wait()``.  On timeout the wait
        is withdrawn first; only a *successful* withdrawal raises
        :class:`TimeoutError` — if completion won the race the result is
        returned (a consumed memo is never dropped on the floor).
        """
        self._drive(timeout)
        if self._state == _PENDING:
            if self.cancel() or self._cancel_impl is None:
                # Withdrawn — or not withdrawable at all (e.g. a put ack
                # already executing server-side): either way the caller's
                # deadline passed without a result.
                raise TimeoutError("memo operation timed out")
            # Cancel failed: usually completion won the race and the
            # result is a pump away — but a cancel lost to a connection
            # failure may never resolve, so the grace is bounded.
            self._drive(_CANCEL_GRACE)
            if self._state == _PENDING:
                raise TimeoutError("memo operation timed out")
        if self._error is not None:
            raise self._error
        return self._value

    def _drive(self, timeout: float | None) -> None:
        """Advance the underlying machinery until done or out of time."""
        if self._state != _PENDING:
            return
        step = self._step
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._state == _PENDING:
            if deadline is None:
                remaining = None
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
            if step is None:
                self._pass_gate(remaining)
                continue
            try:
                step(_STEP_SLICE if remaining is None else min(remaining, _STEP_SLICE))
            except BaseException as exc:  # noqa: BLE001 - surfaced as the result
                self._fail(exc)
                return

    def _pass_gate(self, timeout: float | None) -> None:
        """Block until the future is done, at most *timeout* seconds; the
        gate is handed straight back, so the next waiter wakes too."""
        gate = self._gate
        if gate.acquire(True, -1 if timeout is None else timeout):
            gate.release()


def wait_any(
    futures: Iterable[MemoFuture], timeout: float | None = None
) -> MemoFuture:
    """Drive a set of futures until one completes; return that future.

    With several futures on one client a single drive round advances all
    of them (pushes are routed to whichever future they name), so this
    is an O(1)-thread select over any number of in-flight operations.

    Raises:
        TimeoutError: none of the futures completed within *timeout*.
        MemoError: *futures* was empty.
    """
    pool = list(futures)
    if not pool:
        raise MemoError("wait_any requires at least one future")
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        for future in pool:
            if future.done():
                return future
        if deadline is not None and time.monotonic() >= deadline:
            raise TimeoutError("no memo future completed in time")
        # Give every pending steppable future one slice per round —
        # futures may sit on *different* clients, and only their own
        # driver reads their client's frames.  (Driving one future
        # routes pushes to every sibling on the same client, so the
        # done checks between slices catch cross-completions early.)
        drove = False
        for future in pool:
            if future.done():
                return future
            if future._step is not None:
                future._drive(_STEP_SLICE)
                drove = True
                if future.done():
                    return future
        if not drove:
            # Externally-completed futures only: wait at the first's gate.
            pool[0]._pass_gate(_STEP_SLICE)


def as_completed(
    futures: Iterable[MemoFuture], timeout: float | None = None
) -> Iterator[MemoFuture]:
    """Yield futures in completion order, driving them as needed.

    *timeout* bounds the whole iteration, not each element.  Futures
    already done are yielded first (in input order).
    """
    pending = list(futures)
    deadline = None if timeout is None else time.monotonic() + timeout
    while pending:
        remaining = None
        if deadline is not None:
            remaining = max(0.0, deadline - time.monotonic())
        done = wait_any(pending, remaining)
        pending.remove(done)
        yield done
