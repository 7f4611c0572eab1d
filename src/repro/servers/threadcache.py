"""Thread caching (paper section 4.1).

"Each request to a server will cause a thread to be created to handle the
request, thus exploiting parallelism.  The system uses the idea of thread
caching to avoid the overhead of creating processes un-necessarily.  When a
thread completes its transactions, it will set a timer and wait for
additional requests.  If a request comes in, the thread will handle it.  If
not, it will terminate."

:class:`ThreadCache` implements exactly that lifecycle: ``submit`` hands a
task to an idle cached thread when one exists, otherwise creates a thread;
an idle thread waits ``idle_timeout`` seconds for the next task and then
dies.  The SEC41 bench measures the saved creation overhead.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable

from repro.errors import ServerError
from repro.telemetry import Counters

__all__ = ["ThreadCache", "Reader", "await_peer", "hand_off", "scatter_join"]

#: What the current thread reads for: its :class:`Reader` list, ``held``.
_reading = threading.local()

#: How long a reader waits on a peer before it hands its reading on: about
#: two hundred peer round trips, so a healthy exchange never pays a hand-off.
HAND_OFF_AFTER = 0.02


def _held() -> list:
    held = getattr(_reading, "held", None)
    if held is None:
        held = _reading.held = []
    return held


class Reader:
    """A connection's reader — a memo server's session, or a peer link —
    serving some frames on the thread that reads them.  Such a frame may
    wait on a peer while the frame that ends the wait is behind it on this
    very connection, so :func:`await_peer` hands the reading on to a fresh
    thread.  A thread may read for more than one: a session's reader that
    leads a peer link's read holds both, and :func:`hand_off` hands on
    all it may.  A subclass defines ``read_one`` (False stops reading,
    None stops with nothing ended), ``read_ended`` and ``reader_cache``
    (where a fresh reader runs).
    """

    __slots__ = ()

    def serve(self) -> None:
        """Read until ``read_one`` says stop or the reading was handed on;
        whoever reads last runs ``read_ended``, unless reading stopped
        with nothing ended."""
        held = _held()
        held.append(self)
        going = True
        try:
            while going and self in held:
                going = self.read_one()
        finally:
            if self in held:
                held.remove(self)
                if going is not None:
                    self.read_ended()

    def read_on(self) -> None:
        """Continue :meth:`serve` on a thread of its own."""
        self.reader_cache.submit(self.serve)

    def take_reading(self) -> list:
        """Read for this reader on the current thread, beside any other it
        reads for, outside :meth:`serve` (a caller leading a link's read).
        Returns the thread's list of readers: while this one is in it, the
        thread reads for it; to stop, remove it."""
        held = _held()
        held.append(self)
        return held

    def reads_here(self) -> bool:
        """Whether the current thread still reads for this reader."""
        return self in _held()

    def hand_on(self) -> None:
        """Hand this reader's reading on to a fresh thread now, if the
        current thread reads for it."""
        held = _held()
        if self in held:
            try:
                self.read_on()
            except ServerError:  # shutting down: keep reading here
                return
            held.remove(self)


def hand_off(keep: Reader | None = None) -> None:
    """Hand on the reading of every :class:`Reader` the current thread
    reads for but *keep*: it is about to wait on a peer."""
    for reader in [r for r in _held() if r is not keep]:
        reader.hand_on()


def await_peer(done: threading.Lock, timeout: float | None = None) -> bool:
    """Acquire *done*, released when what waits on a peer is over; at most
    *timeout* seconds (None: until released).  Past :data:`HAND_OFF_AFTER`,
    the thread hands its reading on first (:func:`hand_off`) — as a caller
    leading a link's read does.  Returns whether *done* was acquired."""
    if done.acquire(True, HAND_OFF_AFTER):
        return True
    hand_off()
    left = -1 if timeout is None else max(0.0, timeout - HAND_OFF_AFTER)
    return done.acquire(True, left)


def scatter_join(cache: "ThreadCache", thunks: list) -> list[Exception]:
    """Run *thunks* concurrently on *cache* workers; wait for all of them.

    The last thunk runs on the calling thread (it would otherwise just
    block waiting), extras go to cache workers, and a cache that has shut
    down degrades each leg to inline execution.  Exceptions never escape
    a worker thread: they are collected and returned, in completion
    order, for the caller to surface — the shared scatter/join shape of
    the replication fan-out and the burst-forward groups.
    """
    if not thunks:
        return []
    errors: list[Exception] = []
    if len(thunks) == 1:
        try:
            thunks[0]()
        except Exception as exc:  # noqa: BLE001 - returned, not raised
            errors.append(exc)
        return errors
    done = threading.Lock()
    done.acquire()
    lock = threading.Lock()
    remaining = [len(thunks)]

    def run_one(fn) -> None:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - returned, not raised
            with lock:
                errors.append(exc)
        finally:
            with lock:
                remaining[0] -= 1
                if remaining[0] == 0:
                    done.release()

    for fn in thunks[:-1]:
        try:
            cache.submit(run_one, fn)
        except ServerError:
            run_one(fn)
    run_one(thunks[-1])
    await_peer(done)
    return errors


#: ``ThreadCache.stats``, counted under the pool lock (a submit counts and
#: picks its worker in one critical section) and reported as
#: ``cache.<name>``.  Read by SEC41 and ``bench/``'s window counters.
CACHE_COUNTERS = ("submitted", "threads_created", "cache_hits", "threads_expired")


class _Worker(threading.Thread):
    """One cached thread: run a task, then idle-wait for the next."""

    def __init__(self, cache: "ThreadCache", task: tuple) -> None:
        super().__init__(name=f"{cache.name}-worker", daemon=True)
        self._cache = cache
        # Never holds more than one task: a worker is handed work at birth
        # or by the one submitter that popped it off the idle list.
        self._tasks: "queue.SimpleQueue[tuple | None]" = queue.SimpleQueue()
        self._tasks.put(task)

    def assign(self, task: tuple) -> None:
        self._tasks.put(task)

    def run(self) -> None:
        cache = self._cache
        while True:
            try:
                task = self._tasks.get(timeout=cache.idle_timeout)
            except queue.Empty:
                # Timer expired: leave the cache unless a submitter grabbed
                # us between the timeout and this check (it removed us from
                # the idle list under the lock, so a task is imminent).
                with cache._lock:
                    if self in cache._idle:
                        cache._idle.remove(self)
                        cache.stats["threads_expired"] += 1
                        return
                continue
            if task is None:  # shutdown poison pill
                return
            fn, args, kwargs = task
            try:
                fn(*args, **kwargs)
            except Exception:  # noqa: BLE001 - server tasks own their errors
                cache.on_task_error(fn)
            if cache._shutdown.is_set():
                return
            with cache._lock:
                cache._idle.append(self)


class ThreadCache:
    """Pool of idle-expiring threads serving server requests.

    Args:
        idle_timeout: seconds an idle thread waits before terminating
            (the paper's "timer").  Setting it to 0 disables caching —
            every request creates a fresh thread — which is the baseline
            leg of the SEC41 bench.
        name: thread-name prefix for diagnostics.
    """

    def __init__(self, idle_timeout: float = 2.0, name: str = "dmemo") -> None:
        if idle_timeout < 0:
            raise ServerError(f"idle_timeout must be >= 0, got {idle_timeout}")
        self.idle_timeout = idle_timeout
        self.name = name
        self._lock = threading.Lock()
        self.stats = Counters(CACHE_COUNTERS, lock=self._lock)
        self._idle: list[_Worker] = []
        self._shutdown = threading.Event()
        self._error_hook: Callable[[object], None] | None = None

    def set_error_hook(self, hook: Callable[[object], None]) -> None:
        """Install a callback invoked when a task raises (for tests/logs)."""
        self._error_hook = hook

    def on_task_error(self, fn: object) -> None:
        if self._error_hook is not None:
            self._error_hook(fn)

    def submit(self, fn: Callable, *args: object, **kwargs: object) -> None:
        """Run ``fn(*args, **kwargs)`` on a cached or fresh thread."""
        if self._shutdown.is_set():
            raise ServerError("thread cache is shut down")
        task = (fn, args, kwargs)
        stats = self.stats
        with self._lock:
            stats["submitted"] += 1
            if self._idle and self.idle_timeout > 0:
                worker = self._idle.pop()
                stats["cache_hits"] += 1
            else:
                worker = None
                stats["threads_created"] += 1
        if worker is None:
            _Worker(self, task).start()
        else:
            worker.assign(task)

    def idle_count(self) -> int:
        """Number of threads currently parked in the cache."""
        with self._lock:
            return len(self._idle)

    def shutdown(self) -> None:
        """Stop accepting work and dismiss idle threads."""
        self._shutdown.set()
        with self._lock:
            idle, self._idle = self._idle, []
        for worker in idle:
            worker.assign(None)  # type: ignore[arg-type]
