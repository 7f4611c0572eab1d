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

The rest of this module is the shapes a continuation takes on a server,
where nothing that reads waits on a peer: :class:`Join` / :func:`wait_for` for a
caller that reads nothing and may wait, :func:`scatter` for concurrent
parts, :func:`later` for one that sends again (a fail-over) on a worker.
"""

from __future__ import annotations

import queue
import threading
from functools import partial
from typing import Callable

from repro.errors import ServerError
from repro.telemetry import Counters

__all__ = ["ThreadCache", "Join", "attempt", "later", "scatter", "wait_for"]


class Join:
    """A join lock: ``join(*answer)`` once, from any thread; :meth:`wait`
    returns the answer (a tuple) once it came."""

    __slots__ = ("_lock", "answer")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._lock.acquire()
        self.answer: tuple = ()

    def __call__(self, *answer: object) -> None:
        self.answer = answer
        self._lock.release()

    def wait(self) -> tuple:
        self._lock.acquire()
        return self.answer


def wait_for(fn: Callable, *args: object) -> tuple:
    """Run ``fn(*args, done)`` — a call that answers by continuation —
    and wait on this thread for what it hands ``done``.  What it raises
    before that propagates."""
    join = Join()
    fn(*args, join)
    return join.wait()


def scatter(cache: "ThreadCache", calls: list, done: Callable[[list], None]) -> None:
    """Start *calls*, ``(fn, *args)`` tuples each answering ``fn(*args,
    then)`` by continuation, all at once: each but the last on a *cache*
    worker, the last here (else each would wait for the one before to be
    read).  ``done(answers)``, in call order, runs once all are in."""
    answers: list = [None] * len(calls)
    left = [len(calls)]
    lock = threading.Lock()

    def part(i: int, answer: object) -> None:
        answers[i] = answer
        with lock:
            left[0] -= 1
            last = not left[0]
        if last:
            done(answers)

    if not calls:
        done(answers)
    for i, (fn, *args) in enumerate(calls):
        if i < len(calls) - 1:
            later(cache, fn, *args, partial(part, i))
        else:
            attempt(fn, *args, partial(part, i))


def attempt(fn: Callable, *args: object) -> None:
    """Run ``fn(*args)``, whose last argument is the continuation that
    takes its answer, and hand that continuation what it raises instead."""
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - the continuation's answer
        args[-1](exc)


def later(cache: "ThreadCache", fn: Callable, *args: object) -> None:
    """Run ``fn(*args)`` on a *cache* worker — here, once the cache is shut
    down — where its last argument is the continuation that takes its
    answer (:func:`attempt`)."""
    try:
        cache.submit(attempt, fn, *args)
    except ServerError:
        attempt(fn, *args)


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
