"""Heartbeat-based failure detection between memo servers.

Each memo server owns one :class:`FailureDetector` — a purely local,
threshold-based suspicion table — and, once any application registers with
``replication_factor > 1``, one :class:`HeartbeatMonitor` thread that
probes every peer in the address book on a fixed interval.

Two evidence paths feed the detector:

* *probes* — the monitor's rounds, a :class:`~repro.network.protocol.Heartbeat`
  on each quiet link (any frame a link receives proves its peer alive),
  and every call on a link that missed its deadline; a peer is suspected
  after ``threshold`` consecutive failures and marked alive again on the
  first success;
* *piggybacking* — any request that fails with a connection error marks
  the target dead immediately (the router already paid for the evidence),
  and receiving a heartbeat *from* a host proves that host alive.

Detection is deliberately local and asymmetric: two hosts may transiently
disagree about a third.  The routing layer tolerates this (a request to a
falsely-suspected primary simply lands on a backup and anti-entropy heals
the divergence), which is what lets the detector avoid any consensus
machinery.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable

from repro.network.connection import Address

__all__ = ["FailureDetector", "HeartbeatMonitor"]


class FailureDetector:
    """Threshold suspicion table: host → alive / dead.

    Unknown hosts are presumed alive (optimism keeps the single-owner
    configuration on the exact seed code path: nothing is ever suspected
    when no monitor runs).

    Transition hooks: *on_transition* fires whenever a host flips
    alive <-> dead, with the host name and its new liveness.  Delivery is

    * **outside the detector's lock** — a hook may freely query liveness
      (``is_alive``) or even call the mutators (``mark_alive`` /
      ``mark_dead`` / ``record_failure``) without deadlocking;
    * **serialized and in order** — transitions are queued under the lock
      and drained by one notifier at a time, so two racing flips can
      never deliver their notifications inverted, and a hook that causes
      a further transition sees it delivered after its own, never
      recursively inside it.

    The memo server's hook invalidates its routing cache; the pipelined
    request path made that hook reentrant (a cache rebuild can re-query
    liveness mid-routing), which is why delivery must not hold the lock.

    Args:
        threshold: consecutive probe failures before a host is suspected.
        on_transition: optional hook, described above.
    """

    def __init__(
        self,
        threshold: int = 3,
        on_transition: Callable[[str, bool], None] | None = None,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"failure threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.on_transition = on_transition
        self._lock = threading.Lock()
        self._failures: dict[str, int] = {}
        self._dead: set[str] = set()
        #: Transitions awaiting delivery, in flip order (guarded by _lock).
        self._pending: deque[tuple[str, bool]] = deque()
        #: True while some thread is delivering (guarded by _lock).
        self._notifying = False

    def _drain_notifications(self) -> None:
        """Deliver queued transitions, one thread at a time, lock released.

        Whichever thread finds the queue non-idle claims the notifier
        role and delivers until empty; other threads (including hooks
        re-entering a mutator) just enqueue and leave — their transition
        is delivered by the active notifier, after the current one.  A
        hook that raises does not strand the transitions queued behind
        it: delivery continues and the first exception re-raises to this
        notifier's caller once the queue is dry.
        """
        first_exc: Exception | None = None
        while True:
            with self._lock:
                if self._notifying or not self._pending:
                    break
                self._notifying = True
                host, alive = self._pending.popleft()
            try:
                hook = self.on_transition
                if hook is not None:
                    hook(host, alive)
            except Exception as exc:  # noqa: BLE001 - keep draining
                if first_exc is None:
                    first_exc = exc
            finally:
                with self._lock:
                    self._notifying = False
        if first_exc is not None:
            raise first_exc

    def is_alive(self, host: str) -> bool:
        """Whether *host* is currently believed alive."""
        with self._lock:
            return host not in self._dead

    def mark_alive(self, host: str) -> None:
        """Clear all suspicion of *host* (probe success / heard from it)."""
        with self._lock:
            self._failures.pop(host, None)
            revived = host in self._dead
            self._dead.discard(host)
            if revived and self.on_transition is not None:
                self._pending.append((host, True))
        if revived:
            self._drain_notifications()

    def mark_dead(self, host: str) -> None:
        """Declare *host* dead immediately (hard connection evidence)."""
        with self._lock:
            self._failures[host] = self.threshold
            newly = host not in self._dead
            self._dead.add(host)
            if newly and self.on_transition is not None:
                self._pending.append((host, False))
        if newly:
            self._drain_notifications()

    def record_failure(self, host: str) -> bool:
        """Account one failed probe; returns True when *host* turns dead."""
        with self._lock:
            count = self._failures.get(host, 0) + 1
            self._failures[host] = count
            newly = False
            if count >= self.threshold:
                newly = host not in self._dead
                self._dead.add(host)
                if newly and self.on_transition is not None:
                    self._pending.append((host, False))
        if newly:
            self._drain_notifications()
        return newly

    def dead_hosts(self) -> tuple[str, ...]:
        """Currently-suspected hosts (diagnostics/stats)."""
        with self._lock:
            return tuple(sorted(self._dead))


class HeartbeatMonitor:
    """Background prober that keeps a :class:`FailureDetector` current.

    One round asks *probe* (the memo server's ``Router.probe``, which
    feeds its detector) about every *other* host in the address book.
    The monitor is started lazily — only when replication is actually in
    use — so the default configuration generates zero extra traffic and
    the distribution benches stay byte-for-byte identical to the seed.

    Args:
        host: the local host name (skipped as a target).
        address_book: live host → address mapping (shared with the server;
            read fresh each round).
        probe: ``probe(peer, quiet)`` — observe *peer*, heartbeating it
            when nothing was heard from it for *quiet* seconds.
        interval: seconds between probe rounds.
    """

    def __init__(
        self,
        host: str,
        address_book: dict[str, Address],
        probe: Callable[[str, float], None],
        interval: float = 0.1,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"heartbeat interval must be > 0, got {interval}")
        self.host = host
        self.address_book = address_book
        self.probe = probe
        self.interval = interval
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name=f"heartbeat-{self.host}", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=2.0)
        self._thread = None

    def probe_once(self) -> None:
        """One synchronous probe round (also used by tests)."""
        for peer in sorted(self.address_book):
            if peer == self.host or self._stop.is_set():
                continue
            self.probe(peer, self.interval)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.probe_once()
            self._stop.wait(self.interval)
