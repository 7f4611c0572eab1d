"""In-memory transport over a simulated network fabric.

The :class:`NetworkFabric` plays the rôle of the physical network in the
reproduction: it owns the address space, delivers messages between paired
queue endpoints, injects per-link latency derived from the ADF connection
costs, and feeds the traffic metrics that the benches report (bytes and
messages per link — the quantities section 5 of the paper reasons about).

Latency model: a message sent at time *t* over a link with latency *d*
becomes readable at *t + d*.  Ordering per connection is preserved (FIFO
queues), matching a TCP-like virtual circuit.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass

from repro.errors import CommunicationError, ConnectionClosedError
from repro.network.connection import Address, Connection, Listener, Transport

__all__ = ["NetworkFabric", "InMemoryTransport", "InMemoryConnection"]


@dataclass
class LinkStats:
    """Per-(src,dst) traffic counters, symmetric counterpart kept separately."""

    messages: int = 0
    bytes: int = 0


class _LinkCounter:
    """One link's live counters behind its own lock.

    Sharding the accounting per (src, dst) keeps every ``send`` on every
    connection from funnelling through one fabric-global lock — on a busy
    simulated cluster that lock *was* the network.
    """

    __slots__ = ("lock", "messages", "bytes")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.messages = 0
        self.bytes = 0

    def add(self, nbytes: int) -> None:
        """Account one message of *nbytes*."""
        with self.lock:
            self.messages += 1
            self.bytes += nbytes


class NetworkFabric:
    """The simulated medium: listeners, latency, and traffic accounting."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._listeners: dict[Address, "InMemoryListener"] = {}
        self._latency: dict[tuple[str, str], float] = {}
        self._partitioned: set[tuple[str, str]] = set()
        self._counters: dict[tuple[str, str], _LinkCounter] = {}
        #: Count of broadcast operations; D-Memo never broadcasts, and the
        #: integration tests assert this stays zero.
        self.broadcast_count = 0

    # -- latency configuration ----------------------------------------------

    def set_latency(self, host_a: str, host_b: str, seconds: float) -> None:
        """Set symmetric link latency between two hosts.

        A host's loopback is not a link: a same-host pair is never
        stored, so every reader of the table sees 0 for it.
        """
        if seconds < 0:
            raise CommunicationError(f"latency must be >= 0, got {seconds}")
        if host_a == host_b:
            return
        with self._lock:
            self._latency[(host_a, host_b)] = seconds
            self._latency[(host_b, host_a)] = seconds

    def latency(self, host_a: str, host_b: str) -> float:
        """Current latency between two hosts (0 when unset or same host).

        Lock-free: a single dict read is atomic under the GIL, which is
        what lets ``InMemoryConnection.send`` read the table directly.
        """
        return self._latency.get((host_a, host_b), 0.0)

    # -- fault injection -------------------------------------------------------

    def partition(self, host_a: str, host_b: str) -> None:
        """Cut the link between two hosts, both directions.

        New connects fail immediately and in-flight connections refuse
        further sends (:class:`ConnectionClosedError` either way), which
        is what a switch failure looks like to TCP-like endpoints.
        Already-queued envelopes still deliver — packets on the wire
        outrun the failure.
        """
        with self._lock:
            self._partitioned.add((host_a, host_b))
            self._partitioned.add((host_b, host_a))

    def heal(self, host_a: str, host_b: str) -> None:
        """Restore the link between two hosts."""
        with self._lock:
            self._partitioned.discard((host_a, host_b))
            self._partitioned.discard((host_b, host_a))

    def heal_all(self) -> None:
        """Restore every partitioned link."""
        with self._lock:
            self._partitioned.clear()

    def is_partitioned(self, host_a: str, host_b: str) -> bool:
        """True when traffic between the hosts is currently cut.

        Lock-free set membership (atomic under the GIL), which is what
        lets ``InMemoryConnection.send`` test the set directly.
        """
        return (host_a, host_b) in self._partitioned

    # -- traffic metrics ------------------------------------------------------

    def _counter(self, key: tuple[str, str]) -> _LinkCounter:
        counter = self._counters.get(key)  # lock-free fast path
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(key, _LinkCounter())
        return counter

    def record_traffic(self, src: str, dst: str, nbytes: int) -> None:
        """Account one message of *nbytes* from *src* to *dst*."""
        self._counter((src, dst)).add(nbytes)

    def traffic(self) -> dict[tuple[str, str], LinkStats]:
        """Merged snapshot of all per-link counters (all-zero links omitted)."""
        with self._lock:
            items = list(self._counters.items())
        out: dict[tuple[str, str], LinkStats] = {}
        for key, counter in items:
            with counter.lock:
                if counter.messages or counter.bytes:
                    out[key] = LinkStats(counter.messages, counter.bytes)
        return out

    def reset_traffic(self) -> None:
        """Zero all counters (used between bench phases).

        Counters are zeroed in place under their own locks — never removed
        from the dict — so a concurrent ``record_traffic`` that already
        grabbed its counter keeps incrementing the live object and its
        message is visible to the next snapshot, not lost to an orphan.
        """
        with self._lock:
            counters = list(self._counters.values())
        for counter in counters:
            with counter.lock:
                counter.messages = 0
                counter.bytes = 0

    # -- listener registry ----------------------------------------------------

    def bind(self, listener: "InMemoryListener") -> None:
        with self._lock:
            if listener.address in self._listeners:
                raise CommunicationError(f"address {listener.address} already bound")
            self._listeners[listener.address] = listener

    def unbind(self, address: Address) -> None:
        with self._lock:
            self._listeners.pop(address, None)

    def lookup(self, address: Address) -> "InMemoryListener":
        with self._lock:
            listener = self._listeners.get(address)
        if listener is None or listener.is_closed:
            raise ConnectionClosedError(f"no listener at {address}")
        return listener


#: What travels through a connection's queues: ``(payload, deliver_at)``.
#: *deliver_at* is the earliest ``time.monotonic()`` the payload may be read,
#: or 0.0 when the link had no latency configured at send time (so neither
#: side touches the clock).  A ``None`` payload is the close marker.
_CLOSE_MARKER = (None, 0.0)


class InMemoryConnection(Connection):
    """One endpoint of a paired-queue connection.

    The queues are :class:`queue.SimpleQueue`: its ``put`` and blocking
    ``get`` are one C call each, where the bounded queue class goes
    through a Python-level mutex and two conditions per hand-off.
    """

    def __init__(
        self,
        fabric: NetworkFabric,
        local_host: str,
        remote_host: str,
        inbox: "queue.SimpleQueue[tuple]",
        outbox: "queue.SimpleQueue[tuple]",
    ) -> None:
        self._fabric = fabric
        self.local_host = local_host
        self.remote_host = remote_host
        self._inbox = inbox
        self._outbox = outbox
        self._closed = threading.Event()
        # Resolved once: a connection's link never changes, and counters
        # are zeroed in place, never replaced (see ``reset_traffic``).
        self._link = (local_host, remote_host)
        self._counter = fabric._counter(self._link)

    def send(self, payload: bytes) -> None:
        if self._closed.is_set():
            raise ConnectionClosedError("send on closed connection")
        fabric = self._fabric
        link = self._link
        if link in fabric._partitioned:
            raise ConnectionClosedError(
                f"link {self.local_host} – {self.remote_host} is partitioned"
            )
        latency = fabric._latency.get(link)
        self._counter.add(len(payload))
        self._outbox.put(
            (payload, time.monotonic() + latency if latency else 0.0)
        )

    def recv(self, timeout: float | None = None) -> bytes:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._closed.is_set():
                raise ConnectionClosedError("recv on closed connection")
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("recv timed out")
            try:
                payload, deliver_at = self._inbox.get(
                    timeout=remaining if remaining is not None else 0.2
                )
            except queue.Empty:
                if deadline is None:
                    continue  # re-check closed flag, keep waiting
                raise TimeoutError("recv timed out") from None
            if payload is None:
                self._closed.set()
                raise ConnectionClosedError("peer closed the connection")
            if deliver_at:
                delay = deliver_at - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            return payload

    def frame_buffered(self) -> bool:
        return not self._inbox.empty()

    def close(self) -> None:
        if not self._closed.is_set():
            self._closed.set()
            # Wake the peer's recv with a close marker.
            self._outbox.put(_CLOSE_MARKER)

    @property
    def closed(self) -> bool:
        return self._closed.is_set()


class InMemoryListener(Listener):
    """Accept queue for one bound address."""

    def __init__(self, fabric: NetworkFabric, address: Address) -> None:
        self._fabric = fabric
        self._address = address
        #: None is the close sentinel: it wakes a blocked accept instantly.
        self._backlog: "queue.SimpleQueue[InMemoryConnection | None]" = (
            queue.SimpleQueue()
        )
        self._closed = threading.Event()
        self._lock = threading.Lock()  # orders enqueue against close
        fabric.bind(self)

    @property
    def address(self) -> Address:
        return self._address

    @property
    def is_closed(self) -> bool:
        return self._closed.is_set()

    def enqueue(self, conn: InMemoryConnection) -> None:
        with self._lock:
            if self._closed.is_set():
                raise ConnectionClosedError(f"listener at {self._address} is closed")
            self._backlog.put(conn)

    def accept(self, timeout: float | None = None) -> Connection:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._closed.is_set():
                raise ConnectionClosedError("listener closed")
            remaining = 0.2
            if deadline is not None:
                remaining = min(remaining, deadline - time.monotonic())
                if remaining <= 0:
                    raise TimeoutError("accept timed out")
            try:
                conn = self._backlog.get(timeout=remaining)
            except queue.Empty:
                continue
            if conn is None:
                raise ConnectionClosedError("listener closed")
            return conn

    def close(self) -> None:
        with self._lock:
            self._closed.set()
        self._fabric.unbind(self._address)
        # A connection never accepted is reset, as a TCP listener's accept
        # queue is: its dialer must not wait on a server that never comes.
        while True:
            try:
                conn = self._backlog.get_nowait()
            except queue.Empty:
                break
            if conn is not None:
                conn.close()
        self._backlog.put(None)


class InMemoryTransport(Transport):
    """Transport over a :class:`NetworkFabric`.

    Each transport instance is bound to the host name it "runs on", so the
    fabric can attribute traffic and latency to the right link.
    """

    def __init__(self, fabric: NetworkFabric, local_host: str) -> None:
        self.fabric = fabric
        self.local_host = local_host

    def listen(self, address: Address) -> Listener:
        return InMemoryListener(self.fabric, address)

    def connect(self, address: Address, timeout: float | None = None) -> Connection:
        if self.fabric.is_partitioned(self.local_host, address.host):
            raise ConnectionClosedError(
                f"link {self.local_host} – {address.host} is partitioned"
            )
        listener = self.fabric.lookup(address)
        a_to_b: "queue.SimpleQueue[tuple]" = queue.SimpleQueue()
        b_to_a: "queue.SimpleQueue[tuple]" = queue.SimpleQueue()
        client = InMemoryConnection(
            self.fabric, self.local_host, address.host, inbox=b_to_a, outbox=a_to_b
        )
        server = InMemoryConnection(
            self.fabric, address.host, self.local_host, inbox=a_to_b, outbox=b_to_a
        )
        listener.enqueue(server)
        return client
