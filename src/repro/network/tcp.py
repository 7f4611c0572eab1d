"""Real TCP/IP transport over loopback sockets.

The same framed protocol the in-memory transport carries runs here over
genuine OS sockets, demonstrating the paper's claim that the Connection
abstraction "can be defined independent of any known networking protocol":
not one line of server code changes between the two media.
"""

from __future__ import annotations

import select
import socket
import threading

from repro.errors import CommunicationError, ConnectionClosedError
from repro.network.connection import Address, Connection, Listener, Transport
from repro.network.frames import read_frame, write_frame

__all__ = ["TCPTransport", "TCPConnection", "TCPListener", "bind_loopback"]


class TCPConnection(Connection):
    """A framed message channel over one TCP socket.

    The ``recv`` timeout is a *poll* timeout: it applies only until the
    first byte of a frame arrives.  Once a frame has started, the read is
    committed — a server poll loop (e.g. the memo server's 0.5 s shutdown
    check) timing out mid-frame must not abandon the partial bytes, or
    the next ``recv`` would start decoding from the middle of the stream
    and hand the peer garbage.  A started frame is drained with its own
    budget (:data:`drain_timeout` per chunk); a peer that stalls past it
    gets the connection *failed*, never desynced.
    """

    #: Per-chunk budget for finishing a frame whose first byte arrived.
    drain_timeout = 5.0

    #: Per-chunk budget for a send making progress.  A peer that stops
    #: reading (full receive buffer) fails the connection after this
    #: rather than wedging the sending thread — and everything queued on
    #: the send lock behind it — forever.
    send_timeout = 30.0

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._closed = False
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _abandon(self) -> None:
        """Fail the connection from an in-band error path.

        ``shutdown`` rather than ``close``: a pipelined session sends and
        receives concurrently on this socket, and closing the fd while
        another thread is mid-``select``/``send`` would let the OS recycle
        the fd number for a freshly-accepted connection — the stale
        thread would then write into an unrelated peer's stream.  The fd
        itself is released by :meth:`close` once the session tears down.
        """
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def _bounded_sendall(self, data: bytes) -> None:
        # The socket stays blocking (see recv for why settimeout is
        # banned); the bound comes from a writability select per chunk.
        view = memoryview(data)
        while view:
            try:
                _, ready, _ = select.select([], [self._sock], [], self.send_timeout)
            except (OSError, ValueError) as exc:
                raise ConnectionClosedError(f"socket send failed: {exc}") from exc
            if not ready:
                self._abandon()
                raise ConnectionClosedError(
                    "peer stopped reading; send stalled past its budget"
                )
            sent = self._sock.send(view)
            view = view[sent:]

    def send(self, payload: bytes) -> None:
        if self._closed:
            raise ConnectionClosedError("send on closed connection")
        try:
            with self._send_lock:
                write_frame(self._bounded_sendall, payload)
        except OSError as exc:
            self._closed = True
            raise ConnectionClosedError(f"socket send failed: {exc}") from exc
        except ConnectionClosedError:
            self._closed = True
            raise

    def recv(self, timeout: float | None = None) -> bytes:
        if self._closed:
            raise ConnectionClosedError("recv on closed connection")
        with self._recv_lock:
            started = False

            def recv_exact(n: int) -> bytes:
                # Timeouts are implemented with select, never settimeout:
                # a socket timeout is socket-wide, and a pipelined session
                # recv-polls on this thread while worker threads send on
                # the same socket — a reader poll deadline must not be
                # able to time out (and half-write) a concurrent sendall.
                nonlocal started
                chunks = []
                remaining = n
                while remaining:
                    wait = timeout if not started else self.drain_timeout
                    try:
                        ready, _, _ = select.select([self._sock], [], [], wait)
                    except (OSError, ValueError) as exc:
                        raise ConnectionClosedError(
                            f"socket recv failed: {exc}"
                        ) from exc
                    if not ready:
                        if not started:
                            # Clean poll timeout: the stream is untouched.
                            raise TimeoutError("recv timed out")
                        # Mid-frame stall past the drain budget: the
                        # stream position is no longer knowable, so the
                        # connection must die — failing cleanly beats
                        # leaving the peer to decode garbage.
                        self._abandon()
                        raise ConnectionClosedError(
                            "peer stalled mid-frame; connection abandoned"
                        )
                    try:
                        chunk = self._sock.recv(remaining)
                    except OSError as exc:
                        raise ConnectionClosedError(
                            f"socket recv failed: {exc}"
                        ) from exc
                    if not chunk:
                        raise ConnectionClosedError("peer closed the connection")
                    started = True
                    chunks.append(chunk)
                    remaining -= len(chunk)
                return b"".join(chunks)

            try:
                return read_frame(recv_exact)
            except ConnectionClosedError:
                self._closed = True
                raise

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()

    @property
    def closed(self) -> bool:
        return self._closed


def bind_loopback(port: int) -> socket.socket:
    """A loopback socket bound to *port* (0 = OS-assigned), not listening.

    ``SO_REUSEADDR`` lets a restarted host's listener bind the port its
    dead incarnation left in ``TIME_WAIT``, and lets a listener bind
    beside a bound socket that never listens (how a cluster keeps a dead
    host's port from being drawn by anyone else).
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        sock.bind(("127.0.0.1", port))
    except OSError as exc:
        sock.close()
        raise CommunicationError(f"cannot bind port {port}: {exc}") from exc
    return sock


class TCPListener(Listener):
    """Accepting socket bound to loopback.

    *sock*, when given, is an already-listening socket to adopt (one this
    process was born holding) instead of binding a new one.
    """

    def __init__(self, address: Address, sock: socket.socket | None = None) -> None:
        if sock is None:
            sock = bind_loopback(address.port)
            sock.listen(64)
        self._sock = sock
        # Port 0 means "pick one"; expose the real port.
        self._address = Address(address.host, self._sock.getsockname()[1])
        self._closed = False

    @property
    def address(self) -> Address:
        return self._address

    def accept(self, timeout: float | None = None) -> Connection:
        if self._closed:
            raise ConnectionClosedError("listener closed")
        self._sock.settimeout(timeout)
        try:
            sock, _peer = self._sock.accept()
        except socket.timeout:
            raise TimeoutError("accept timed out") from None
        except OSError as exc:
            raise ConnectionClosedError(f"accept failed: {exc}") from exc
        return TCPConnection(sock)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._sock.close()


class TCPTransport(Transport):
    """Transport whose addresses resolve to 127.0.0.1 ports.

    Logical host names are kept in the :class:`Address` for diagnostics but
    every endpoint binds to loopback — the reproduction runs a whole
    "network" on one machine.
    """

    def __init__(self, inherited: dict[int, int] | None = None) -> None:
        #: port -> file descriptor of a listening socket the process was
        #: handed at birth; :meth:`listen` on that port adopts it.
        self._inherited = dict(inherited or {})

    def listen(self, address: Address) -> Listener:
        fd = self._inherited.pop(address.port, None)
        if fd is None:
            return TCPListener(address)
        return TCPListener(address, socket.socket(fileno=fd))

    def connect(self, address: Address, timeout: float | None = None) -> Connection:
        try:
            sock = socket.create_connection(("127.0.0.1", address.port), timeout)
        except OSError as exc:
            raise ConnectionClosedError(f"cannot connect to {address}: {exc}") from exc
        sock.settimeout(None)
        return TCPConnection(sock)
