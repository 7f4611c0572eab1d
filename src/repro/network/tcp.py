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

from repro.errors import CommunicationError, ConnectionClosedError, FrameError
from repro.network.connection import Address, Connection, Listener, Transport
from repro.network.frames import parse_frame, write_frame

__all__ = ["TCPTransport", "TCPConnection", "TCPListener", "bind_loopback"]


#: Most bytes one read takes from the socket.
_READ_SIZE = 64 * 1024


class TCPConnection(Connection):
    """A framed message channel over one TCP socket.

    Reads are buffered: ``recv`` first parses a whole frame out of the
    bytes already read (:func:`~repro.network.frames.parse_frame`), and
    only when none is there does it select and read up to 64 KiB in one
    call — so a burst of frames that arrived together costs one read, and
    a frame already buffered is returned even by a zero poll timeout.
    ``send`` tries each frame once without blocking and selects for
    writability only when the kernel pushes back (a partial send or
    ``EAGAIN``).

    The ``recv`` timeout is a *poll* timeout: it applies only while no
    byte of the next frame is buffered.  Once a frame has started, the
    read is committed — a server poll loop (e.g. the memo server's 0.5 s
    shutdown check) timing out mid-frame must not abandon the partial
    bytes, or the next ``recv`` would start decoding from the middle of
    the stream and hand the peer garbage.  A started frame is drained
    with its own budget (:data:`drain_timeout` per read); a peer that
    stalls past it gets the connection *failed*, never desynced.  So does
    a bad frame: after one, the buffer can no longer be trusted.
    """

    #: Per-read budget for finishing a frame whose first byte arrived.
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
        self._buf = bytearray()  # read, not yet returned; guarded by _recv_lock
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

    def _send_frame(self, frame: bytes) -> None:
        # The socket stays blocking (see _read_frame for why settimeout
        # is banned): one non-blocking try, then the bound comes from a
        # writability select per chunk.
        try:
            sent = self._sock.send(frame, socket.MSG_DONTWAIT)
        except BlockingIOError:
            sent = 0
        view = memoryview(frame)[sent:]
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
                write_frame(self._send_frame, payload)
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
            try:
                return self._read_frame(timeout)
            except FrameError:
                self._abandon()
                raise
            except ConnectionClosedError:
                self._closed = True
                raise

    def _read_frame(self, timeout: float | None) -> bytes:
        buf = self._buf
        while True:
            frame = parse_frame(buf)
            if frame is not None:
                payload, end = frame
                del buf[:end]  # O(1): a bytearray drops its head in place
                return payload
            # Timeouts are implemented with select, never settimeout: a
            # socket timeout is socket-wide, and a pipelined session
            # recv-polls on this thread while worker threads send on the
            # same socket — a reader poll deadline must not be able to
            # time out (and half-write) a concurrent send.
            started = bool(buf)
            try:
                ready, _, _ = select.select(
                    [self._sock], [], [], self.drain_timeout if started else timeout
                )
            except (OSError, ValueError) as exc:
                raise ConnectionClosedError(f"socket recv failed: {exc}") from exc
            if not ready:
                if not started:
                    # Clean poll timeout: the stream is untouched.
                    raise TimeoutError("recv timed out")
                # Mid-frame stall past the drain budget: the stream
                # position is no longer knowable, so the connection must
                # die — failing cleanly beats leaving the peer to decode
                # garbage.
                self._abandon()
                raise ConnectionClosedError(
                    "peer stalled mid-frame; connection abandoned"
                )
            try:
                chunk = self._sock.recv(_READ_SIZE)
            except OSError as exc:
                raise ConnectionClosedError(f"socket recv failed: {exc}") from exc
            if not chunk:
                raise ConnectionClosedError("peer closed the connection")
            buf += chunk

    def frame_buffered(self) -> bool:
        # Asked by the reading thread between two recvs: the buffer is
        # its own.
        try:
            return parse_frame(self._buf) is not None
        except FrameError:
            return True  # the next recv fails the connection

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._sock.close()  # also after a failure, which kept the fd

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
        try:
            # Inside the try: a close() racing past the check above leaves
            # a closed socket, which refuses settimeout as it refuses accept.
            self._sock.settimeout(timeout)
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
