"""TCP framing under poll timeouts: a started frame is never abandoned.

The memo server's connection loop polls ``recv`` with a short timeout so
it can notice shutdown.  Before the fix, a timeout that fired after part
of a frame had been read threw the partial bytes away; the next ``recv``
then decoded from the middle of the stream — garbage for the peer.  Now
the poll timeout applies only until a frame's first byte: a started frame
is drained to completion, and a peer that stalls mid-frame gets the
connection failed (closed), never desynced.

The reader is buffered: it parses whole frames out of what it has read
before it waits on the socket again, so the tests below also pin what a
buffer must not get wrong — frames that arrived together, a bad frame,
fragments trickled in pieces — and the send side's stall budget.
"""

import socket
import threading
import time

import pytest

from repro.errors import ConnectionClosedError, FrameError
from repro.network.connection import Address
from repro.network.frames import DEFAULT_MAX_FRAGMENT, encode_frames
from repro.network.tcp import TCPConnection, TCPTransport


@pytest.fixture
def pair():
    transport = TCPTransport()
    listener = transport.listen(Address("loop", 0))
    result = {}

    def accept():
        result["server"] = listener.accept(timeout=5.0)

    thread = threading.Thread(target=accept)
    thread.start()
    raw = socket.create_connection(("127.0.0.1", listener.address.port), 5.0)
    thread.join()
    yield raw, result["server"]
    raw.close()
    result["server"].close()
    listener.close()


class TestPartialFrames:
    def test_slow_frame_survives_short_poll_timeouts(self, pair):
        raw, server = pair
        payload = b"hello-world" * 10
        [frame] = encode_frames(payload)
        half = len(frame) // 2

        def trickle():
            raw.sendall(frame[:half])
            time.sleep(0.6)  # well past the 0.2 s poll timeout below
            raw.sendall(frame[half:])

        thread = threading.Thread(target=trickle)
        thread.start()
        # Poll loop shape: short timeouts until a frame begins.  The frame
        # starts mid-poll and stalls past the timeout — the read must
        # commit and return the whole payload, not abandon the half.
        deadline = time.monotonic() + 5.0
        got = None
        while got is None and time.monotonic() < deadline:
            try:
                got = server.recv(timeout=0.2)
            except TimeoutError:
                continue
        thread.join()
        assert got == payload

    def test_two_frames_with_midframe_pause_stay_in_sync(self, pair):
        raw, server = pair
        [one] = encode_frames(b"first")
        [two] = encode_frames(b"second")

        def send():
            raw.sendall(one[:5])
            time.sleep(0.4)
            raw.sendall(one[5:] + two)

        thread = threading.Thread(target=send)
        thread.start()
        frames = []
        deadline = time.monotonic() + 5.0
        while len(frames) < 2 and time.monotonic() < deadline:
            try:
                frames.append(server.recv(timeout=0.1))
            except TimeoutError:
                continue
        thread.join()
        assert frames == [b"first", b"second"]

    def test_midframe_stall_fails_the_connection_cleanly(self, pair):
        raw, server = pair
        [frame] = encode_frames(b"never-finished")
        raw.sendall(frame[: len(frame) // 2])  # ... and nothing more
        server.drain_timeout = 0.3
        deadline = time.monotonic() + 5.0
        with pytest.raises(ConnectionClosedError):
            while time.monotonic() < deadline:
                server.recv(timeout=0.2)
        assert server.closed

    def test_timeout_before_any_byte_stays_a_clean_timeout(self, pair):
        _raw, server = pair
        with pytest.raises(TimeoutError):
            server.recv(timeout=0.1)
        assert not server.closed


def _small_buffers(sender: socket.socket, receiver: socket.socket) -> int:
    """Shrink both kernel buffers; returns a size past both of them."""
    sender.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 32 * 1024)
    receiver.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 32 * 1024)
    return 4 * (
        sender.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
        + receiver.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
    )


class TestBufferedReader:
    def test_coalesced_frames_are_both_returned_without_waiting(self, pair):
        raw, server = pair
        [one] = encode_frames(b"first")
        [two] = encode_frames(b"second")
        raw.sendall(one + two)  # one segment
        time.sleep(0.2)  # both are in the kernel before the first read
        assert server.recv(timeout=5.0) == b"first"
        # The socket has nothing left to read: the second frame is only in
        # the connection's buffer, and a zero poll must still return it.
        assert server.recv(timeout=0) == b"second"
        with pytest.raises(TimeoutError):
            server.recv(timeout=0)
        assert not server.closed

    def test_bad_magic_fails_the_connection(self, pair):
        raw, server = pair
        [good] = encode_frames(b"good")
        [bad] = encode_frames(b"bad")
        raw.sendall(good + b"XX" + bad[2:] + good)
        assert server.recv(timeout=5.0) == b"good"
        with pytest.raises(FrameError, match="magic"):
            server.recv(timeout=5.0)
        assert server.closed
        with pytest.raises(ConnectionClosedError):
            server.recv(timeout=5.0)
        server.close()  # a failed connection still releases its fd
        assert server._sock.fileno() == -1

    def test_fragmented_payload_trickled_in_small_chunks_reassembles(self, pair):
        raw, server = pair
        payload = bytes(i % 253 for i in range(DEFAULT_MAX_FRAGMENT + 40_000))
        wire = b"".join(encode_frames(payload))
        assert len(encode_frames(payload)) == 2

        def trickle():
            for i in range(0, len(wire), 4093):  # splits every header somewhere
                raw.sendall(wire[i : i + 4093])
                if i % (16 * 4093) == 0:
                    time.sleep(0.005)

        thread = threading.Thread(target=trickle)
        thread.start()
        got = None
        deadline = time.monotonic() + 10.0
        while got is None and time.monotonic() < deadline:
            try:
                got = server.recv(timeout=0.01)
            except TimeoutError:
                continue
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert got == payload

    def test_payload_past_both_socket_buffers_reaches_a_slow_reader(self, pair):
        raw, server = pair
        sender = TCPConnection(raw)
        size = _small_buffers(raw, server._sock)
        payload = bytes(i % 251 for i in range(size))
        errors = []

        def send():
            try:
                sender.send(payload)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        thread = threading.Thread(target=send)
        thread.start()
        time.sleep(0.3)
        assert thread.is_alive()  # blocked on a full pipe, not failed
        assert server.recv(timeout=10.0) == payload
        thread.join(timeout=10.0)
        assert not thread.is_alive() and errors == []

    def test_peer_that_stops_reading_fails_the_sender(self, pair):
        raw, server = pair
        sender = TCPConnection(raw)
        sender.send_timeout = 0.3
        size = _small_buffers(raw, server._sock)
        start = time.monotonic()
        with pytest.raises(ConnectionClosedError, match="stalled"):
            sender.send(b"x" * size)  # the server never reads
        assert 0.3 <= time.monotonic() - start < 5.0
        assert sender.closed
        with pytest.raises(ConnectionClosedError):
            sender.send(b"more")
