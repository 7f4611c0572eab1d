"""Unit tests for the in-memory and TCP transports against the Connection
contract — the same test body runs over both media, which *is* the paper's
portability claim for the communication foundation."""

import threading
import time

import pytest

from repro.errors import CommunicationError, ConnectionClosedError
from repro.network.connection import Address
from repro.network.tcp import TCPTransport
from repro.network.transport import InMemoryTransport, NetworkFabric


def make_memory():
    fabric = NetworkFabric()
    t = InMemoryTransport(fabric, "hostA")
    listener = t.listen(Address("hostA", 1))
    return t, listener, fabric


def make_tcp():
    t = TCPTransport()
    listener = t.listen(Address("hostA", 0))
    return t, listener, None


@pytest.fixture(params=[make_memory, make_tcp], ids=["memory", "tcp"])
def channel(request):
    transport, listener, fabric = request.param()
    client = transport.connect(listener.address)
    server = listener.accept(timeout=5)
    yield client, server, fabric
    client.close()
    server.close()
    listener.close()


class TestConnectionContract:
    def test_send_recv(self, channel):
        client, server, _ = channel
        client.send(b"ping")
        assert server.recv(timeout=5) == b"ping"
        server.send(b"pong")
        assert client.recv(timeout=5) == b"pong"

    def test_ordering_preserved(self, channel):
        client, server, _ = channel
        for i in range(50):
            client.send(f"msg{i}".encode())
        for i in range(50):
            assert server.recv(timeout=5) == f"msg{i}".encode()

    def test_frame_buffered_is_a_whole_frame_waiting(self, channel):
        client, server, _ = channel
        assert not server.frame_buffered()
        for i in range(3):
            client.send(f"msg{i}".encode())
        assert server.recv(timeout=5) == b"msg0"
        assert server.frame_buffered()  # already read (TCP) or queued
        assert server.recv(timeout=5) == b"msg1"
        assert server.recv(timeout=5) == b"msg2"
        assert not server.frame_buffered()

    def test_large_message(self, channel):
        client, server, _ = channel
        payload = bytes(i % 256 for i in range(500_000))
        client.send(payload)
        assert server.recv(timeout=10) == payload

    def test_empty_message(self, channel):
        client, server, _ = channel
        client.send(b"")
        assert server.recv(timeout=5) == b""

    def test_recv_timeout(self, channel):
        client, _server, _ = channel
        with pytest.raises(TimeoutError):
            client.recv(timeout=0.05)

    def test_close_wakes_peer(self, channel):
        client, server, _ = channel
        errors = []

        def waiter():
            try:
                server.recv(timeout=5)
            except ConnectionClosedError:
                errors.append(True)

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
        client.close()
        t.join(timeout=5)
        assert errors == [True]

    def test_send_after_close_rejected(self, channel):
        client, _server, _ = channel
        client.close()
        with pytest.raises(ConnectionClosedError):
            client.send(b"late")

    def test_closed_property(self, channel):
        client, _server, _ = channel
        assert not client.closed
        client.close()
        assert client.closed


class TestListener:
    def test_accept_timeout(self):
        _t, listener, _ = make_memory()
        with pytest.raises(TimeoutError):
            listener.accept(timeout=0.05)
        listener.close()

    def test_connect_to_closed_listener(self):
        t, listener, _ = make_memory()
        pending = t.connect(listener.address)  # dialled, never accepted
        listener.close()
        # Reset, as a TCP listener's accept queue is: no wait on a server
        # that will never answer.
        with pytest.raises(ConnectionClosedError):
            pending.recv(timeout=5)
        with pytest.raises(ConnectionClosedError):
            t.connect(listener.address)

    def test_duplicate_bind_rejected(self):
        fabric = NetworkFabric()
        t = InMemoryTransport(fabric, "h")
        listener = t.listen(Address("h", 1))
        with pytest.raises(CommunicationError):
            t.listen(Address("h", 1))
        listener.close()

    def test_tcp_dynamic_port_assigned(self):
        t = TCPTransport()
        listener = t.listen(Address("x", 0))
        assert listener.address.port > 0
        listener.close()

    def test_tcp_accept_on_a_socket_closed_under_it(self):
        """A close that lands between accept's closed-check and its socket
        calls (a server's stop() racing its accept thread) is the listener
        closing: ConnectionClosedError, never a bare OSError."""
        _t, listener, _ = make_tcp()
        listener._sock.close()  # closed under it: the flag still reads open
        with pytest.raises(ConnectionClosedError):
            listener.accept(timeout=0.1)
        listener.close()

    def test_tcp_connect_refused(self):
        t = TCPTransport()
        with pytest.raises(ConnectionClosedError):
            t.connect(Address("x", 1))  # port 1: nothing listening


class TestFabricSimulation:
    def test_latency_applied(self):
        fabric = NetworkFabric()
        fabric.set_latency("hostA", "hostB", 0.08)
        ta = InMemoryTransport(fabric, "hostA")
        tb = InMemoryTransport(fabric, "hostB")
        listener = tb.listen(Address("hostB", 1))
        client = ta.connect(listener.address)
        server = listener.accept(timeout=2)
        start = time.monotonic()
        client.send(b"slow")
        assert server.recv(timeout=2) == b"slow"
        assert time.monotonic() - start >= 0.07

    def test_same_host_zero_latency(self):
        fabric = NetworkFabric()
        fabric.set_latency("hostA", "hostB", 0.5)
        assert fabric.latency("hostA", "hostA") == 0.0

    def test_negative_latency_rejected(self):
        with pytest.raises(CommunicationError):
            NetworkFabric().set_latency("a", "b", -1)

    def test_traffic_accounting(self):
        _t, listener, fabric = make_memory()
        t2 = InMemoryTransport(fabric, "hostB")
        client = t2.connect(listener.address)
        server = listener.accept(timeout=2)
        client.send(b"12345")
        server.recv(timeout=2)
        traffic = fabric.traffic()
        assert traffic[("hostB", "hostA")].messages == 1
        assert traffic[("hostB", "hostA")].bytes == 5

    def test_reset_traffic(self):
        _t, listener, fabric = make_memory()
        client = InMemoryTransport(fabric, "hostB").connect(listener.address)
        client.send(b"x")
        fabric.reset_traffic()
        assert fabric.traffic() == {}

    def test_broadcast_counter_starts_zero(self):
        assert NetworkFabric().broadcast_count == 0


def _link(fabric, src="hostB", dst="hostA", port=1):
    """A connected (sender, receiver) pair over the src → dst link."""
    listener = InMemoryTransport(fabric, dst).listen(Address(dst, port))
    sender = InMemoryTransport(fabric, src).connect(listener.address)
    return sender, listener.accept(timeout=2)


class TestFabricHandOffs:
    """What the fabric's queues must keep doing whatever they are made of."""

    def test_concurrent_sends_are_all_counted(self):
        import sys

        fabric = NetworkFabric()
        listener = InMemoryTransport(fabric, "hostA").listen(Address("hostA", 1))
        transport = InMemoryTransport(fabric, "hostB")
        # Four connections on the one link, two sender threads on each.
        pairs = []
        for _ in range(4):
            sender = transport.connect(listener.address)
            pairs.append((sender, listener.accept(timeout=2)))
        per_thread = 10_000

        def sender(conn, tid):
            for i in range(per_thread):
                conn.send(b"%d:%d" % (tid, i))

        threads = [
            threading.Thread(target=sender, args=(pairs[tid % 4][0], tid))
            for tid in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        expected_bytes = sum(
            len(b"%d:%d" % (tid, i)) for tid in range(8) for i in range(per_thread)
        )
        stats = fabric.traffic()[("hostB", "hostA")]
        assert (stats.messages, stats.bytes) == (80_000, expected_bytes)
        # Each thread's messages arrive in the order it sent them.
        for k, (_sender, receiver) in enumerate(pairs):
            seen = {k: -1, k + 4: -1}
            for _ in range(2 * per_thread):
                tid, i = map(int, receiver.recv(timeout=2).split(b":"))
                assert i == seen[tid] + 1
                seen[tid] = i
            assert seen == {k: per_thread - 1, k + 4: per_thread - 1}

    def test_close_wakes_a_peer_blocked_without_timeout(self):
        sender, receiver = _link(NetworkFabric())
        outcome = []

        def waiter():
            try:
                receiver.recv(timeout=None)
            except ConnectionClosedError:
                outcome.append(time.monotonic())

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
        closed_at = time.monotonic()
        sender.close()
        t.join(timeout=5)
        assert not t.is_alive()
        assert len(outcome) == 1 and outcome[0] - closed_at < 0.15
        assert receiver.closed
        with pytest.raises(ConnectionClosedError):
            receiver.send(b"late")

    def test_latency_delays_and_keeps_fifo(self):
        fabric = NetworkFabric()
        sender, receiver = _link(fabric)
        sender.send(b"before")  # no latency configured: readable at once
        assert receiver.recv(timeout=2) == b"before"
        fabric.set_latency("hostA", "hostB", 0.08)
        start = time.monotonic()
        for i in range(5):
            sender.send(b"%d" % i)
        # Dropping the latency must not let a later message overtake.
        fabric.set_latency("hostA", "hostB", 0.0)
        sender.send(b"after")
        assert receiver.recv(timeout=2) == b"0"
        assert time.monotonic() - start >= 0.07
        assert [receiver.recv(timeout=2) for _ in range(5)] == [
            b"1", b"2", b"3", b"4", b"after",
        ]

    def test_loopback_link_ignores_configured_latency(self):
        fabric = NetworkFabric()
        fabric.set_latency("hostA", "hostA", 0.5)
        sender, receiver = _link(fabric, src="hostA")
        start = time.monotonic()
        sender.send(b"local")
        assert receiver.recv(timeout=2) == b"local"
        assert time.monotonic() - start < 0.25

    def test_partition_mid_stream_fails_the_next_send(self):
        fabric = NetworkFabric()
        sender, receiver = _link(fabric)
        sender.send(b"on the wire")
        fabric.partition("hostA", "hostB")
        with pytest.raises(ConnectionClosedError, match="partitioned"):
            sender.send(b"cut")
        with pytest.raises(ConnectionClosedError, match="partitioned"):
            receiver.send(b"cut too")
        # Already queued traffic still arrives, and only it was counted.
        assert receiver.recv(timeout=2) == b"on the wire"
        assert fabric.traffic()[("hostB", "hostA")].messages == 1
        fabric.heal("hostA", "hostB")
        sender.send(b"healed")
        assert receiver.recv(timeout=2) == b"healed"

    def test_recv_timeout_leaves_the_stream_intact(self):
        sender, receiver = _link(NetworkFabric())
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            receiver.recv(timeout=0.05)
        assert 0.04 <= time.monotonic() - start < 1.0
        with pytest.raises(TimeoutError):
            receiver.recv(timeout=0)
        for i in range(3):
            sender.send(b"%d" % i)
        assert [receiver.recv(timeout=2) for _ in range(3)] == [b"0", b"1", b"2"]
        assert not receiver.closed
