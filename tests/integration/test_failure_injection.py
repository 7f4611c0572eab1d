"""Failure injection: corrupt frames, dead peers, half-open connections.

A 1994 departmental network dropped links and corrupted packets; the
foundations must fail loudly and locally, never hang or poison unrelated
connections.
"""

import threading
import time

import pytest

from repro import Cluster, system_default_adf
from repro.core.keys import Key, Symbol
from repro.errors import ConnectionClosedError, FrameError, MemoError
from repro.network.connection import Address
from repro.network.frames import encode_frames
from repro.network.tcp import TCPTransport
from repro.network.transport import InMemoryTransport, NetworkFabric


class TestCorruptInput:
    def test_garbage_bytes_to_memo_server_do_not_kill_it(self):
        """A client sending junk gets disconnected; the server lives on."""
        adf = system_default_adf(["host"], app="fi")
        with Cluster(adf) as cluster:
            cluster.register()
            server_addr = cluster.servers["host"].address
            transport = cluster.backend.transport_for("host")

            rogue = transport.connect(server_addr)
            rogue.send(b"\x00\xde\xad\xbe\xef not a protocol message")
            time.sleep(0.1)
            rogue.close()

            # The server still serves well-behaved clients.
            memo = cluster.memo_api("host", "fi")
            memo.put(Key(Symbol("k")), "alive", wait=True)
            assert memo.get(Key(Symbol("k"))) == "alive"

    def test_corrupt_frame_detected_on_tcp(self):
        transport = TCPTransport()
        listener = transport.listen(Address("x", 0))
        client = transport.connect(listener.address)
        server = listener.accept(timeout=5)

        frame = bytearray(b"".join(encode_frames(b"payload")))
        frame[-1] ^= 0xFF  # flip a payload bit: CRC must catch it
        client._sock.sendall(bytes(frame))  # bypass the framing layer

        with pytest.raises(FrameError, match="checksum"):
            server.recv(timeout=5)
        client.close()
        server.close()
        listener.close()

    def test_decoding_error_is_contained(self):
        """A transferable stream with a bad tag fails cleanly."""
        from repro.errors import DecodingError
        from repro.transferable.wire import decode, encode

        data = bytearray(encode({"k": 1}))
        data[11] = 0xEE  # clobber the first node tag
        with pytest.raises(DecodingError):
            decode(bytes(data))


class TestPeerDeath:
    def test_client_death_releases_server_thread(self):
        """A client that vanishes mid-session must not leak its folder."""
        adf = system_default_adf(["host"], app="fi2")
        with Cluster(adf, idle_timeout=0.3) as cluster:
            cluster.register()
            victim = cluster.memo_api("host", "fi2", "victim")
            victim.put(Key(Symbol("data")), "left behind", wait=True)
            victim.client.close()  # process dies

            # Data outlives the process (distribution in time) and the
            # server keeps serving.
            survivor = cluster.memo_api("host", "fi2", "survivor")
            assert survivor.get(Key(Symbol("data"))) == "left behind"

    def test_blocked_get_survives_other_connection_dying(self):
        adf = system_default_adf(["host"], app="fi3")
        with Cluster(adf) as cluster:
            cluster.register()
            waiter = cluster.memo_api("host", "fi3", "waiter")
            out = []
            t = threading.Thread(
                target=lambda: out.append(waiter.get(Key(Symbol("slow"))))
            )
            t.start()
            time.sleep(0.05)

            # Another connection opens and dies violently.
            doomed = cluster.memo_api("host", "fi3", "doomed")
            doomed.client.close()
            time.sleep(0.05)

            # The waiter is unaffected and gets its memo.
            filler = cluster.memo_api("host", "fi3", "filler")
            filler.put(Key(Symbol("slow")), "eventually")
            t.join(timeout=5)
            assert out == ["eventually"]

    def test_connect_to_stopped_cluster_fails_fast(self):
        adf = system_default_adf(["host"], app="fi4")
        cluster = Cluster(adf).start()
        cluster.register()
        transport = cluster.backend.transport_for("host")
        address = cluster.servers["host"].address
        cluster.stop()
        with pytest.raises(ConnectionClosedError):
            transport.connect(address)


class TestInMemoryHalfOpen:
    def test_send_into_closed_peer_raises_eventually(self):
        fabric = NetworkFabric()
        transport = InMemoryTransport(fabric, "h")
        listener = transport.listen(Address("h", 1))
        client = transport.connect(listener.address)
        server = listener.accept(timeout=2)
        server.close()
        # The close marker is in flight; recv must observe it.
        with pytest.raises(ConnectionClosedError):
            client.recv(timeout=2)
        listener.close()


class TestApplicationLevelErrors:
    def test_error_reply_does_not_poison_connection(self, one_host_cluster):
        memo_bad = one_host_cluster.memo_api("solo", "not-registered")
        memo_good = one_host_cluster.memo_api("solo", "test")
        with pytest.raises(MemoError):
            memo_bad.get_skip(Key(Symbol("x")))
        # Same server, different connection: unaffected.
        memo_good.put(Key(Symbol("x")), 1, wait=True)
        assert memo_good.get(Key(Symbol("x"))) == 1
        # Even the same connection recovers after the error reply.
        with pytest.raises(MemoError):
            memo_bad.get_skip(Key(Symbol("x")))

    def test_worker_crash_reported_not_hung(self):
        from repro import ProgramRegistry, run_application

        adf = system_default_adf(["host"], app="crash")
        registry = ProgramRegistry()

        @registry.register("boss")
        def boss(memo, ctx):
            return "boss done"

        @registry.register("worker")
        def worker(memo, ctx):
            raise OSError("simulated machine fault")

        with pytest.raises(OSError, match="machine fault"):
            run_application(adf, registry, timeout=30)
