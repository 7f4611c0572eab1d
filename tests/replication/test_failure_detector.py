"""Unit tests: failure detector thresholds and heartbeat probing."""

import time

import pytest

from repro.network.connection import Address
from repro.network.transport import InMemoryTransport, NetworkFabric
from repro.replication.failure import FailureDetector, HeartbeatMonitor
from repro.servers.memo_server import MemoServer


class TestFailureDetector:
    def test_unknown_hosts_presumed_alive(self):
        detector = FailureDetector()
        assert detector.is_alive("never-seen")

    def test_threshold_failures_turn_host_dead(self):
        detector = FailureDetector(threshold=3)
        assert not detector.record_failure("h")
        assert not detector.record_failure("h")
        assert detector.is_alive("h")
        assert detector.record_failure("h")  # newly dead
        assert not detector.is_alive("h")
        assert not detector.record_failure("h")  # already dead

    def test_mark_alive_resets_failure_count(self):
        detector = FailureDetector(threshold=2)
        detector.record_failure("h")
        detector.mark_alive("h")
        # One more failure is again below threshold.
        assert not detector.record_failure("h")
        assert detector.is_alive("h")

    def test_mark_dead_is_immediate(self):
        detector = FailureDetector(threshold=5)
        detector.mark_dead("h")
        assert not detector.is_alive("h")
        assert detector.dead_hosts() == ("h",)
        detector.mark_alive("h")
        assert detector.is_alive("h")

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            FailureDetector(threshold=0)


class TestHeartbeatMonitor:
    """The monitor probes through its server's router: a heartbeat on the
    link to each peer, whose outcome feeds the server's detector."""

    def _server(self, fabric, host, book, threshold=3):
        transport = InMemoryTransport(fabric, host)
        server = MemoServer(
            host, transport, address_book=book, failure_threshold=threshold
        )
        server.start()
        return server

    def test_probe_marks_live_peer_alive_and_dead_peer_dead(self):
        fabric = NetworkFabric()
        book: dict[str, Address] = {}
        a = self._server(fabric, "a", book, threshold=2)
        b = self._server(fabric, "b", book)
        try:
            a.failure.mark_dead("b")
            monitor = HeartbeatMonitor("a", book, a.router.probe)
            monitor.probe_once()
            assert a.failure.is_alive("b")

            b.stop()
            # One interval apart, no frame heard on the link stands in for
            # a heartbeat: each probe is one, and two failed make b dead.
            for _probe in range(2):
                time.sleep(monitor.interval)
                monitor.probe_once()
            assert not a.failure.is_alive("b")
        finally:
            a.stop()
            b.stop()

    def test_receiving_a_heartbeat_marks_sender_alive(self):
        fabric = NetworkFabric()
        book: dict[str, Address] = {}
        a = self._server(fabric, "a", book)
        b = self._server(fabric, "b", book)
        try:
            b.failure.mark_dead("a")
            monitor = HeartbeatMonitor("a", book, a.router.probe)
            monitor.probe_once()
            # b heard from a, so b's detector cleared the suspicion.
            assert b.failure.is_alive("a")
        finally:
            a.stop()
            b.stop()

    def test_monitor_thread_start_stop(self):
        fabric = NetworkFabric()
        book: dict[str, Address] = {}
        a = self._server(fabric, "a", book, threshold=2)
        b = self._server(fabric, "b", book)
        try:
            monitor = HeartbeatMonitor("a", book, a.router.probe, interval=0.02)
            monitor.start()
            assert monitor.running
            b.stop()
            deadline = time.monotonic() + 5.0
            while a.failure.is_alive("b") and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not a.failure.is_alive("b")
            monitor.stop()
            assert not monitor.running
        finally:
            a.stop()
            b.stop()
