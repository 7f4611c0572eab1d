"""Cluster backends: where the per-host memo servers actually run.

The :class:`~repro.runtime.cluster.Cluster` owns *what* a cluster is —
registration, clients, rebalancing, anti-entropy policy.  A backend owns
*where the servers live*:

* :class:`InProcessBackend` — every memo server is a thread pool inside
  this interpreter, over the in-memory fabric or TCP loopback.  Fast to
  build, fully introspectable (tests reach into ``servers``), but all
  hosts time-share one GIL.
* :class:`ProcessBackend` — every memo server is its own OS process
  (``python -m repro.runtime.server_main --managed``) over TCP, the way
  the paper's ``inetd`` spawns one server per machine.  Each child binds
  an ephemeral port and reports it back on stdout; the parent broadcasts
  the assembled address book to every child as an
  :class:`~repro.network.protocol.AddressUpdate`.  A supervisor thread
  waits on the children and maps real process death onto a parent-side
  :class:`~repro.replication.failure.FailureDetector`, and
  ``kill_host``/``respawn_host`` are genuine SIGKILL + re-exec — WAL
  recovery and delta resync then run in the reborn process itself.

Both expose the same surface, so the cluster's public API is identical
over either; observability is not part of it — the cluster reads every
host's counters the same way on both, as one ``StatsRequest`` reply.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import threading
import time

import repro
from repro.adf.model import ADF
from repro.durability.config import DurabilityConfig
from repro.errors import CommunicationError, ReplicationError, RuntimeLaunchError
from repro.network.connection import Address, Transport
from repro.network.protocol import AddressUpdate, ResyncRequest, round_trip
from repro.network.tcp import TCPTransport
from repro.network.transport import InMemoryTransport, NetworkFabric
from repro.replication.failure import FailureDetector
from repro.replication.resync import Resyncer
from repro.servers.memo_server import MEMO_PORT, MemoServer
from repro.sim.netsim import apply_latency

__all__ = ["ClusterBackend", "InProcessBackend", "ProcessBackend"]

#: LSNs set aside for each incarnation of a process-mode host's log-less
#: stores (far more than one process lifetime of puts).
INCARNATION_LSN_RANGE = 1 << 40

#: Wall-clock budget for a freshly exec'd server process to bind its
#: listener and report its port back on stdout.
HANDSHAKE_TIMEOUT = 30.0

#: SIGTERM grace shared by all children before stop() escalates to SIGKILL.
STOP_GRACE = 10.0


class ClusterBackend:
    """The seam between cluster policy and server placement.

    Attributes every implementation provides:

    * ``hosts`` — the ADF's host names, in declaration order.
    * ``address_book`` — host → :class:`Address` of its memo server.
      For the in-process backend this is the *live* dict shared with
      every server; for the process backend it is the parent's copy of
      what the children were last told.
    * ``fabric`` — the in-memory :class:`NetworkFabric`, or ``None``
      when the backend runs over real sockets.
    """

    kind: str = "abstract"

    hosts: list[str]
    address_book: dict[str, Address]

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        raise NotImplementedError

    @property
    def started(self) -> bool:
        raise NotImplementedError

    # -- chaos ------------------------------------------------------------------

    def kill_host(self, host: str) -> None:
        """Take *host* down abruptly (thread-pool stop or SIGKILL)."""
        raise NotImplementedError

    def respawn_host(self, host: str) -> None:
        """Bring a (possibly killed) *host* back with a fresh server.

        The caller (the cluster) re-registers applications and drives
        the resync round afterwards — a respawned server knows nothing.
        """
        raise NotImplementedError

    def pause_host(self, host: str) -> None:
        """Make *host* unresponsive without killing it (a gray failure).

        In-process (memory fabric) this cuts every link touching the
        host; in process mode it is a genuine ``SIGSTOP`` — the server
        freezes mid-whatever, keeps its sockets, and answers nothing
        until :meth:`resume_host`.  Peers see timeouts, suspect it, and
        fail over; on resume it picks up exactly where it stopped.
        """
        raise NotImplementedError

    def resume_host(self, host: str) -> None:
        """Undo :meth:`pause_host`; a no-op for a host that isn't paused."""
        raise NotImplementedError

    def resync_host(self, host: str, apps: list[str]) -> dict[str, dict[str, int]]:
        """One anti-entropy round from *host* (peer → stats)."""
        raise NotImplementedError

    def resync_all(self, apps: list[str]) -> dict[str, dict[str, dict[str, int]]]:
        """One anti-entropy round from every live host."""
        return {
            host: self.resync_host(host, apps)
            for host in sorted(self.hosts)
            if self.is_live(host)
        }

    def is_live(self, host: str) -> bool:
        raise NotImplementedError

    # -- wiring -----------------------------------------------------------------

    def transport_for(self, host: str) -> Transport:
        """The transport a client should use to reach *host*."""
        raise NotImplementedError

    def address_of(self, host: str) -> Address:
        address = self.address_book.get(host)
        if address is None:
            raise RuntimeLaunchError(f"no memo server on host {host!r}")
        return address

    def control(self, host: str, message: object, timeout: float = 10.0):
        """One strict request/reply exchange with *host*'s memo server."""
        return round_trip(
            self.transport_for(host), self.address_of(host), message, timeout
        )


class InProcessBackend(ClusterBackend):
    """All memo servers as thread pools inside this interpreter.

    Behavior-preserving extraction of the original ``Cluster`` body: the
    ``servers`` dict, shared ``address_book``, per-host transports, and
    the optional latency-shaped fabric are exactly what they were.
    """

    kind = "inprocess"

    def __init__(
        self,
        adf: ADF,
        *,
        transport_kind: str,
        latency=None,
        server_kwargs: dict,
    ) -> None:
        self.adf = adf
        self.hosts = list(adf.host_names())
        self.transport_kind = transport_kind
        self.address_book: dict[str, Address] = {}
        self.servers: dict[str, MemoServer] = {}
        self.fabric: NetworkFabric | None = None
        self._transports: dict[str, Transport] = {}
        self._server_kwargs = server_kwargs
        self._started = False
        #: host → peers whose link this backend cut for a pause window.
        self._paused_links: dict[str, list[str]] = {}

        if transport_kind == "memory":
            self.fabric = NetworkFabric()
            if latency is not None:
                apply_latency(self.fabric, adf, latency)
            for host in self.hosts:
                transport = InMemoryTransport(self.fabric, host)
                self._transports[host] = transport
                self.servers[host] = MemoServer(
                    host,
                    transport,
                    address_book=self.address_book,
                    listen_port=MEMO_PORT,
                    **server_kwargs,
                )
        elif transport_kind == "tcp":
            if latency is not None and not latency.is_zero:
                raise RuntimeLaunchError(
                    "latency injection is only supported on the memory transport"
                )
            transport = TCPTransport()
            for host in self.hosts:
                self._transports[host] = transport
                self.servers[host] = MemoServer(
                    host,
                    transport,
                    address_book=self.address_book,
                    listen_port=0,  # OS-assigned; recorded in the book
                    **server_kwargs,
                )
        else:
            raise RuntimeLaunchError(f"unknown transport kind {transport_kind!r}")

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        for server in self.servers.values():
            server.start()
        self._started = True

    def stop(self) -> None:
        for server in self.servers.values():
            server.stop()
        self._started = False

    @property
    def started(self) -> bool:
        return self._started

    # -- chaos ------------------------------------------------------------------

    def kill_host(self, host: str) -> None:
        server = self.servers.get(host)
        if server is None:
            raise RuntimeLaunchError(f"no memo server on host {host!r}")
        server.stop()

    def respawn_host(self, host: str) -> None:
        old = self.servers.get(host)
        if old is None:
            raise RuntimeLaunchError(f"no memo server on host {host!r}")
        old.stop()  # idempotent; normally already dead
        transport = self._transports[host]
        listen_port = MEMO_PORT if self.transport_kind == "memory" else 0
        server = MemoServer(
            host,
            transport,
            address_book=self.address_book,
            listen_port=listen_port,
            **self._server_kwargs,
        )
        # The dead incarnation's stores are still in memory: hand their
        # highest LSN clock to the fresh server so log-less stores resume
        # stamping past it (otherwise regrown clocks shadow the crash-lost
        # range and anti-entropy would never return it).
        server.replicator.lsn_rebase = max(
            [old.replicator.lsn_rebase]
            + [fs.current_lsn() for fs in old.local_folder_servers().values()]
            + [fs.current_lsn() for fs in old.local_replica_servers().values()]
        )
        # The book may still hold the dead server's address (TCP ports are
        # dynamic); the shared dict updates every peer at once.
        self.address_book[host] = server.address
        self.servers[host] = server
        if self._started:
            server.start()

    def pause_host(self, host: str) -> None:
        if host not in self.servers:
            raise RuntimeLaunchError(f"no memo server on host {host!r}")
        if self.fabric is None:
            raise RuntimeLaunchError(
                "pause_host on the in-process backend needs the memory "
                "fabric (it is modeled as cutting every link of the host)"
            )
        cut = self._paused_links.setdefault(host, [])
        for peer in self.hosts:
            if peer == host or self.fabric.is_partitioned(host, peer):
                continue
            self.fabric.partition(host, peer)
            cut.append(peer)

    def resume_host(self, host: str) -> None:
        if self.fabric is None:
            return
        for peer in self._paused_links.pop(host, []):
            self.fabric.heal(host, peer)

    def resync_host(self, host: str, apps: list[str]) -> dict[str, dict[str, int]]:
        # What the host holds decides what moves: a WAL-replayed store
        # advertises its recovered LSNs and gets the outage delta, a
        # log-less one its rebased clock and floor and gets everything.
        resyncer = Resyncer(host, self._transports[host], self.address_book)
        return resyncer.resync(
            apps, delta_state=self.servers[host].replicator.delta_sync_state()
        )

    def is_live(self, host: str) -> bool:
        server = self.servers.get(host)
        return server is not None and self._started and not server.stopped

    # -- wiring -----------------------------------------------------------------

    def transport_for(self, host: str) -> Transport:
        transport = self._transports.get(host)
        if transport is None:
            raise RuntimeLaunchError(f"no memo server on host {host!r}")
        return transport

    def address_of(self, host: str) -> Address:
        server = self.servers.get(host)
        if server is None:
            raise RuntimeLaunchError(f"no memo server on host {host!r}")
        return server.address


class _ChildProcess:
    """Book-keeping for one spawned memo-server process."""

    __slots__ = ("host", "proc", "address", "incarnation", "reported")

    def __init__(
        self, host: str, proc: subprocess.Popen, address: Address, incarnation: int
    ) -> None:
        self.host = host
        self.proc = proc
        self.address = address
        #: How many times this host was respawned before this process.
        self.incarnation = incarnation
        #: True once the supervisor (or kill_host) accounted for its death.
        self.reported = False

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None


class ProcessBackend(ClusterBackend):
    """One OS process per memo server, supervised by the parent.

    The parent never holds server objects — only child PIDs, the address
    book assembled from the port handshakes, and one shared
    :class:`TCPTransport` for clients and control messages.  Liveness
    has two independent sources: peers suspect each other through
    heartbeats exactly as before (the protocol doesn't know the cluster
    changed shape), and the parent's supervisor thread additionally
    notices real process exits and records them in :attr:`failure` and
    :attr:`exit_events`.
    """

    kind = "process"

    def __init__(
        self,
        adf: ADF,
        *,
        server_config: dict,
        durability: DurabilityConfig | None,
    ) -> None:
        self.adf = adf
        self.hosts = list(adf.host_names())
        self.transport: Transport = TCPTransport()
        self.address_book: dict[str, Address] = {}
        self.fabric = None
        self.durability = durability
        self._server_config = dict(server_config)
        self._children: dict[str, _ChildProcess] = {}
        self._paused: set[str] = set()
        self._intended_down: set[str] = set()
        self._lock = threading.Lock()
        self._started = False
        self._stop_event = threading.Event()
        self._supervisor: threading.Thread | None = None
        #: Parent-side process-death ledger.  Threshold 1: an exited PID
        #: is not a suspicion, it is a fact.
        self.failure = FailureDetector(threshold=1)
        #: Unexpected child exits, for tests and debug_report:
        #: ``{"host", "returncode"}`` in observation order.
        self.exit_events: list[dict] = []

    # -- spawning ---------------------------------------------------------------

    def _spawn(self, host: str, incarnation: int = 0) -> _ChildProcess:
        # A SIGKILLed child takes its LSN clocks with it, so each
        # incarnation's log-less stores stamp in a range of their own:
        # stamps stay unique and the reborn host's pull advertises
        # everything below its range as never recovered.
        config = dict(
            self._server_config,
            host=host,
            lsn_rebase=incarnation * INCARNATION_LSN_RANGE,
        )
        env = dict(os.environ)
        pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = pkg_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.runtime.server_main", "--managed"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            proc.stdin.write((json.dumps(config) + "\n").encode("utf-8"))
            proc.stdin.flush()
            port = self._read_handshake(host, proc)
        except Exception:
            proc.kill()
            proc.wait()
            raise
        child = _ChildProcess(host, proc, Address(host, port), incarnation)
        self.address_book[host] = child.address
        self._children[host] = child
        return child

    def _read_handshake(self, host: str, proc: subprocess.Popen) -> int:
        deadline = time.monotonic() + HANDSHAKE_TIMEOUT
        fd = proc.stdout.fileno()
        buf = b""
        while b"\n" not in buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeLaunchError(
                    f"memo server process for {host!r} did not report its "
                    f"port within {HANDSHAKE_TIMEOUT:.0f}s"
                )
            if proc.poll() is not None:
                raise RuntimeLaunchError(
                    f"memo server process for {host!r} exited during "
                    f"startup (returncode {proc.returncode})"
                )
            ready, _, _ = select.select([fd], [], [], min(remaining, 0.2))
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:  # EOF before the handshake line: child is dying
                proc.wait(timeout=HANDSHAKE_TIMEOUT)
                raise RuntimeLaunchError(
                    f"memo server process for {host!r} closed stdout during "
                    f"startup (returncode {proc.returncode})"
                )
            buf += chunk
        line = buf.split(b"\n", 1)[0]
        try:
            payload = json.loads(line)
            return int(payload["port"])
        except (ValueError, KeyError, TypeError) as exc:
            raise RuntimeLaunchError(
                f"bad port handshake from {host!r}: {line!r}"
            ) from exc

    def _broadcast_addresses(self) -> None:
        update = AddressUpdate(
            ports={h: a.port for h, a in self.address_book.items()},
            origin="cluster",
        )
        for host, child in list(self._children.items()):
            if not child.alive:
                continue
            try:
                self.control(host, update)
            except CommunicationError:
                # A child dying mid-broadcast misses the update; its own
                # restart (or the next broadcast) delivers a fresh map.
                pass

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        for host in self.hosts:
            self._spawn(host)
        self._broadcast_addresses()
        self._stop_event.clear()
        self._supervisor = threading.Thread(
            target=self._supervise, name="dmemo-supervisor", daemon=True
        )
        self._supervisor.start()
        self._started = True

    def _supervise(self) -> None:
        """Wait on children; map real process death onto the detector."""
        while not self._stop_event.wait(0.1):
            for host, child in list(self._children.items()):
                returncode = child.proc.poll()  # also reaps the zombie
                if returncode is None or child.reported:
                    continue
                child.reported = True
                if host in self._intended_down:
                    continue  # kill_host already accounted for it
                self.exit_events.append({"host": host, "returncode": returncode})
                self.failure.mark_dead(host)

    def stop(self) -> None:
        self._stop_event.set()
        supervisor = self._supervisor
        if supervisor is not None:
            supervisor.join(timeout=2.0)
            self._supervisor = None
        children = list(self._children.values())
        # Graceful first: SIGTERM runs the child's orderly MemoServer.stop()
        # (blocked getters woken, WAL flushed to the platter).  A frozen
        # child would queue the SIGTERM forever; thaw it first.
        for host in list(self._paused):
            self.resume_host(host)
        for child in children:
            if child.alive:
                child.proc.terminate()
        deadline = time.monotonic() + STOP_GRACE
        for child in children:
            remaining = deadline - time.monotonic()
            try:
                child.proc.wait(timeout=max(remaining, 0.1))
            except subprocess.TimeoutExpired:
                child.proc.kill()
                try:
                    child.proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    pass  # unkillable (D-state); nothing more we can do
            self._close_pipes(child)
        self._started = False

    @property
    def started(self) -> bool:
        return self._started

    @staticmethod
    def _close_pipes(child: _ChildProcess) -> None:
        for pipe in (child.proc.stdin, child.proc.stdout):
            if pipe is not None:
                try:
                    pipe.close()
                except OSError:
                    pass

    # -- chaos ------------------------------------------------------------------

    def kill_host(self, host: str) -> None:
        """SIGKILL *host*'s process — no flush, no goodbye, a real crash."""
        child = self._children.get(host)
        if child is None:
            raise RuntimeLaunchError(f"no memo server on host {host!r}")
        with self._lock:
            self._intended_down.add(host)
        self._paused.discard(host)  # SIGKILL lands even on a stopped process
        child.proc.kill()
        child.proc.wait(timeout=STOP_GRACE)
        child.reported = True
        self._close_pipes(child)
        self.failure.mark_dead(host)

    def pause_host(self, host: str) -> None:
        """``SIGSTOP`` the child: frozen, reachable, answering nothing."""
        child = self._children.get(host)
        if child is None or not child.alive:
            raise RuntimeLaunchError(f"no live memo server process on host {host!r}")
        self._paused.add(host)
        os.kill(child.proc.pid, signal.SIGSTOP)

    def resume_host(self, host: str) -> None:
        child = self._children.get(host)
        if child is None or host not in self._paused:
            return
        self._paused.discard(host)
        if child.alive:
            os.kill(child.proc.pid, signal.SIGCONT)

    def respawn_host(self, host: str) -> None:
        old = self._children.get(host)
        if old is None:
            raise RuntimeLaunchError(f"no memo server on host {host!r}")
        if host in self._paused:
            self.resume_host(host)  # an unkillable frozen child can't reap
        if old.alive:
            old.proc.kill()
            old.proc.wait(timeout=STOP_GRACE)
        self._close_pipes(old)
        self._spawn(host, old.incarnation + 1)
        with self._lock:
            self._intended_down.discard(host)
        self.failure.mark_alive(host)
        # Every child (including the newborn) learns the new port; stale
        # pooled connections to the old port are dropped receiver-side.
        self._broadcast_addresses()

    def resync_host(self, host: str, apps: list[str]) -> dict[str, dict[str, int]]:
        reply = self.control(
            host, ResyncRequest(apps=tuple(apps), origin="cluster"), timeout=60.0
        )
        if not getattr(reply, "ok", False):
            raise ReplicationError(
                f"resync from {host} failed: {getattr(reply, 'error', 'unknown')}"
            )
        return self._unflatten(reply.stats)

    @staticmethod
    def _unflatten(stats: dict) -> dict[str, dict[str, int]]:
        """``{"peer:metric": n}`` (wire form) back to ``{peer: {metric: n}}``."""
        out: dict[str, dict[str, int]] = {}
        for key, value in stats.items():
            peer, _, metric = key.partition(":")
            out.setdefault(peer, {})[metric] = value
        return out

    def is_live(self, host: str) -> bool:
        child = self._children.get(host)
        return child is not None and child.alive

    # -- wiring -----------------------------------------------------------------

    def transport_for(self, host: str) -> Transport:
        if host not in self.address_book and host not in self.hosts:
            raise RuntimeLaunchError(f"no memo server on host {host!r}")
        return self.transport

    def address_of(self, host: str) -> Address:
        address = self.address_book.get(host)
        if address is None:
            if host in self.hosts:
                raise RuntimeLaunchError(
                    f"memo server process for {host!r} not started yet"
                )
            raise RuntimeLaunchError(f"no memo server on host {host!r}")
        return address
