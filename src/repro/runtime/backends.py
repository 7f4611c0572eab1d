"""Cluster backends: where the per-host memo servers actually run.

The :class:`~repro.runtime.cluster.Cluster` owns *what* a cluster is —
registration, clients, rebalancing, anti-entropy policy.  A backend owns
*where the servers live*:

* :class:`InProcessBackend` — every memo server is a thread pool inside
  this interpreter, over the in-memory fabric or TCP loopback.  Fast to
  build, fully introspectable (tests reach into ``servers``), but all
  hosts time-share one GIL.
* :class:`ProcessBackend` — every memo server is its own OS process
  (``python -S -m repro.runtime.server_main --managed``) over TCP, the way
  the paper's ``inetd`` spawns one server per machine.  The parent owns
  the ports: every incarnation of a host is born holding a listening
  socket the parent bound for it, plus the whole address book on its
  config line.  A supervisor thread waits on the children and maps real
  process death onto a parent-side
  :class:`~repro.replication.failure.FailureDetector`, and
  ``kill_host``/``respawn_host`` are genuine SIGKILL + re-exec — WAL
  recovery and delta resync then run in the reborn process itself.

A host's :class:`Address` is a constant of the cluster on both: a
respawned server listens where the dead one did, so nothing — peer,
client or parent — is ever told that a host moved.  The backends differ
only in how a server is born and killed; everything else (control
messages, anti-entropy, the cluster's public API, observability as one
``StatsRequest`` reply per host) is shared.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import repro
from repro.adf.model import ADF
from repro.durability.config import DurabilityConfig
from repro.errors import CommunicationError, ReplicationError, RuntimeLaunchError
from repro.network.connection import Address, Transport
from repro.network.protocol import Heartbeat, ResyncRequest, round_trip
from repro.network.tcp import TCPTransport, bind_loopback
from repro.network.transport import InMemoryTransport, NetworkFabric
from repro.replication.failure import FailureDetector
from repro.servers.memo_server import MEMO_PORT, MemoServer
from repro.sim.netsim import apply_latency

__all__ = ["ClusterBackend", "InProcessBackend", "ProcessBackend"]

#: LSNs set aside for each incarnation of a host's log-less stores (far
#: more than one server lifetime of puts).  A killed host has lost its
#: clocks either way, so each incarnation stamps in a range of its own:
#: stamps stay unique and the reborn host's pull advertises everything
#: below its range as never recovered.
INCARNATION_LSN_RANGE = 1 << 40

#: Wall-clock budget for a freshly exec'd server process to answer its
#: first control round trip.
READY_TIMEOUT = 30.0

#: SIGTERM grace shared by all children before stop() escalates to SIGKILL.
STOP_GRACE = 10.0

#: The argv of every server process.  ``-S`` skips ``site``: the server
#: is stdlib-only and finds the package through the ``PYTHONPATH`` that
#: :meth:`ProcessBackend._spawn` sets.
SERVER_COMMAND = (sys.executable, "-S", "-m", "repro.runtime.server_main", "--managed")


class ClusterBackend:
    """The seam between cluster policy and server placement.

    Attributes every implementation provides:

    * ``hosts`` — the ADF's host names, in declaration order.
    * ``address_book`` — host → :class:`Address` of its memo server,
      fixed for the life of the cluster.  The in-process backend shares
      the one dict with every server; the process backend gives each
      child a copy at birth.
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
        """One anti-entropy round from *host* (peer → stats).

        The host runs the round itself: what it holds decides what moves
        (a WAL-replayed store advertises its recovered LSNs and gets the
        outage delta, a log-less one its rebased clock and floor and gets
        everything).
        """
        reply = self.control(
            host, ResyncRequest(apps=tuple(apps), origin="cluster"), timeout=60.0
        )
        if not getattr(reply, "ok", False):
            raise ReplicationError(
                f"resync from {host} failed: {getattr(reply, 'error', 'unknown')}"
            )
        # ``{"peer:metric": n}`` (the wire's flat form) back to
        # ``{peer: {metric: n}}``.
        out: dict[str, dict[str, int]] = {}
        for key, value in reply.stats.items():
            peer, _, metric = key.partition(":")
            out.setdefault(peer, {})[metric] = value
        return out

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
            why = "not started yet" if host in self.hosts else "not in the ADF"
            raise RuntimeLaunchError(f"no memo server on host {host!r} ({why})")
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
                    listen_port=0,  # OS-assigned once; kept across respawns
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
        server = MemoServer(
            host,
            self._transports[host],
            address_book=self.address_book,
            listen_port=old.address.port,
            **self._server_kwargs,
        )
        server.replicator.lsn_rebase = (
            old.replicator.lsn_rebase + INCARNATION_LSN_RANGE
        )
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

    def is_live(self, host: str) -> bool:
        server = self.servers.get(host)
        return server is not None and self._started and not server.stopped

    # -- wiring -----------------------------------------------------------------

    def transport_for(self, host: str) -> Transport:
        transport = self._transports.get(host)
        if transport is None:
            raise RuntimeLaunchError(f"no memo server on host {host!r}")
        return transport


class _ChildProcess:
    """Book-keeping for one spawned memo-server process."""

    __slots__ = ("host", "proc", "incarnation", "reported")

    def __init__(self, host: str, proc: subprocess.Popen, incarnation: int) -> None:
        self.host = host
        self.proc = proc
        #: How many times this host was respawned before this process.
        self.incarnation = incarnation
        #: True once the supervisor (or kill_host) accounted for its death.
        self.reported = False

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None


class ProcessBackend(ClusterBackend):
    """One OS process per memo server, supervised by the parent.

    The parent never holds server objects — only child PIDs, the ports
    it reserved for them, and one shared :class:`TCPTransport` for clients
    and control messages.  A dead host looks to a dialler the way a dead
    machine does: nothing listens at its address (connection refused)
    until :meth:`respawn_host` hands a new process a listener there.  Liveness
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
        #: host → a socket bound to the host's port that never listens.
        #: It keeps the port out of the OS's ephemeral draw while no
        #: incarnation listens there (an outbound connection landing on
        #: it would make the respawn's bind fail); each incarnation's
        #: listener binds beside it, and a connect that finds only the
        #: reservation is refused.
        self._reservations: dict[str, socket.socket] = {}
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
        """Exec *host*'s next incarnation, born holding its listener.

        The listener is bound and listening before the child exists, so
        a connection dialled while the interpreter is still starting
        waits in the backlog instead of being refused; the parent's copy
        is closed at once, so the child's death is the listener's.
        """
        env = dict(os.environ)
        pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = pkg_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        listener = bind_loopback(self.address_book[host].port)
        listen_fd = listener.fileno()
        try:
            listener.listen(64)
            proc = subprocess.Popen(
                SERVER_COMMAND,
                stdin=subprocess.PIPE,
                pass_fds=(listen_fd,),
                env=env,
            )
        finally:
            listener.close()
        child = self._children[host] = _ChildProcess(host, proc, incarnation)
        config = dict(
            self._server_config,
            host=host,
            address_book={h: a.port for h, a in self.address_book.items()},
            listen_fd=listen_fd,
            lsn_rebase=incarnation * INCARNATION_LSN_RANGE,
        )
        try:
            proc.stdin.write((json.dumps(config) + "\n").encode("utf-8"))
            proc.stdin.flush()
        except OSError:
            pass  # died before reading its config: _await_ready reports it
        return child

    def _await_ready(self, child: _ChildProcess) -> None:
        """Block until *child* answers a control round trip."""
        try:
            self.control(child.host, Heartbeat(host="", origin="cluster"), READY_TIMEOUT)
        except (CommunicationError, TimeoutError) as exc:
            try:
                returncode = child.proc.wait(timeout=1.0)  # died at birth: say how
            except subprocess.TimeoutExpired:
                child.proc.kill()
                returncode = child.proc.wait()
            self._close_stdin(child)
            raise RuntimeLaunchError(
                f"memo server process for {child.host!r} did not come up "
                f"(returncode {returncode}): {exc}"
            ) from exc

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        # Every port is picked before any child exists, so each is born
        # knowing the whole address book.
        for host in self.hosts:
            reservation = self._reservations[host] = bind_loopback(0)
            self.address_book[host] = Address(host, reservation.getsockname()[1])
        try:
            for child in [self._spawn(host) for host in self.hosts]:
                self._await_ready(child)
        except BaseException:
            self.stop()
            raise
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
            self._close_stdin(child)
        for reservation in self._reservations.values():
            reservation.close()
        self._reservations.clear()
        self._started = False

    @property
    def started(self) -> bool:
        return self._started

    @staticmethod
    def _close_stdin(child: _ChildProcess) -> None:
        try:
            child.proc.stdin.close()
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
        self._close_stdin(child)
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
        self._close_stdin(old)
        self._await_ready(self._spawn(host, old.incarnation + 1))
        with self._lock:
            self._intended_down.discard(host)
        self.failure.mark_alive(host)

    def is_live(self, host: str) -> bool:
        child = self._children.get(host)
        return child is not None and child.alive

    # -- wiring -----------------------------------------------------------------

    def transport_for(self, host: str) -> Transport:
        if host not in self.hosts:
            raise RuntimeLaunchError(f"no memo server on host {host!r}")
        return self.transport
