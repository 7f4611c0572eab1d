"""The simulated heterogeneous cluster.

A :class:`Cluster` is the reproduction's network installation: one memo
server per ADF host, plus clients, registration, chaos hooks, and
anti-entropy policy on top.  *Where* the servers run is delegated to a
:class:`~repro.runtime.backends.ClusterBackend`:

* ``backend="inprocess"`` (default) — servers are thread pools in this
  interpreter, over the in-memory fabric (with optional link latency
  from the ADF costs) or TCP loopback.  This substitutes for the
  paper's departmental network + inetd with zero process overhead.
* ``backend="process"`` — each server is its own OS process over TCP
  (``repro.runtime.server_main``), the closest reproduction of the
  paper's one-server-per-machine deployment: N hosts, N interpreters,
  N GILs.  ``kill_host`` is a genuine SIGKILL and ``restart_host`` a
  re-exec with WAL recovery plus delta resync.

Either way the public API is identical; the registration protocol and
everything above it never learns which backend it runs on.
"""

from __future__ import annotations

import threading
from dataclasses import asdict

from repro.adf.model import ADF
from repro.core.api import Memo
from repro.durability.config import DurabilityConfig
from repro.errors import MemoError, RuntimeLaunchError
from repro.network.connection import Address
from repro.network.protocol import StatsRequest
from repro.network.transport import NetworkFabric
from repro.runtime.backends import ClusterBackend, InProcessBackend, ProcessBackend
from repro.runtime.client import MemoClient
from repro.runtime.registration import register_everywhere, registration_request_for
from repro.servers.hashing import HashWeightPolicy
from repro.servers.memo_server import MemoServer
from repro.sim.metrics import ClusterMetrics
from repro.sim.netsim import LatencyModel

__all__ = ["Cluster"]

#: The waiter table in a ``StatsRequest`` reply:
#: (:meth:`Cluster.waiter_gauges` name, :meth:`Cluster.debug_report` label, key).
_WAITERS = (
    ("active", "active", "memo.waiters_active"),
    ("parked", "parked", "memo.waiters_parked"),
    ("completed", "completed", "memo.waiters_completed"),
    ("cancelled", "cancelled", "memo.waiters_cancelled"),
    ("push_frames", "pushes", "memo.push_frames"),
)
#: The other segments of a :meth:`Cluster.debug_report` line: (label, key).
_REQUESTS = (
    ("requests", "memo.requests"), ("local", "memo.local_dispatches"),
    ("fwd_out", "memo.forwards_out"), ("errors", "memo.errors"),
)
_WAL = (
    ("stores", "durability.stores"), ("records", "durability.wal_records"),
    ("bytes", "durability.wal_bytes"), ("replayed", "durability.wal_replayed"),
    ("snaps", "durability.snapshots_written"), ("fsyncs", "durability.fsyncs"),
)


def _fields(stats: dict, pairs) -> str:
    """``label=value`` for each (label, key) of *pairs*, space-separated."""
    return " ".join(f"{label}={stats[key]}" for label, key in pairs)


class Cluster:
    """One memo server per host, plus the fabric they communicate over.

    Args:
        adf: the description whose HOSTS/PPC sections shape the network.
            (Folder servers are created at application registration.)
        backend: ``"inprocess"`` (default) or ``"process"``.
        transport_kind: ``"memory"`` or ``"tcp"``.  Defaults to
            ``"memory"`` in-process; the process backend is TCP-only.
        latency: latency model applied to the in-memory fabric.
        policy: hash-weight policy installed on every memo server
            (``examples/heterogeneous_jobjar.py`` sets one; the SEC5A and
            ABL1 benches compare the same policies on a bare placement;
            in-process only — a policy object cannot cross a process
            boundary).
        idle_timeout: thread-cache idle timer for all servers.
        heartbeat_interval: failure-detector probe period for every server
            (probing only runs while some app has ``replication_factor > 1``).
        failure_threshold: consecutive missed probes before a host is
            suspected dead.
        durability: per-host WAL + snapshot persistence.  Defaults to the
            ADF's ``DURABILITY`` section (when present); pass explicitly
            to override.  With durability, :meth:`restart_host` recovers
            the host's stores from its local log and anti-entropies only
            the delta past the recovered LSNs, and a whole new Cluster
            pointed at the same data dir cold-restarts from disk.
    """

    def __init__(
        self,
        adf: ADF,
        *,
        backend: str = "inprocess",
        transport_kind: str | None = None,
        latency: LatencyModel | None = None,
        policy: HashWeightPolicy | None = None,
        idle_timeout: float = 2.0,
        heartbeat_interval: float = 0.1,
        failure_threshold: int = 3,
        durability: DurabilityConfig | None = None,
    ) -> None:
        adf.validate()
        self.adf = adf
        self.durability = durability if durability is not None else adf.durability
        self._registered_adfs: dict[str, ADF] = {}
        self._lock = threading.Lock()
        self._sweep_thread: threading.Thread | None = None
        self._sweep_stop = threading.Event()

        if backend == "inprocess":
            self.transport_kind = transport_kind or "memory"
            self.backend: ClusterBackend = InProcessBackend(
                adf,
                transport_kind=self.transport_kind,
                latency=latency,
                server_kwargs={
                    "idle_timeout": idle_timeout,
                    "policy": policy,
                    "heartbeat_interval": heartbeat_interval,
                    "failure_threshold": failure_threshold,
                    "durability": self.durability,
                },
            )
        elif backend == "process":
            self.transport_kind = transport_kind or "tcp"
            if self.transport_kind != "tcp":
                raise RuntimeLaunchError(
                    "the process backend runs over TCP; "
                    f"transport_kind {self.transport_kind!r} is not supported"
                )
            if latency is not None and not latency.is_zero:
                raise RuntimeLaunchError(
                    "latency injection is only supported on the memory transport"
                )
            if policy is not None:
                raise RuntimeLaunchError(
                    "a hash-weight policy object cannot cross a process "
                    "boundary; use the inprocess backend for policy ablations"
                )
            self.backend = ProcessBackend(
                adf,
                server_config={
                    "idle_timeout": idle_timeout,
                    "heartbeat_interval": heartbeat_interval,
                    "failure_threshold": failure_threshold,
                    "durability": (
                        asdict(self.durability)
                        if self.durability is not None
                        else None
                    ),
                },
                durability=self.durability,
            )
        else:
            raise RuntimeLaunchError(f"unknown cluster backend {backend!r}")
        self.backend_kind = self.backend.kind

    # -- backend pass-throughs (and seed-era compatibility) ----------------------

    @property
    def address_book(self) -> dict[str, Address]:
        """Host → memo-server address, as the backend currently knows it."""
        return self.backend.address_book

    @property
    def servers(self) -> dict[str, MemoServer]:
        """In-process server objects (inprocess backend only)."""
        servers = getattr(self.backend, "servers", None)
        if servers is None:
            raise RuntimeLaunchError(
                "the process backend has no in-process server objects; "
                "use stats()/debug_report()/waiter_gauges() instead"
            )
        return servers

    @property
    def fabric(self) -> NetworkFabric | None:
        return self.backend.fabric

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> "Cluster":
        """Start every memo server (spawning processes in process mode)."""
        self.backend.start()
        return self

    def stop(self) -> None:
        """Stop every memo server; blocked getters are woken with errors.

        In process mode this reaps every child (SIGTERM, bounded wait,
        then SIGKILL stragglers) — no zombies survive a clean ``stop``.
        """
        self.stop_anti_entropy()
        self.backend.stop()

    def __enter__(self) -> "Cluster":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- chaos / fail-over lifecycle ------------------------------------------------

    def kill_host(self, host: str) -> None:
        """Take *host*'s memo server down, simulating a machine loss.

        In-process this stops the server's threads (listener unbinds,
        blocked getters wake); in process mode it is a genuine SIGKILL —
        the OS reclaims the sockets mid-request and whatever wasn't
        journaled is gone, exactly like a machine losing power.  Either
        way peers see connection failures, suspect the host, and fail
        folders over to backups until :meth:`restart_host`.
        """
        self.backend.kill_host(host)

    def pause_host(self, host: str) -> None:
        """Freeze *host* without killing it (a gray failure).

        The server stays up but answers nothing: in-process every fabric
        link touching it is cut, in process mode the child is
        ``SIGSTOP``ped.  Peers time out, suspect it, and fail over —
        then :meth:`resume_host` thaws it with all its state intact,
        the classic split-brain-then-heal shape partitions produce.
        """
        self.backend.pause_host(host)

    def resume_host(self, host: str) -> None:
        """Undo :meth:`pause_host` (no-op for a host that isn't paused)."""
        self.backend.resume_host(host)

    def restart_host(self, host: str) -> dict[str, dict[str, int]]:
        """Bring a killed host back, re-register it, and resync it.

        Models a machine rejoining after a crash: a fresh memo server
        (in process mode: a fresh OS process, which replays the host's
        WAL during re-registration) binds the host's address, learns
        every registered application again, and then runs one
        anti-entropy round so peers return the folders it primaries and
        re-seed its replica store.  Returns the per-peer resync stats
        (empty when nothing replicates).
        """
        self.backend.respawn_host(host)
        with self._lock:
            adfs = [
                adf
                for adf in self._registered_adfs.values()
                if host in adf.host_names()
            ]
        for adf in adfs:
            self._register_one(adf, host)
        replicated = [adf.app for adf in adfs if adf.replication_factor > 1]
        if not replicated:
            return {}
        return self.backend.resync_host(host, replicated)

    def resync_all(self) -> dict[str, dict[str, dict[str, int]]]:
        """One anti-entropy round from every host (host → peer → stats).

        After a cold restart this surfaces fail-over-accepted writes back
        to their primaries; run periodically via
        :meth:`start_anti_entropy` it heals divergence without a restart.
        """
        with self._lock:
            replicated = [
                adf.app
                for adf in self._registered_adfs.values()
                if adf.replication_factor > 1
            ]
        if not replicated:
            return {}
        return self.backend.resync_all(replicated)

    # -- periodic anti-entropy (opt-in) ---------------------------------------------

    def start_anti_entropy(self, interval: float) -> None:
        """Run :meth:`resync_all` every *interval* seconds until stopped.

        Opt-in: divergence otherwise heals only when a host rejoins.  The
        sweep sends delta pulls (origin-coordinate filtered, receiver-side
        deduplicated), so a healthy steady-state round moves no data.
        Stopped by :meth:`stop` or :meth:`stop_anti_entropy`.
        """
        if self._sweep_thread is not None:
            raise RuntimeLaunchError("anti-entropy sweep already running")
        self._sweep_stop.clear()

        def sweep() -> None:
            while not self._sweep_stop.wait(interval):
                try:
                    self.resync_all()
                except Exception:
                    # A peer dying mid-sweep is normal chaos; the next
                    # round (or its own rejoin resync) heals it.
                    pass

        self._sweep_thread = threading.Thread(
            target=sweep, name="dmemo-anti-entropy", daemon=True
        )
        self._sweep_thread.start()

    def stop_anti_entropy(self) -> None:
        """Stop the periodic sweep, if one is running."""
        thread = self._sweep_thread
        if thread is None:
            return
        self._sweep_stop.set()
        thread.join(timeout=5.0)
        self._sweep_thread = None

    def _register_one(self, adf: ADF, host: str) -> None:
        """Re-run the section-4.4 registration against a single host."""
        reply = self.backend.control(host, registration_request_for(adf))
        if not getattr(reply, "ok", False):
            raise RuntimeLaunchError(
                f"memo server on {host} rejected re-registration: "
                f"{getattr(reply, 'error', 'unknown error')}"
            )

    # -- registration -------------------------------------------------------------

    def register(self, adf: ADF | None = None) -> None:
        """Run the section-4.4 registration for *adf* (default: the cluster's).

        The ADF may differ from the cluster's (e.g. a second application
        sharing the servers) but must name a subset of the cluster's hosts.
        """
        target = adf if adf is not None else self.adf
        unknown = set(target.host_names()) - set(self.backend.hosts)
        if unknown:
            raise RuntimeLaunchError(
                f"ADF names hosts with no memo server: {sorted(unknown)}"
            )
        anchor = target.host_names()[0]
        register_everywhere(
            target, self.backend.transport_for(anchor), self.backend.address_book
        )
        with self._lock:
            self._registered_adfs[target.app] = target

    @property
    def registered_apps(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._registered_adfs))

    def rebalance(self, adf: ADF) -> dict[str, dict]:
        """Re-register *adf* and migrate folder contents to their new owners.

        This is the "dynamic data migration" workflow: update every memo
        server's registration (new host costs / folder servers / links),
        then ask each server to move the folders it no longer owns.  Call
        at a quiescent point — folders with blocked getters stay put until
        the getter is served.

        Returns per-host migration stats (``migrated_folders`` /
        ``migrated_memos``).
        """
        from repro.network.protocol import MigrateRequest

        self.register(adf)
        stats: dict[str, dict] = {}
        for host in adf.host_names():
            with self.client_for(host, origin="rebalance") as client:
                reply = client.request(MigrateRequest(app=adf.app))
            if not reply.ok:
                raise RuntimeLaunchError(
                    f"migration failed on {host}: {reply.error}"
                )
            stats[host] = dict(reply.stats)
        return stats

    # -- clients -------------------------------------------------------------------

    def client_for(self, host: str, origin: str = "") -> MemoClient:
        """A client connected to *host*'s memo server."""
        return MemoClient(
            self.backend.transport_for(host),
            self.backend.address_of(host),
            origin=origin,
        )

    def memo_api(
        self,
        host: str,
        app: str,
        process_name: str = "proc",
        *,
        strict_domains: bool = False,
    ) -> Memo:
        """A ready-to-use Memo API bound to *host* for application *app*."""
        client = self.client_for(host, origin=process_name)
        return Memo(
            client, app, process_name=process_name, strict_domains=strict_domains
        )

    # -- observability ----------------------------------------------------------------

    def stats(self) -> dict[str, dict]:
        """Per-host stats via the wire protocol (host → counter map)."""
        return {host: self._fetch_stats(host) for host in self.backend.hosts}

    def metrics(self) -> ClusterMetrics:
        """Aggregate fabric traffic and server counters for the benches."""
        if self.fabric is not None:
            metrics = ClusterMetrics.from_fabric(self.fabric)
        else:
            metrics = ClusterMetrics()
        for stats in self.stats().values():
            metrics.add_server_stats(stats)
        return metrics

    def _fetch_stats(self, host: str) -> dict:
        """*host*'s flat ``StatsRequest`` counter map, over the wire."""
        reply = self.backend.control(host, StatsRequest(origin="cluster"))
        if not getattr(reply, "ok", False):
            raise RuntimeLaunchError(
                f"memo server on {host} refused a stats request: "
                f"{getattr(reply, 'error', 'unknown error')}"
            )
        return reply.stats

    def _host_stats(self, host: str) -> dict | None:
        """:meth:`_fetch_stats`, or None when *host* does not answer —
        dead, not yet spawned, or frozen mid-query (a paused child accepts
        and says nothing until the recv deadline)."""
        try:
            return self._fetch_stats(host)
        except (MemoError, TimeoutError, OSError):
            return None

    def waiter_gauges(self) -> dict[str, dict[str, int]]:
        """Per-host waiter-table gauges.

        ``active`` is the live table population; the rest are cumulative.
        The gauges come over the wire via ``StatsRequest`` on either
        backend, and a host that is dead (or dies mid-query) yields a
        partial entry tagged ``{"down": True}`` instead of failing the
        whole aggregation — callers polling during a kill window (the
        scenario invariant checker does) still see every surviving host.
        """
        out: dict[str, dict[str, int]] = {}
        for host in self.backend.hosts:
            s = self._host_stats(host)
            if s is None:
                out[host] = {"down": True}
                continue
            out[host] = {name: s[key] for name, _label, key in _WAITERS}
        return out

    def debug_report(self) -> str:
        """A human-readable per-host summary for interactive debugging.

        One line per host: request volume, routing split, and the
        waiter-table gauges (parked waits are otherwise invisible — no
        thread shows up anywhere while a wait is parked).  A host that is
        dead (or unreachable) reports as ``down``.
        """
        lines = []
        for host in sorted(self.backend.hosts):
            s = self._host_stats(host)
            if s is None:
                lines.append(f"{host}: down (no stats reply)")
                continue
            waiters = [(label, key) for _name, label, key in _WAITERS]
            line = f"{host}: {_fields(s, _REQUESTS)} | waiters {_fields(s, waiters)}"
            if "durability.stores" in s:
                line += f" | wal {_fields(s, _WAL)}"
            lines.append(line)
        return "\n".join(lines)
