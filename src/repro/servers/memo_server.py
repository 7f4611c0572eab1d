"""The memo server: one per machine, routing memos between processes.

"The memo servers are responsible for message routing between processes
(there is one memo server per machine). ... Each memo server listens for
connection requests from either other memo servers (inter-machine traffic)
or user applications.  As requests arrive, the server will create a thread
(if no cached thread is available) to handle the request while it goes back
to listening for more requests." (paper section 4.1)

:class:`MemoServer` is a composition of three parts, each in its own
module and reachable only through the public names its docstring lists:

* a :class:`~repro.servers.session._ConnectionSession` per inbound
  connection — reader, FIFO put lane, reply coalescing, the waiter table;
* the :class:`~repro.servers.router.Router` — which host serves a folder
  (placement, the replica-chain walk, fail-over), forwarding along the
  application's topology (Figure 2), relay links for waits;
* the :class:`~repro.servers.replicator.Replicator` — this host's folder
  stores, replica fan-out, migration and anti-entropy.

What stays here is what makes them one server: lifecycle, the registration
protocol (section 4.4), the address book, the telemetry registry, and
:data:`HANDLERS` — the one table from message class to (handler, where it
runs, whether it may ride a :class:`~repro.network.protocol.ForwardEnvelope`).

Request life cycle:

1. An application process sends a request over its connection to the local
   memo server (Figure 1); the session runs it where its table row says.
2. The handler resolves the folder's owner via the application's
   :class:`FolderPlacement` (the router).
3. Owned locally → direct call into the local :class:`FolderServer` (the
   replicator).  Owned remotely → the request is wrapped in a
   :class:`~repro.network.protocol.ForwardEnvelope` and sent to the *next
   hop* memo server on the cost-weighted shortest path; every hop relays
   the reply back.  No broadcasting, ever.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.durability.config import DurabilityConfig
from repro.durability.manager import DurabilityManager
from repro.errors import (
    CommunicationError,
    ConnectionClosedError,
    HostDownError,
    NotRegisteredError,
    ProtocolError,
    RoutingError,
    ServerError,
    ShutdownError,
)
from repro.network.codec import decode_message, folder_intern_stats
from repro.network.connection import Address, Connection, Transport
from repro.network.protocol import (
    BurstEnvelope,
    CancelWaitRequest,
    DeltaSyncPull,
    ForwardEnvelope,
    GetAltSkipRequest,
    GetRequest,
    GetWaitRequest,
    Heartbeat,
    MigrateRequest,
    PipelineBatch,
    PutDelayedRequest,
    PutRequest,
    RegisterRequest,
    ReplicatePut,
    Reply,
    ResyncRequest,
    ShutdownRequest,
    StatsRequest,
)
from repro.network.routing import RoutingTable
from repro.replication.failure import FailureDetector, HeartbeatMonitor
from repro.servers.folder_server import FolderServer
from repro.servers.hashing import FolderPlacement, HashWeightPolicy, PlacementCache
from repro.servers.replicator import Replicator
from repro.servers.router import Router
from repro.servers.session import LANE, READER, WORKER, Row, _ConnectionSession
from repro.servers.threadcache import ThreadCache
from repro.telemetry import Counters, Registry

__all__ = ["MemoServer", "AppRegistration", "MEMO_PORT"]

#: Well-known memo server port on the logical network.
MEMO_PORT = 7094

#: ``MemoServer.stats``, reported as ``memo.<name>``.  Read by FIG2
#: (``forwards_out``), ``bench/``'s window counters and
#: ``Cluster.waiter_gauges`` / ``debug_report``.  Of the waiter table,
#: ``waiters_parked`` is cumulative and ``waiters_active`` the current
#: population across all sessions (+1 on park, -1 on completion or cancel).
MEMO_COUNTERS = (
    "requests", "local_dispatches", "forwards_out", "forwards_relayed",
    "forwards_in", "registrations", "errors", "pipelined_requests",
    "pipelined_batches", "replications_out", "replications_in",
    "replication_failures", "failover_dispatches", "resync_returned",
    "resync_reseeded", "resync_reseed_skipped", "waiters_parked",
    "waiters_active", "waiters_completed", "waiters_cancelled", "push_frames",
)


@dataclass
class AppRegistration:
    """Everything a memo server knows about one registered application."""

    app: str
    routing: RoutingTable
    placement: FolderPlacement
    replication_factor: int = 1


class MemoServer:
    """The per-host memo server.

    Args:
        host: logical host name (from the ADF HOSTS section).
        transport: medium to listen/connect on.
        address_book: logical host name → memo-server address, fixed for
            the life of the cluster: a host restarted after a crash listens
            where its dead incarnation did.  For the in-memory fabric it is
            simply ``Address(host, MEMO_PORT)`` for every host.
        idle_timeout: thread-cache idle timer (section 4.1).
        policy: hash-weight policy for folder placement (ablation knob).
        listen_port: port to bind; defaults to :data:`MEMO_PORT` (use 0 for
            OS-assigned TCP ports).
        heartbeat_interval: seconds between failure-detector probe rounds
            (the monitor only runs once an application registers with
            ``replication_factor > 1``).
        failure_threshold: consecutive missed probes before a peer is
            suspected dead.
        durability: when given, every folder store journals to a per-store
            WAL under ``<data_dir>/<host>/`` and recovers from it at
            registration time (see :mod:`repro.durability`); None keeps
            the stores in memory only.
    """

    def __init__(
        self,
        host: str,
        transport: Transport,
        address_book: dict[str, Address] | None = None,
        idle_timeout: float = 2.0,
        policy: HashWeightPolicy | None = None,
        listen_port: int = MEMO_PORT,
        heartbeat_interval: float = 0.1,
        failure_threshold: int = 3,
        durability: DurabilityConfig | None = None,
    ) -> None:
        self.host = host
        self.transport = transport
        self.address_book = address_book if address_book is not None else {}
        self.policy = policy
        self.stats = Counters(MEMO_COUNTERS)
        self.durability = (
            DurabilityManager(host, durability) if durability is not None else None
        )
        #: Every number this server reports: its ``StatsRequest`` reply.
        self.telemetry = Registry()
        #: Epoch-guarded (app, folder) -> (chain, live candidates) routing
        #: cache; bumped by registration, migration, and liveness flips.
        self.placement_cache = PlacementCache()
        self.failure = FailureDetector(
            threshold=failure_threshold,
            on_transition=self._on_liveness_change,
        )
        self._registrations: dict[str, AppRegistration] = {}
        #: The dispatch table, where a session finds it.
        self.handlers = HANDLERS
        self.cache = ThreadCache(idle_timeout, name=f"memo-{host}")
        self.running = threading.Event()
        self.router = Router(
            host,
            transport,
            self.address_book,
            self._registrations,
            self.placement_cache,
            self.failure,
            self.cache,
            self.stats,
            self.running,
        )
        self.replicator = Replicator(
            host,
            self.placement_cache,
            self.failure,
            self.cache,
            self.stats,
            self.telemetry,
            self.durability,
            self.router,
        )
        self.telemetry.add("memo", self.stats)
        self.telemetry.add("cache", self.cache.stats)
        self.telemetry.add(
            "failure.suspected_hosts", lambda: len(self.failure.dead_hosts())
        )
        # Per process, not per server: in-process hosts share one table.
        self.telemetry.add("codec", folder_intern_stats)
        if self.durability is not None:
            self.telemetry.add("durability", self.durability.gauges)
        #: The replicator's store tables, under the names they had here.
        self._folder_servers = self.replicator.folder_servers
        self._replica_servers = self.replicator.replica_servers
        self._listener = transport.listen(Address(host, listen_port))
        self.address_book.setdefault(host, self._listener.address)
        self._accept_thread: threading.Thread | None = None
        self._monitor = HeartbeatMonitor(
            host,
            transport,
            self.address_book,
            self.failure,
            interval=heartbeat_interval,
        )
        self._stop_lock = threading.Lock()
        self._stopped = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> Address:
        """Where applications and peer servers connect."""
        return self._listener.address

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` ran (including via :class:`ShutdownRequest`)."""
        return self._stopped

    def start(self) -> None:
        """Begin accepting connections."""
        if self._stopped:
            raise ServerError(
                f"memo server {self.host} was stopped; create a new instance"
            )
        if self.running.is_set():
            raise ServerError(f"memo server {self.host} already started")
        self.running.set()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"memo-{self.host}-accept", daemon=True
        )
        self._accept_thread.start()

    def stop(self) -> None:
        """Shut down: wake blocked getters, close listener and pool.

        Idempotent and race-free: concurrent callers (e.g. a
        :class:`ShutdownRequest`'s daemon thread racing a direct
        ``stop()``) are serialized on a once-flag, and the accept thread
        is joined so no late connection slips past the teardown.
        """
        with self._stop_lock:
            if self._stopped:
                return
            self._stopped = True
        self.running.clear()
        self._monitor.stop()
        self.router.retire_links()
        self.replicator.shutdown()
        self._listener.close()
        self.router.close()
        self.cache.shutdown()
        thread = self._accept_thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=2.0)

    def _accept_loop(self) -> None:
        while self.running.is_set():
            try:
                conn = self._listener.accept(timeout=0.5)
            except TimeoutError:
                continue
            except ConnectionClosedError:
                break
            try:
                self.cache.submit(self._serve_connection, conn)
            except ServerError:  # stop() raced us: the cache just shut down
                conn.close()
                break

    # -- connection service -----------------------------------------------------

    def _serve_connection(self, conn: Connection) -> None:
        """Serve one connection until it closes (see :class:`_ConnectionSession`).

        Correlated requests pipeline across a per-connection worker set
        with out-of-order tagged replies; id-less requests keep the
        paper's strict request/reply loop, one reply per request in order.
        """
        _ConnectionSession(self, conn).serve()

    def handle(self, msg: object, envelope: ForwardEnvelope | None = None) -> Reply:
        """Serve *msg* (which arrived inside *envelope*, if given) by its
        :data:`HANDLERS` row, failures mapped to error replies."""
        return self.guarded(self._serve, msg, envelope)

    def guarded(self, fn, *args) -> Reply:
        """Run a handler, mapping the protocol's failure modes to replies.

        Shared by the strict path, the pipelined session's workers and
        its reader-served waits, so a request fails with the same error
        text whichever path served it.
        """
        try:
            return fn(*args)
        except ShutdownError as exc:
            return Reply(ok=False, error=f"shutdown: {exc}")
        except HostDownError as exc:
            self.stats.bump("errors")
            return Reply(ok=False, error=f"host down: {exc}")
        except (NotRegisteredError, RoutingError, ServerError, ProtocolError) as exc:
            self.stats.bump("errors")
            return Reply(ok=False, error=f"{type(exc).__name__}: {exc}")
        except CommunicationError as exc:
            self.stats.bump("errors")
            return Reply(ok=False, error=f"communication failure: {exc}")
        except Exception as exc:  # noqa: BLE001 - a request must always be answered
            self.stats.bump("errors")
            return Reply(ok=False, error=f"internal error: {type(exc).__name__}: {exc}")

    def _serve(self, msg: object, envelope: ForwardEnvelope | None) -> Reply:
        row = HANDLERS.get(type(msg))
        if envelope is not None:
            self.router.admit(envelope)
            if row is None or not row.enveloped:
                raise ProtocolError(
                    f"envelope carried unexpected {type(msg).__qualname__}"
                )
        elif row is None:
            raise ProtocolError(f"unhandled message {type(msg).__qualname__}")
        if row.where is READER:
            # Reached only off a strict (id-less) frame: a peer with no
            # demultiplexer could never route the push frames a parked
            # wait resolves through — legacy sessions stay push-free.
            raise ProtocolError(
                f"{type(msg).__qualname__} requires a correlated "
                f"(pipelined) session; strict peers must use GetRequest"
            )
        return row.handler(self, msg, envelope)

    def _handle_envelope(self, envelope: ForwardEnvelope, _outer=None) -> Reply:
        """Serve what a peer aimed here; pass on what it aimed elsewhere."""
        if envelope.target_host != self.host:
            return self.router.relay(envelope)
        return self._serve(decode_message(envelope.inner), envelope)

    # -- registration (section 4.4) ------------------------------------------------

    def _handle_register(self, msg: RegisterRequest, _envelope=None) -> Reply:
        routing = RoutingTable(
            {src: dict(nbrs) for src, nbrs in msg.links.items()},
            hosts=list(msg.host_costs),
        )
        placement = FolderPlacement(
            [(sid, host) for sid, host in msg.folder_servers],
            host_power=dict(msg.host_costs),
            routing=routing,
            policy=self.policy,
            replication_factor=msg.replication_factor,
        )
        self._registrations[msg.app] = AppRegistration(
            msg.app, routing, placement, msg.replication_factor
        )
        self.replicator.materialize(msg.folder_servers, msg.replication_factor > 1)
        self.placement_cache.bump()  # new placement inputs: old routes are void
        self.stats.bump("registrations")
        # Failure detection only matters (and only costs traffic) once some
        # application actually replicates.
        if msg.replication_factor > 1 and self.running.is_set():
            self._monitor.start()
        return Reply(ok=True)

    def _on_liveness_change(self, host: str, alive: bool) -> None:
        """A peer flipped alive <-> dead: cached candidate lists are void."""
        self.placement_cache.bump()

    def registration(self, app: str) -> AppRegistration:
        """The registration of *app*, or :class:`NotRegisteredError`."""
        return self.router.registration(app)

    def _handle_heartbeat(self, msg: Heartbeat, _envelope=None) -> Reply:
        # Hearing from a host is itself proof of life.
        if msg.host:
            self.failure.mark_alive(msg.host)
        return Reply(ok=True)

    def _handle_shutdown(self, _msg: ShutdownRequest, _envelope=None) -> Reply:
        threading.Thread(target=self.stop, daemon=True).start()
        return Reply(ok=True)

    # -- the stores ------------------------------------------------------------------

    def local_folder_servers(self) -> dict[str, FolderServer]:
        """Direct handles to this host's folder servers (tests/benches)."""
        return self.replicator.local_folder_servers()

    def local_replica_servers(self) -> dict[str, FolderServer]:
        """Direct handles to this host's replica stores (tests/benches)."""
        return self.replicator.local_replica_servers()

    def _replica_server(self, sid: str) -> FolderServer:
        return self.replicator.replica_server(sid)

    def __repr__(self) -> str:
        return f"<MemoServer {self.host} at {self.address}>"


#: THE dispatch table: message class -> :class:`~repro.servers.session.Row`
#: ``(handler, where it runs, may ride a ForwardEnvelope)``.  Every consumer
#: of a decoded frame — the session's reader, the strict path, an
#: envelope's inner request — asks this table and nothing else; a message
#: class without a row is answered ``unhandled message``.  Component
#: methods are looked up at call time, so a test can patch one.
HANDLERS: dict[type, Row] = {
    PutRequest: Row(lambda s, m, e: s.router.serve(m, s.replicator.put, e), LANE, True),
    PutDelayedRequest: Row(
        lambda s, m, e: s.router.serve(m, s.replicator.put_delayed, e), LANE, True
    ),
    GetRequest: Row(
        lambda s, m, e: s.router.serve(m, s.replicator.get, e), WORKER, True
    ),
    GetAltSkipRequest: Row(
        lambda s, m, e: s.router.get_alt(m, s.replicator.get_alt, e), WORKER, True
    ),
    ReplicatePut: Row(lambda s, m, e: s.replicator.handle_replicate(m), LANE, True),
    GetWaitRequest: Row(_ConnectionSession.get_wait, READER, True),
    CancelWaitRequest: Row(_ConnectionSession.cancel_wait, READER, False),
    PipelineBatch: Row(_ConnectionSession.unpack_batch, READER, False),
    BurstEnvelope: Row(_ConnectionSession.unpack_burst, READER, False),
    ForwardEnvelope: Row(MemoServer._handle_envelope, WORKER, False),
    RegisterRequest: Row(MemoServer._handle_register, WORKER, False),
    MigrateRequest: Row(lambda s, m, e: s.replicator.handle_migrate(m), WORKER, False),
    DeltaSyncPull: Row(
        lambda s, m, e: s.replicator.handle_delta_sync(m), WORKER, False
    ),
    ResyncRequest: Row(
        lambda s, m, e: s.replicator.handle_resync_request(m), WORKER, False
    ),
    Heartbeat: Row(MemoServer._handle_heartbeat, WORKER, False),
    StatsRequest: Row(
        lambda s, m, e: Reply(ok=True, stats=s.telemetry.snapshot()), WORKER, False
    ),
    ShutdownRequest: Row(MemoServer._handle_shutdown, WORKER, False),
}
