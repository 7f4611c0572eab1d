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
  application's topology (Figure 2), and the one link per peer every
  exchange with that peer rides;
* the :class:`~repro.servers.replicator.Replicator` — this host's folder
  stores, replica fan-out, migration and anti-entropy.

What stays here is what makes them one server: lifecycle, the registration
protocol (section 4.4), the address book, the telemetry registry, and
:data:`HANDLERS` — the one table from message class to (handler, where it
runs, whether it may ride a peer's :class:`~repro.network.protocol.Envelope`).

Request life cycle:

1. An application process sends a request over its connection to the local
   memo server (Figure 1); the session runs it where its table row says.
2. The handler resolves the folder's owner via the application's
   :class:`FolderPlacement` (the router).
3. Owned locally → direct call into the local :class:`FolderServer` (the
   replicator).  Owned remotely → the request rides an
   :class:`~repro.network.protocol.Envelope` to the *next hop* memo server
   on the cost-weighted shortest path; every hop relays the reply back.
   No broadcasting, ever.
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
from repro.network.codec import folder_intern_stats
from repro.network.connection import Address, Connection, Transport
from repro.network.protocol import (
    CancelWaitRequest,
    DeltaSyncPull,
    Envelope,
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
from repro.servers.session import LANE, READER, WORKER, Row, _ConnectionSession, reads
from repro.servers.threadcache import Join, ThreadCache
from repro.telemetry import Counters, Registry

__all__ = ["MemoServer", "AppRegistration", "MEMO_PORT"]

#: Well-known memo server port on the logical network.
MEMO_PORT = 7094

#: ``MemoServer.stats``, reported as ``memo.<name>``.  Read by FIG2
#: (``forwards_out``), ``bench/``'s window counters and
#: ``Cluster.waiter_gauges`` / ``debug_report``.  Of the waiter table,
#: ``waiters_parked`` is cumulative and ``waiters_active`` the current
#: population across all sessions (+1 on park, -1 on completion or cancel);
#: ``peer_dials`` counts the links this server dialled to its peers.
MEMO_COUNTERS = (
    "requests", "local_dispatches", "forwards_out", "forwards_relayed",
    "forwards_in", "registrations", "errors", "pipelined_requests",
    "pipelined_batches", "replications_out", "replications_in",
    "replication_failures", "failover_dispatches", "resync_returned",
    "resync_reseeded", "resync_reseed_skipped", "waiters_parked",
    "waiters_active", "waiters_completed", "waiters_cancelled", "push_frames",
    "peer_dials",
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
            host, self.address_book, self.router.probe, interval=heartbeat_interval
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
        """Shut down: wake blocked getters, retire peer links, close listener.

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

        Every request carries a correlation id and runs where its
        :data:`HANDLERS` row says — a thread that reads never waits on a
        peer — and its reply comes back under that id.
        """
        _ConnectionSession(self, conn).serve()

    def serve(
        self, msg: object, envelope: Envelope | None, done, handler=None, raw=None
    ) -> None:
        """Serve *msg* — a member of *envelope*, if given — by *handler* (its
        ``LANE`` / ``WORKER`` row's if None), or pass on a member aimed
        elsewhere: ``done(reply)`` runs once, now or later, given the Reply
        or the exception that ended the request (:meth:`failed` maps it).
        *raw* is the frame *msg* was read from, if any: what a forward or a
        relay sends on in its place."""
        try:
            if envelope is not None and envelope.target_host != self.host:
                self.router.relay(envelope, msg, done, raw)
                return
            if handler is None:
                row = HANDLERS.get(type(msg))
                if envelope is not None and (row is None or not row.enveloped):
                    raise ProtocolError(
                        f"envelope carried unexpected {type(msg).__qualname__}"
                    )
                if row is None:
                    raise ProtocolError(f"unhandled message {type(msg).__qualname__}")
                handler = row.handler
            reply = handler(self, msg, envelope, done, raw)
        except Exception as exc:  # noqa: BLE001 - a request must always be answered
            reply = exc
        if reply is not None:
            done(reply)

    def handle(self, msg: object, envelope: Envelope | None = None, raw=None) -> Reply:
        """:meth:`serve` *msg*, and wait for its reply (for a caller that
        reads nothing)."""
        join = Join()
        self.serve(msg, envelope, join, None, raw)
        (reply,) = join.wait()
        return reply if type(reply) is Reply else self.failed(reply)

    def guarded(self, fn, *args) -> Reply:
        """Run a handler, mapping what it raises to a reply (:meth:`failed`)."""
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - a request must always be answered
            return self.failed(exc)

    def failed(self, exc: Exception) -> Reply:
        """The error reply for a request *exc* ended (a Reply passes)."""
        if type(exc) is Reply:
            return exc
        if isinstance(exc, ShutdownError):
            return Reply(ok=False, error=f"shutdown: {exc}")
        self.stats.bump("errors")
        if isinstance(exc, HostDownError):
            return Reply(ok=False, error=f"host down: {exc}")
        if isinstance(exc, (NotRegisteredError, RoutingError, ServerError, ProtocolError)):
            return Reply(ok=False, error=f"{type(exc).__name__}: {exc}")
        if isinstance(exc, CommunicationError):
            return Reply(ok=False, error=f"communication failure: {exc}")
        return Reply(ok=False, error=f"internal error: {type(exc).__name__}: {exc}")

    def _handle_get(self, msg: GetRequest, envelope, done, raw) -> None:
        if msg.mode != "skip":
            raise ProtocolError(
                f"a {msg.mode!r} GetRequest would block its thread; "
                f"wait with a GetWaitRequest"
            )
        self.router.serve(msg, self.replicator.get, done, envelope, raw)

    # -- registration (section 4.4) ------------------------------------------------

    def _handle_register(self, msg: RegisterRequest, *_) -> Reply:
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
        """A peer flipped alive <-> dead: cached candidate lists are void,
        and the calls waiting on a dead peer that can fail over do."""
        self.placement_cache.bump()
        if not alive:
            self.router.fail_calls_to(host)

    def registration(self, app: str) -> AppRegistration:
        """The registration of *app*, or :class:`NotRegisteredError`."""
        return self.router.registration(app)

    def _handle_heartbeat(self, msg: Heartbeat, *_) -> Reply:
        if not self.running.is_set():  # a session's last frame after stop()
            return Reply(ok=False, error="shutdown: server stopping")
        # Hearing from a host is itself proof of life.
        if msg.host:
            self.failure.mark_alive(msg.host)
        return Reply(ok=True)

    def _handle_shutdown(self, _msg: ShutdownRequest, *_) -> Reply:
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
#: ``(handler, where it runs, may ride an Envelope)``.  Every consumer of a
#: decoded frame — the session's reader, a carrier's members — asks this
#: table and nothing else; a message class without a row is answered
#: ``unhandled message``.  Only what waits on peers is a ``WORKER`` row.
#: Component methods are looked up at call time, so a test can patch one.
HANDLERS: dict[type, Row] = {
    PutRequest: Row(lambda s, m, e, d, r: s.router.serve(m, s.replicator.put, d, e, r), LANE, True),
    PutDelayedRequest: Row(
        lambda s, m, e, d, r: s.router.serve(m, s.replicator.put_delayed, d, e, r), LANE, True
    ),
    GetRequest: Row(reads(MemoServer._handle_get), READER, True),
    GetAltSkipRequest: Row(
        reads(lambda s, m, e, d, _r: s.router.get_alt(m, s.replicator.get_alt, d, e)), READER, True
    ),
    ReplicatePut: Row(
        reads(lambda s, m, e, d, _r: s.replicator.handle_replicate(m)), READER, True
    ),
    GetWaitRequest: Row(_ConnectionSession.get_wait, READER, True),
    CancelWaitRequest: Row(_ConnectionSession.cancel_wait, READER, False),
    PipelineBatch: Row(_ConnectionSession.unpack_batch, READER, False),
    Envelope: Row(_ConnectionSession.open_envelope, READER, False),
    RegisterRequest: Row(reads(MemoServer._handle_register), READER, False),
    MigrateRequest: Row(lambda s, m, e, d, _r: s.replicator.handle_migrate(m), WORKER, False),
    DeltaSyncPull: Row(lambda s, m, e, d, _r: s.replicator.handle_delta_sync(m), WORKER, False),
    ResyncRequest: Row(
        lambda s, m, e, d, _r: s.replicator.handle_resync_request(m), WORKER, False
    ),
    Heartbeat: Row(reads(MemoServer._handle_heartbeat), READER, False),
    StatsRequest: Row(
        reads(lambda s, m, e, d, _r: Reply(ok=True, stats=s.telemetry.snapshot())), READER, False
    ),
    ShutdownRequest: Row(reads(MemoServer._handle_shutdown), READER, False),
}
