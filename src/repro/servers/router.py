"""The router: which host serves a folder, and how a request gets there.

"Each memo server ... routes each request to the folder server that owns
the named folder" along "the cost-weighted shortest path" (paper sections
4.1 and 5): owned here, a request goes to the replicator's store; owned
elsewhere, it travels inside a :class:`~repro.network.protocol.ForwardEnvelope`
to the *next hop* on the application's topology, every hop relaying the
reply back.  No broadcasting, ever.  With ``replication_factor > 1`` a
folder's placement is an ordered *replica chain* and "the owner" is its
first reachable member: :meth:`Router.walk` is the one place that rule is
written, and requests, parked waits and ``get_alt`` rounds all go through it.

Everything without an underscore is for the other server modules.  What
this one calls on them — a session's ``complete_waiter``, nothing else: how
a request is served once it lands here is handed in (``here``).
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING, Callable

from repro.core.keys import FolderName
from repro.errors import (
    CommunicationError,
    ConnectionClosedError,
    FolderMigratedError,
    HostDownError,
    MemoError,
    NotRegisteredError,
    ProtocolError,
    RoutingError,
    ServerError,
    ShutdownError,
)
from repro.network.codec import encode_message, split_correlated
from repro.network.connection import Address, Connection, Transport
from repro.network.protocol import (
    BurstEnvelope,
    ForwardEnvelope,
    GetAltSkipRequest,
    GetWaitRequest,
    PipelineBatch,
    Reply,
    decode_protocol_frame,
    recv_message,
    retryable,
    send_message,
    shutting_down,
)
from repro.replication.failure import FailureDetector
from repro.servers.hashing import PlacementCache
from repro.servers.relay import ParkedWaiter, RelayLink
from repro.servers.replicator import PUT_ACK
from repro.servers.threadcache import ThreadCache
from repro.telemetry import Counters

if TYPE_CHECKING:
    from repro.servers.memo_server import AppRegistration

__all__ = ["Router", "MIGRATION_RETRY_MAX"]

#: How often one request — or one relayed wait — may re-enter routing
#: because its folder migrated before it fails: the bound on a folder that
#: keeps moving.
MIGRATION_RETRY_MAX = 8

#: Idle connections a pool keeps per destination; extras are closed.
_POOL_IDLE_CAP = 4

#: The put ack's tag+body bytes (what :func:`split_correlated` exposes): a
#: burst-forwarded put whose reply matches these bytes can be relayed to
#: the client verbatim, no decode, no re-encode.
_PUT_ACK_TAGBODY = encode_message(PUT_ACK)[3:]

#: Deadline for each reply read of a burst-forward.  The strict path can
#: afford an unbounded reply wait (it wedges one request); a wedged burst
#: would stall its whole put lane, so a frozen owner must instead fail
#: the burst and send the unresolved puts down the audited retry path.
_BURST_REPLY_TIMEOUT = 30.0


def _answered_mid_teardown(reply: object) -> bool:
    return type(reply) is Reply and shutting_down(reply.error)


class _ConnectionPool:
    """Exclusive-use connection pool keyed by destination address.

    A forwarded request owns its connection for the full request/reply
    round (blocking gets can hold it for a long time); concurrent requests
    to the same next hop get their own connections, so there is no
    head-of-line blocking or deadlock.
    """

    def __init__(self, transport: Transport) -> None:
        self._transport = transport
        self._idle: dict[Address, list[Connection]] = {}
        self._lock = threading.Lock()
        self._closed = False

    def exchange(
        self,
        address: Address,
        attempt: Callable[[Connection], object],
        stale: Callable[[object], bool] | None = None,
    ):
        """Run one request/reply *attempt* on a connection held exclusively.

        A pooled connection can be silently dead (its peer restarted
        since it idled), or still held by a zombie serving thread of a
        dead incarnation that answers one last request with a shutdown
        error while a restarted server is already healthy at the same
        address — same staleness, different symptom.  So an attempt on a
        *reused* connection that raises, or whose result *stale* flags,
        drops the whole bucket and runs once more on a provably fresh
        connection before anyone concludes the host itself is down; what
        the second attempt raises or returns stands.  Resends keep
        at-least-once semantics (duplicates possible, never losses).
        """
        retried = False
        while True:
            conn, reused = self._acquire(address)
            retry = reused and not retried
            try:
                result = attempt(conn)
            except (CommunicationError, TimeoutError):
                conn.close()
                if not retry:
                    raise
            else:
                if not (retry and stale is not None and stale(result)):
                    self._release(address, conn)
                    return result
                conn.close()
            self.drop(address)
            retried = True

    def _acquire(self, address: Address) -> tuple[Connection, bool]:
        """Returns ``(conn, reused)`` — reused means it came from the pool."""
        with self._lock:
            if self._closed:
                raise ShutdownError("connection pool is closed")
            bucket = self._idle.get(address)
            while bucket:
                conn = bucket.pop()
                if not conn.closed:
                    return conn, True
        return self._transport.connect(address), False

    def drop(self, address: Address) -> None:
        """Close every idle connection to *address* (peer died/restarted)."""
        with self._lock:
            bucket = self._idle.pop(address, [])
        for conn in bucket:
            conn.close()

    def _release(self, address: Address, conn: Connection) -> None:
        if conn.closed:
            return
        with self._lock:
            if not self._closed:
                bucket = self._idle.setdefault(address, [])
                if len(bucket) < _POOL_IDLE_CAP:
                    bucket.append(conn)
                    return
        conn.close()

    def close_all(self) -> None:
        with self._lock:
            self._closed = True
            buckets = list(self._idle.values())
            self._idle.clear()
        for bucket in buckets:
            for conn in bucket:
                conn.close()


class Router:
    """Placement, the chain walk, forwarding and relay links of one server,
    constructed with the server state it reads.  How a request is served
    once it lands here is the caller's ``here``; the router never asks."""

    def __init__(
        self,
        host: str,
        transport: Transport,
        address_book: dict[str, Address],
        registrations: "dict[str, AppRegistration]",
        placement_cache: PlacementCache,
        failure: FailureDetector,
        cache: ThreadCache,
        stats: Counters,
        running: threading.Event,
    ) -> None:
        self.host = host
        self.transport = transport
        self.address_book = address_book
        self._registrations = registrations
        self._placement_cache = placement_cache
        self._failure = failure
        self._cache = cache
        self._stats = stats
        self._running = running
        self._pool = _ConnectionPool(transport)
        #: Next hop -> the link carrying every wait relayed that way.
        self._relay_links: dict[str, RelayLink] = {}
        self._relay_lock = threading.Lock()
        #: Server-scoped relay tokens (and cancel correlation ids).
        self._relay_ids = itertools.count(1)

    # -- placement ------------------------------------------------------------------

    def registration(self, app: str) -> "AppRegistration":
        # Lock-free read: dict lookups are atomic under the GIL, and a
        # racing re-registration just means this request sees either the
        # old or the new registration — both were valid an instant apart.
        reg = self._registrations.get(app)
        if reg is None:
            raise NotRegisteredError(
                f"application {app!r} is not registered with memo server {self.host}"
            )
        return reg

    def candidates(self, folder: FolderName) -> tuple:
        """The registration, replica chain, and live candidates for *folder*.

        Suspected hosts are skipped up front — unless *every* member is
        suspected, in which case each is tried (a wholly-suspected chain
        usually means the detector is stale, not the cluster gone).  The
        decision is memoized in the epoch-guarded
        :class:`~repro.servers.hashing.PlacementCache`: steady-state
        routing is one dict hit instead of K salted hashes per request.
        Epoch is read BEFORE any routing input (registration, liveness):
        the stamp must predate everything the computation reads, so a
        re-registration or liveness flip landing mid-computation bumps
        past the stamp and the stale publish is rejected.
        """
        epoch = self._placement_cache.epoch
        reg = self.registration(folder.app)
        cache_key = (folder.app, folder.canonical())
        cached = self._placement_cache.get(cache_key)
        if cached is None:
            chain = reg.placement.replica_chain(folder)
            candidates = [c for c in chain if self._failure.is_alive(c[1])]
            if not candidates:
                candidates = list(chain)
            self._placement_cache.put(cache_key, epoch, (chain, candidates))
        else:
            chain, candidates = cached
        return reg, chain, candidates

    def suspect(self, host: str) -> None:
        """Declare *host* dead and flush idle connections to it."""
        self._failure.mark_dead(host)
        address = self.address_book.get(host)
        if address is not None:
            self._pool.drop(address)

    def admit(self, envelope: ForwardEnvelope) -> None:
        """Count an inbound envelope; refuse one that already crossed here."""
        self._stats.bump("forwards_in")
        if self.host in envelope.trail:
            raise RoutingError(
                f"routing loop: {self.host} already in trail {envelope.trail}"
            )

    def chained_here(self, folder: FolderName, chain: tuple, what: str) -> tuple:
        """This host's ``(sid, host)`` entry in *chain*.

        A peer aimed *what* (an envelope, a relayed wait, a replica copy)
        at this host, so the folder must be chained here: such a request
        is served where it was aimed or refused, NEVER re-routed — two
        servers that briefly disagree on an owner answer with an error
        after one hop instead of bouncing it between them.
        """
        for entry in chain:
            if entry[1] == self.host:
                return entry
        raise RoutingError(
            f"folder {folder} is not chained to {self.host} "
            f"(chain {[h for _s, h in chain]}), but {what} targeted it "
            f"— inconsistent ADFs?"
        )

    # -- the chain walk (sections 4.1 and 5, plus replica-chain fail-over) ----------

    def walk(self, reg, chain, candidates, folder, here, there, *args) -> Reply:
        """Serve at the first reachable member of *candidates*.

        ``here(reg, chain, sid, *args)`` serves on this host;
        ``there(reg, host, *args)`` sends to another member and returns
        its reply.  With ``replication_factor=1`` the chain is exactly
        the single owner and this is the seed code path: local dispatch
        or one forward, errors propagated unchanged.  With a longer chain
        a member that cannot be reached — or that answers mid-teardown,
        its data being on the next member — is marked dead and the next
        candidate tried; when none is left the collected failures are
        raised as :class:`HostDownError`.
        """
        failures: list[str] = []
        last = len(candidates) - 1
        for index, (sid, host) in enumerate(candidates):
            if host == self.host:
                return here(reg, chain, sid, *args)
            try:
                reply = there(reg, host, *args)
            except CommunicationError as exc:
                if len(chain) == 1:
                    raise
                failure = str(exc)
            else:
                if index == last or not shutting_down(reply.error):
                    return reply
                failure = reply.error
            self.suspect(host)
            failures.append(f"{host}: {failure}")
        raise HostDownError(
            f"no reachable replica for {folder} "
            f"(chain {[h for _s, h in chain]}): " + "; ".join(failures)
        )

    def serve(self, msg, here, envelope: ForwardEnvelope | None = None) -> Reply:
        """A put / put-delayed / get, straight from a client or aimed here
        by a peer's *envelope* (the peer owns the migration retry then)."""
        if envelope is None:
            return self.route_with_retry(msg.folder, msg, here)
        return self.route(msg.folder, msg, here, envelope)

    def route(self, folder: FolderName, msg, here, envelope=None) -> Reply:
        """Serve *msg* at the first reachable member of *folder*'s chain —
        by ``here(reg, chain, sid, msg)`` when that is this host."""
        reg, chain, candidates = self.candidates(folder)
        if envelope is not None:
            candidates = [self.chained_here(folder, chain, "the envelope")]
        return self.walk(reg, chain, candidates, folder, here, self.forward, msg)

    def route_with_retry(self, folder: FolderName, msg, here) -> Reply:
        """Route, transparently re-routing when the folder migrates.

        A blocked get whose folder is rebalanced away wakes with
        :class:`FolderMigratedError` (locally as the exception, remotely
        as an error reply); the placement in force *now* names the
        folder's new home, so the request simply re-enters routing and
        re-blocks there.  Bounded to catch pathological ping-ponging.
        """
        for _attempt in range(MIGRATION_RETRY_MAX):
            try:
                reply = self.route(folder, msg, here)
            except FolderMigratedError:
                continue
            error = reply.error  # "" on the hot path: an ok reply
            if not error or shutting_down(error) or not retryable(error):
                return reply  # anything but "the folder moved" stands
        return Reply(ok=False, error=f"folder {folder} kept migrating; giving up")

    # -- forwarding -------------------------------------------------------------------

    def forward(self, reg, owner_host: str, msg) -> Reply:
        """Send *msg* to *owner_host* and return its reply."""
        self._stats.bump("forwards_out")
        # The envelope carries the inner request's already-encoded bytes —
        # a compact frame inside a compact frame, never a second graph
        # linearization pass.
        return self.send_envelope(reg, owner_host, encode_message(msg))

    def relay(self, envelope: ForwardEnvelope) -> Reply:
        """Pass an envelope aimed elsewhere on along the app's topology."""
        self.admit(envelope)
        self._stats.bump("forwards_relayed")
        return self.send_envelope(
            self.registration(envelope.app),
            envelope.target_host,
            envelope.inner,
            envelope.trail,
        )

    def _address_of(self, host: str) -> Address:
        address = self.address_book.get(host)
        if address is None:
            raise RoutingError(f"no address known for host {host!r}")
        return address

    def _envelope(self, reg, target: str, inner: bytes, trail: tuple):
        """*inner* addressed to *target*, this host stamped on its trail."""
        return ForwardEnvelope(
            app=reg.app, target_host=target, inner=inner, trail=trail + (self.host,)
        )

    def send_envelope(self, reg, target: str, inner: bytes, trail=()) -> Reply:
        """One strict exchange with the next hop toward *target*: the
        encoded request *inner* goes out enveloped, the reply comes back."""
        next_hop = reg.routing.next_hop(self.host, target)
        envelope = self._envelope(reg, target, inner, trail)

        def attempt(conn: Connection) -> object:
            send_message(conn, envelope)
            return recv_message(conn)

        try:
            reply = self._pool.exchange(
                self._address_of(next_hop), attempt, stale=_answered_mid_teardown
            )
        except (ConnectionClosedError, TimeoutError) as exc:
            raise CommunicationError(
                f"forward to {target} via {next_hop} failed: {exc}"
            ) from exc
        if type(reply) is not Reply:
            raise ProtocolError(
                f"expected Reply from {next_hop}, got {type(reply).__qualname__}"
            )
        return reply

    def forward_target(self, msg) -> str | None:
        """The single remote owner a pipelined put can burst-forward to.

        None means the put must take the full :meth:`route` path: local
        ownership, a replica chain (fan-out and chain walking belong to
        the audited route), a multi-hop topology (a relay serves each
        envelope on its own worker, which would reorder same-folder
        puts), or a missing registration/address (let the slow path
        produce its usual error).
        """
        try:
            reg, chain, candidates = self.candidates(msg.folder)
            if len(chain) != 1:
                return None
            host = candidates[0][1]
            if host == self.host or reg.routing.next_hop(self.host, host) != host:
                return None
        except MemoError:
            # Unknown app, unroutable host, bad topology... — whatever it
            # is, the audited slow path knows how to turn it into the
            # right error reply; the fast path only answers "yes, one
            # healthy remote owner, directly linked".
            return None
        return host if host in self.address_book else None

    def forward_burst(self, app: str, owner_host: str, entries: list) -> list:
        """Send a run of lane requests to *owner_host* as one :class:`BurstEnvelope`.

        Any request whose handler row runs on the put lane can ride it —
        a client's puts, the puts an anti-entropy pull returns, a lane
        round's replica copies — and the owner applies them in order on
        one lane.  *entries* are ``(message, corr_id, raw_frame_or_None)``
        triples whose ids are unique within the burst; a client's raw
        correlated frames travel verbatim (a forwarded put is never
        re-encoded), and the owner's replies come back tagged with those
        same ids.  Only sent over a direct link: a relay would serve each
        member on its own worker and could reorder them.

        Returns one result per entry:

        * ``bytes`` — the owner's acknowledgement frame, byte-identical
          to what the client expects; the caller relays it untouched;
        * :class:`Reply` — a decoded non-ack reply (error, found-flag);
        * ``None`` — unresolved (connection failure, pool shutdown, no
          direct link); the caller sends it down its per-request path.
        """
        address = self.address_book.get(owner_host)
        try:
            linked = self.registration(app).routing.next_hop(self.host, owner_host)
        except MemoError:
            linked = None
        if address is None or linked != owner_host:
            return [None] * len(entries)
        frames = {}
        index_of = {}
        for i, (msg, cid, raw) in enumerate(entries):
            frames[cid] = raw if raw is not None else encode_message(msg, corr_id=cid)
            index_of[cid] = i
        results: list = [None] * len(entries)
        unresolved = set(index_of)

        def absorb(raw_reply: bytes) -> None:
            split = split_correlated(raw_reply)
            if split is None:
                return  # id-less frame: not a burst reply, skip
            cid, tagbody = split
            if cid not in unresolved:
                return
            if tagbody == _PUT_ACK_TAGBODY:
                results[index_of[cid]] = raw_reply
            else:
                reply, _ = decode_protocol_frame(raw_reply)
                if type(reply) is not Reply:
                    return
                results[index_of[cid]] = reply
            unresolved.discard(cid)

        def torn() -> list:
            teardown = _answered_mid_teardown
            return [cid for cid, i in index_of.items() if teardown(results[i])]

        def attempt(conn: Connection) -> None:
            # A retry resends only what the first connection left open or
            # a dead incarnation's session answered mid-teardown.
            unresolved.update(torn())
            pending = tuple(frames[cid] for cid in sorted(unresolved))
            send_message(
                conn,
                BurstEnvelope(
                    app=app, target_host=owner_host, frames=pending, trail=(self.host,)
                ),
            )
            while unresolved:
                data = conn.recv(timeout=_BURST_REPLY_TIMEOUT)
                reply, _cid = decode_protocol_frame(data)
                batched = type(reply) is PipelineBatch
                for raw_reply in reply.frames if batched else (data,):
                    absorb(raw_reply)

        try:
            self._pool.exchange(address, attempt, stale=lambda _none: bool(torn()))
        except (CommunicationError, TimeoutError, ShutdownError):
            pass  # what stayed unresolved is the caller's to re-route
        return results

    # -- relayed waits --------------------------------------------------------------

    def relay_wait(
        self, session, entry: ParkedWaiter, reg, target: str, trail: tuple[str, ...]
    ) -> None:
        """Send *entry*'s wait on toward *target*, to park in its table.

        The continuation is shipped to the host that owns the data and
        the result comes back as a message; no thread waits on either
        side.  The wait rides a correlated :class:`ForwardEnvelope` over
        the link to the next hop, so a multi-hop topology relays it hop
        by hop — and refuses a routing loop — exactly as it does any
        forward.  Raises only before the wait is on a link (no route, the
        next hop cannot be dialled, this server is stopping); after that
        its fate is the link reader's.
        """
        next_hop = reg.routing.next_hop(self.host, target)
        token = next(self._relay_ids)
        entry.target, entry.trail = target, trail
        with self._relay_lock:
            link = self._relay_links.get(next_hop)
            if link is None or not link.add(token, session, entry):
                link = self._open_relay_link(next_hop)
                if not link.add(token, session, entry):
                    raise ConnectionClosedError(
                        f"relay link to {next_hop} was lost as it opened"
                    )
        self._stats.bump("forwards_out")
        wait = GetWaitRequest(
            folder=entry.folder, mode=entry.mode, waiter=token, origin=entry.origin
        )
        link.send(self._envelope(reg, target, encode_message(wait), trail), token)

    def _open_relay_link(self, next_hop: str) -> RelayLink:
        """Dial *next_hop* and start the link's reader (``_relay_lock`` held)."""
        if not self._running.is_set():
            raise ShutdownError("server stopping; wait not relayed")
        link = RelayLink(
            next_hop,
            self.transport.connect(self._address_of(next_hop)),
            self._relay_ids,
            self.host,
        )
        try:
            self._cache.submit(link.serve)
        except ServerError:  # stop() raced us: the cache just shut down
            link.conn.close()
            raise ShutdownError("server stopping; wait not relayed") from None
        self._relay_links[next_hop] = link
        return link

    def retire_links(self) -> None:
        """End every relayed wait as a store's own end at shutdown: with a
        ``shutdown:`` reason, so their clients re-subscribe at the next
        incarnation."""
        with self._relay_lock:
            links = list(self._relay_links.values())
        for link in links:
            for session, entry in link.retire():
                session.complete_waiter(
                    entry, None, "shutdown: server stopping; relayed wait ended"
                )

    def close(self) -> None:
        """Close every pooled connection; later forwards fail as shutdown."""
        self._pool.close_all()

    # -- get_alt (section 6.1.2) ------------------------------------------------------

    def get_alt(self, msg: GetAltSkipRequest, here, envelope=None) -> Reply:
        """One non-blocking round over folders that may span hosts.

        Folders sharing one list of live chain members form a group, in
        first-occurrence order (the client already randomized the folder
        order, providing the nondeterministic choice); each group walks
        its chain as any request does — checked by ``here`` when this
        host serves it, by forwarding the sub-request otherwise, a dead
        member demoted on the way.  First hit wins.  A group none of
        whose members answers is skipped, and reported only when no
        other group had a memo.  A round a peer aimed here (*envelope*)
        is checked against this host's stores or refused.
        """
        if len({f.app for f in msg.folders}) != 1:
            raise ProtocolError("get_alt folders must belong to one application")
        if envelope is not None:
            return self.route(msg.folders[0], msg, here, envelope)
        groups: dict[tuple, tuple] = {}
        for folder in msg.folders:
            reg, chain, candidates = self.candidates(folder)
            groups.setdefault(tuple(candidates), (reg, chain, []))[2].append(folder)
        unreachable: list[str] = []
        for candidates, (reg, chain, folders) in groups.items():
            sub = GetAltSkipRequest(folders=tuple(folders), origin=msg.origin)
            try:
                reply = self.walk(
                    reg, chain, candidates, folders[0], here, self.forward, sub
                )
            except HostDownError as exc:
                unreachable.append(str(exc))
                continue
            if reply.found or not reply.ok:
                return reply
        if unreachable:
            raise HostDownError("; ".join(unreachable))
        return Reply(ok=True, found=False)
