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

A peer is reached one way: every exchange with a next hop rides the one
:class:`~repro.servers.link.PeerLink` the router dialled to it, retired
when it is lost, found stale (:meth:`Router._on_link`) or at shutdown.
When the failure detector declares the peer dead, every call on its link
that may run again elsewhere fails, and the chain walk moves on.

Everything without an underscore is for the other server modules.  What
this one calls on them — a session's ``complete_waiter`` and
``relay_ended``, nothing else: how a request is served once it lands here
is handed in (``here``).
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable

from repro.core.keys import FolderName
from repro.errors import (
    CommunicationError,
    ConnectionClosedError,
    HostDownError,
    MemoError,
    NotRegisteredError,
    ProtocolError,
    RoutingError,
    ShutdownError,
)
from repro.network.codec import encode_message
from repro.network.connection import Address, Transport
from repro.network.protocol import (
    ForwardEnvelope,
    GetAltSkipRequest,
    GetWaitRequest,
    Heartbeat,
    Reply,
    shutting_down,
)
from repro.replication.failure import FailureDetector
from repro.servers.hashing import PlacementCache
from repro.servers.link import ParkedWaiter, PeerLink
from repro.servers.threadcache import ThreadCache
from repro.telemetry import Counters

if TYPE_CHECKING:
    from repro.servers.memo_server import AppRegistration

__all__ = ["Router"]

def _torn(reply: object) -> bool:
    """Whether *reply* was answered mid-teardown (a dying incarnation's)."""
    return type(reply) is Reply and shutting_down(reply.error)


class Router:
    """Placement, the chain walk, forwarding and the peer links of one
    server, constructed with the server state it reads.  How a request is served
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
        #: Next hop -> the one link every exchange with it rides.
        self._links: dict[str, PeerLink] = {}
        self._links_lock = threading.Lock()
        self._closed = False

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
        """Declare *host* dead (the calls on its link that can, fail over)."""
        self._failure.mark_dead(host)

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
        """A put / put-delayed / get_skip, straight from a client or aimed
        here by a peer's *envelope*."""
        return self.route(msg.folder, msg, here, envelope)

    def route(self, folder: FolderName, msg, here, envelope=None) -> Reply:
        """Serve *msg* at the first reachable member of *folder*'s chain —
        by ``here(reg, chain, sid, msg)`` when that is this host."""
        reg, chain, candidates = self.candidates(folder)
        if envelope is not None:
            candidates = [self.chained_here(folder, chain, "the envelope")]
        return self.walk(reg, chain, candidates, folder, here, self.forward, msg)

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

    def _envelope(self, reg, target: str, inner: bytes, trail: tuple):
        """*inner* addressed to *target*, this host stamped on its trail."""
        return ForwardEnvelope(
            app=reg.app, target_host=target, inner=inner, trail=trail + (self.host,)
        )

    def send_envelope(self, reg, target: str, inner: bytes, trail=()) -> Reply:
        """One call on the link to the next hop toward *target*: the
        encoded request *inner* goes out enveloped, the reply comes back."""
        next_hop = reg.routing.next_hop(self.host, target)
        return self.call(next_hop, self._envelope(reg, target, inner, trail))

    def forward_target(self, msg) -> str | None:
        """The single remote owner a pipelined put can burst-forward to.

        None means the put must take the full :meth:`route` path: local
        ownership, a replica chain (fan-out and chain walking belong to
        the audited route), a multi-hop topology (a relay hop passes each
        member on in an envelope of its own, which could reorder
        same-folder puts), or a missing registration/address (let the slow path
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

        A client's puts, the puts an anti-entropy pull returns, a lane
        round's replica copies: the owner applies them in order, so only
        a direct link carries a burst.  *entries* are ``(message,
        raw_frame_or_None)`` pairs (see :meth:`PeerLink.burst`).  Returns
        one result per entry: the owner's :class:`Reply`, or None where
        the link left it unresolved, for the caller's per-request path.
        A stale link's retry resends only what the first attempt left
        unresolved or a dying incarnation answered mid-teardown.
        """
        try:
            linked = self.registration(app).routing.next_hop(self.host, owner_host)
        except MemoError:
            linked = None
        results: list = [None] * len(entries)
        if linked != owner_host or owner_host not in self.address_book:
            return results

        def attempt(link: PeerLink) -> tuple:
            pending = [i for i, r in enumerate(results) if r is None or _torn(r)]
            members = [entries[i] for i in pending]
            got, error = link.burst(app, owner_host, members, (self.host,))
            for i, reply in zip(pending, got):
                results[i] = reply
            return got, error

        try:
            self._on_link(owner_host, attempt)
        except (CommunicationError, ShutdownError):
            pass  # what stayed unresolved is the caller's to re-route
        return results

    # -- the links ------------------------------------------------------------------

    def call(self, host: str, message: object) -> Reply:
        """One request to *host* on its link, within the message's deadline
        (:data:`~repro.servers.link.DEADLINES`)."""
        beyond = getattr(message, "target_host", host) != host
        (reply,), error = self._on_link(host, lambda link: link.call(message), beyond)
        if error is not None:
            raise CommunicationError(f"call to {host} failed: {error}") from error
        return reply

    def _on_link(
        self, host: str, send: Callable[[PeerLink], tuple], beyond: bool = False
    ) -> tuple:
        """``send(link)`` on the link to *host*: its ``(results, error)``.

        The stale rule: a link that had answered can be dead (its peer
        restarted since) or reach a dying incarnation answering
        mid-teardown.  A loss or a mid-teardown reply on it resets it
        (:meth:`_reset`), and *send* runs once more on a fresh dial — as
        does every other call on it; but a reply relayed from *beyond*
        *host* was the next hop's to judge.  A missed deadline is a
        failed probe of *host*.
        """
        for retried in (False, True):
            link = self._link(host)
            reused = link.answered
            results, error = send(link)
            if isinstance(error, TimeoutError):
                self._failure.record_failure(host)
            stale = type(error) is ConnectionClosedError or (
                error is None and not beyond and any(map(_torn, results))
            )
            if retried or not reused or not stale:
                break
            self._reset(link)
        return results, error

    def probe(self, peer: str, quiet: float) -> None:
        """Feed the failure detector one observation of *peer*.

        A link that received any frame in the last *quiet* seconds proves
        the peer alive; a quieter one carries a :class:`Heartbeat`, and a
        dial or a heartbeat that fails is a failed probe.
        """
        try:
            link = self._link(peer)
        except (CommunicationError, ShutdownError):
            alive = False
        else:
            alive = time.monotonic() - link.calls.heard < quiet
            if not alive:
                (reply,), error = link.call(Heartbeat(host=self.host))
                alive = error is None and reply.ok
        if alive:
            self._failure.mark_alive(peer)
        else:
            self._failure.record_failure(peer)

    def _link(self, host: str) -> PeerLink:
        """The link to *host*, dialled when there is none or it was
        retired; nobody reads it until a call or a wait needs it."""
        link = self._links.get(host)
        if link is not None and not link.retired:
            return link
        with self._links_lock:
            link = self._links.get(host)
            if link is not None and not link.retired:
                return link
            if self._closed or not self._running.is_set():
                raise ShutdownError("server stopping; no peer link")
            address = self.address_book.get(host)
            if address is None:
                raise RoutingError(f"no address known for host {host!r}")
            self._stats.bump("peer_dials")
            conn = self.transport.connect(address)
            link = self._links[host] = PeerLink(host, conn, self.host, self._cache)
        return link

    def _reset(self, link: PeerLink) -> None:
        """Retire *link*, found stale: its calls fail as on a lost link, so
        each runs once more on a fresh dial, and its relayed waits are
        sent again the same way — none of it evidence against the peer."""
        reason = f"shutdown: link to {link.host} was stale"
        for session, entry in link.retire(ConnectionClosedError(reason)):
            session.relay_ended(entry, reason, stale=True)

    def fail_calls_to(self, host: str) -> None:
        """*host* was declared dead: every call on its link that may run
        again elsewhere fails now, and the chain walk moves on."""
        link = self._links.get(host)
        if link is not None:
            link.fail_calls(CommunicationError(f"{host} is suspected down"))

    def relay_wait(
        self, session, entry: ParkedWaiter, reg, target: str, trail: tuple[str, ...]
    ) -> None:
        """Send *entry*'s wait on toward *target*, to park in its table:
        the continuation goes to the data in a correlated
        :class:`ForwardEnvelope` on the link to the next hop, relayed hop
        by hop as any forward is.  The owner's first answer is read as a
        call's reply is (:meth:`PeerLink.relay`); no thread waits on a
        parked wait.  Raises only before the wait is on a link (no route,
        no dial, this server stopping); after that its fate is the link's.
        """
        next_hop = reg.routing.next_hop(self.host, target)
        entry.target, entry.trail = target, trail
        for _attempt in range(2):  # a link retired under us: one fresh dial
            link = self._link(next_hop)
            slot = link.park(session, entry)
            if slot is not None:
                break
        else:
            raise ConnectionClosedError(f"link to {next_hop} was lost as it opened")
        self._stats.bump("forwards_out")
        wait = GetWaitRequest(
            folder=entry.folder, mode=entry.mode, waiter=slot.first, origin=entry.origin
        )
        link.relay(self._envelope(reg, target, encode_message(wait), trail), slot)

    def retire_links(self) -> None:
        """At shutdown: fail every call on a link, and end every relayed
        wait as a store's own end does — with a ``shutdown:`` reason, so
        their clients re-subscribe at the next incarnation.  No link is
        dialled after this."""
        with self._links_lock:
            self._closed = True
            links = list(self._links.values())
        stopping = ConnectionClosedError("server stopping")
        for link in links:
            for session, entry in link.retire(stopping):
                session.complete_waiter(
                    entry, None, "shutdown: server stopping; relayed wait ended"
                )

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
