"""The router: which host serves a folder, and how a request gets there.

"Each memo server ... routes each request to the folder server that owns
the named folder" along "the cost-weighted shortest path" (paper sections
4.1 and 5): owned here, a request goes to the replicator's store; owned
elsewhere, it travels as a member of an
:class:`~repro.network.protocol.Envelope` to the *next hop* on the
application's topology, every hop relaying the reply back.  No
broadcasting, ever.  Whatever leaves for another server — a forward, a
relayed hop, a replica copy, a burst — leaves by :meth:`Router.send`, and
a relayed wait by :meth:`Router.relay_wait`.  With
``replication_factor > 1`` a folder's placement is an ordered *replica
chain* and "the owner" is its first reachable member: :meth:`Router.walk`
is the one place that rule is written, and requests, parked waits and
``get_alt`` rounds all go through it.

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
from repro.network.connection import Address, Transport
from repro.network.protocol import (
    Envelope,
    GetAltSkipRequest,
    GetWaitRequest,
    Heartbeat,
    Reply,
    shutting_down,
)
from repro.replication.failure import FailureDetector
from repro.servers.hashing import PlacementCache
from repro.servers.link import ParkedWaiter, PeerLink
from repro.servers.threadcache import ThreadCache, attempt, later, wait_for
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

    def admit(self, envelope: Envelope) -> None:
        """Count an inbound envelope; refuse one that already crossed here."""
        self._stats.bump("forwards_in")
        if self.host in envelope.trail:
            raise RoutingError(
                f"routing loop: {self.host} already in trail {envelope.trail}"
            )

    def chained_here(self, folder: FolderName, chain: tuple, what: str) -> tuple:
        """This host's ``(sid, host)`` entry in *chain*.

        A peer aimed *what* (a forward, a relayed wait, a replica copy)
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
    #
    # Nothing here waits on a peer: ``done(reply)`` takes the Reply, or the
    # exception that ended the request, from whichever thread reads it.  A
    # fail-over or a stale link's retry, which sends again, runs on a worker.

    def walk(self, reg, chain, candidates, folder, here, there, msg, done, failed=()):
        """Serve *msg* at the first reachable member of *candidates*.

        ``here(reg, chain, sid, msg, done)`` serves on this host (it
        returns its reply, or None once it handed ``done`` on);
        ``there(reg, host, msg, then)`` sends to another member.  With ``replication_factor=1`` the chain is exactly the
        single owner and this is the seed code path: local dispatch or
        one forward, errors propagated unchanged.  With a longer chain a
        member that cannot be reached — or that answers mid-teardown, its
        data being on the next member — is marked dead and the next
        candidate tried; when none is left the collected *failed* members
        end the walk as :class:`HostDownError`.
        """
        if not candidates:
            raise HostDownError(
                f"no reachable replica for {folder} "
                f"(chain {[h for _s, h in chain]}): " + "; ".join(failed)
            )
        (sid, host), rest = candidates[0], candidates[1:]
        if host == self.host:
            reply = here(reg, chain, sid, msg, done)
            if reply is not None:
                done(reply)
            return

        def answered(reply) -> None:
            if isinstance(reply, CommunicationError) and len(chain) > 1:
                failure = str(reply)
            elif type(reply) is Reply and rest and shutting_down(reply.error):
                failure = reply.error
            else:
                done(reply)
                return
            self.suspect(host)
            failures = failed + (f"{host}: {failure}",)
            later(self._cache, lambda then: self.walk(
                reg, chain, rest, folder, here, there, msg, then, failures
            ), done)

        try:
            there(reg, host, msg, answered)
        except CommunicationError as exc:
            answered(exc)

    def serve(self, msg, here, done, envelope: Envelope | None = None) -> None:
        """A put / put-delayed / get_skip, straight from a client or aimed
        here in a peer's *envelope*."""
        self.route(msg.folder, msg, here, done, envelope)

    def route(self, folder: FolderName, msg, here, done, envelope=None) -> None:
        """Serve *msg* at the first reachable member of *folder*'s chain —
        by ``here(reg, chain, sid, msg, done)`` when that is this host."""
        reg, chain, candidates = self.candidates(folder)
        if envelope is not None:
            candidates = [self.chained_here(folder, chain, "the envelope")]
        self.walk(reg, chain, candidates, folder, here, self.forward, msg, done)

    # -- forwarding -------------------------------------------------------------------

    def forward(self, reg, owner_host: str, msg, then) -> None:
        """Send *msg* to *owner_host*; ``then`` takes its reply."""
        self._stats.bump("forwards_out")
        self.send_one(reg, owner_host, msg, then)

    def relay(self, envelope: Envelope, msg, done) -> None:
        """Pass *msg*, a member of an *envelope* aimed elsewhere, on along
        the app's topology."""
        self._stats.bump("forwards_relayed")
        reg = self.registration(envelope.app)
        self.send_one(reg, envelope.target_host, msg, done, envelope.trail)

    def send_one(self, reg, target: str, msg, then, trail: tuple = ()) -> None:
        """:meth:`send` *msg* alone: ``then`` takes its reply, or the
        CommunicationError that cut the exchange short."""
        self.send(reg, target, [(msg, None)], trail, lambda results, error: then(
            results[0] if error is None else CommunicationError(
                f"call to {target} failed: {error}")
        ))

    def send(self, reg, target: str, entries: list, trail: tuple, then) -> None:
        """The one way requests leave for another server: *entries*
        (``(message, raw_frame_or_None)`` pairs, see
        :meth:`PeerLink.forward`) ride one :class:`Envelope` to *target*,
        on the link to the next hop toward it, this host stamped on
        *trail*.  ``then(results, error)`` runs once it is over: one reply
        per entry, None where none came, and what cut the exchange short.
        A stale link's retry (:meth:`_on_link`) resends only what the
        first attempt left unresolved or a dying incarnation answered
        mid-teardown.  A dial that fails raises.
        """
        next_hop = reg.routing.next_hop(self.host, target)
        trail = trail + (self.host,)
        results: list = [None] * len(entries)

        def attempt(link: PeerLink, answered) -> None:
            pending = [i for i, r in enumerate(results) if r is None or _torn(r)]

            def got(replies: list, error) -> None:
                for i, reply in zip(pending, replies):
                    results[i] = reply
                answered(replies, error)

            members = [entries[i] for i in pending]
            link.forward(reg.app, target, members, trail, got)

        self._on_link(
            next_hop, attempt, lambda _got, error: then(results, error), next_hop != target
        )

    def forward_target(self, msg) -> str | None:
        """The remote chain head a pipelined put can burst-forward to, at
        any replication factor: its folder's first live candidate, another
        host on a direct link.  The head serves the burst as one lane round
        and copies it on (one burst per chain member) before any ack leaves.

        None means the put must take the full :meth:`route` path: a head
        here, a multi-hop topology (a relay hop passes each member on in an
        envelope of its own, which could reorder same-folder puts), or a
        missing registration/address (let the slow path produce its usual error).
        """
        try:
            reg, _chain, candidates = self.candidates(msg.folder)
            host = candidates[0][1]
            if host == self.host or reg.routing.next_hop(self.host, host) != host:
                return None
        except MemoError:
            # Unknown app, unroutable host, bad topology... — whatever it
            # is, the audited slow path knows how to turn it into the
            # right error reply; the fast path only answers "yes, a live
            # remote chain head, directly linked".
            return None
        return host if host in self.address_book else None

    def forward_burst(self, app: str, owner_host: str, entries: list, then) -> None:
        """:meth:`send` a run of lane requests to *owner_host* at once.

        A client's puts, the puts an anti-entropy pull returns, a lane
        round's replica copies: the owner applies them in order, so only
        a direct link carries a burst.  ``then`` takes one result per
        entry: the owner's :class:`Reply`, or None where none came (or no
        direct link), for the caller's per-request path.
        """
        try:
            reg = self.registration(app)
            linked = reg.routing.next_hop(self.host, owner_host)
        except MemoError:
            linked = None
        if linked != owner_host or owner_host not in self.address_book:
            then([None] * len(entries))
            return
        try:
            self.send(reg, owner_host, entries, (), lambda results, _error: then(results))
        except (CommunicationError, ShutdownError):
            then([None] * len(entries))  # the caller's to re-route

    # -- the links ------------------------------------------------------------------

    def call(self, host: str, message: object) -> Reply:
        """One request to *host* on its link, not enveloped (a pull), within
        the message's deadline (:data:`~repro.servers.link.DEADLINES`); for
        a caller that reads nothing, as it waits."""
        send = lambda link, answered: link.call(message, answered)  # noqa: E731
        results, error = wait_for(self._on_link, host, send)
        if error is not None:
            raise CommunicationError(f"call to {host} failed: {error}") from error
        return results[0]

    def _on_link(self, host: str, send, then, beyond: bool = False, retried=False):
        """``send(link, answered)`` on the link to *host*; ``then(results,
        error)`` takes what ``answered`` got.

        The stale rule: a link that had answered can be dead (its peer
        restarted since) or reach a dying incarnation answering
        mid-teardown.  A loss or a mid-teardown reply on it resets it
        (:meth:`_reset`), and *send* runs once more on a fresh dial — as
        does every other call on it; but a reply relayed from *beyond*
        *host* was the next hop's to judge.  A missed deadline is a
        failed probe of *host*.
        """
        link = self._link(host)
        reused = link.answered

        def answered(results: list, error) -> None:
            if isinstance(error, TimeoutError):
                self._failure.record_failure(host)
            stale = type(error) is ConnectionClosedError or (
                error is None and not beyond and any(map(_torn, results))
            )
            if retried or not reused or not stale:
                then(results, error)
            else:
                later(self._cache, self._retry, link, send, beyond, then)

        send(link, answered)

    def _retry(self, link: PeerLink, send, beyond: bool, then) -> None:
        """Reset the stale *link*, and ``send`` once more on a fresh dial."""
        self._reset(link)
        try:
            self._on_link(link.host, send, then, beyond, retried=True)
        except Exception as exc:  # noqa: BLE001 - the dial failed: the answer
            then([], exc)

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
        the continuation goes to the data as the one member of an
        :class:`Envelope` on the link to the next hop, relayed hop by hop
        as any forward is.  The owner's first answer is read as a
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
        link.relay(reg.app, target, wait, trail + (self.host,), slot)

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

    def get_alt(self, msg: GetAltSkipRequest, here, done, envelope=None) -> None:
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
            self.route(msg.folders[0], msg, here, done, envelope)
            return
        groups: dict[tuple, tuple] = {}
        for folder in msg.folders:
            reg, chain, candidates = self.candidates(folder)
            groups.setdefault(tuple(candidates), (reg, chain, []))[2].append(folder)
        self._alt_round(list(groups.items()), here, msg.origin, [], done)

    def _alt_round(self, groups: list, here, origin: str, unreachable: list, done):
        """Walk the first of *groups*, and the rest after it unless it hit."""
        if not groups:
            none = Reply(ok=True, found=False)
            done(HostDownError("; ".join(unreachable)) if unreachable else none)
            return
        (candidates, (reg, chain, folders)), rest = groups[0], groups[1:]

        def answered(reply) -> None:
            if isinstance(reply, HostDownError):
                unreachable.append(str(reply))
            elif isinstance(reply, Exception) or reply.found or not reply.ok:
                done(reply)
                return
            attempt(self._alt_round, rest, here, origin, unreachable, done)

        sub = GetAltSkipRequest(folders=tuple(folders), origin=origin)
        self.walk(reg, chain, list(candidates), folders[0], here, self.forward, sub, answered)
