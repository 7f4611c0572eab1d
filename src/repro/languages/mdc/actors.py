"""The MDC actor runtime over the Memo API.

Mapping onto D-Memo:

* an actor's **mailbox** is a folder (one key per actor);
* **send** is ``put`` into the target's mailbox — asynchronous, like the
  paper's put;
* **receive** is the actor thread's blocking ``get`` on its own mailbox;
  folders being unordered queues gives exactly the actor model's
  unordered, eventually-delivered message semantics;
* actor **names** are :class:`ActorRef` values, themselves transferable,
  so references travel inside messages across hosts.

Patterns are dictionaries matched by subset: a message (also a dict)
matches when every pattern key is present with an equal value; the special
key ``"type"`` conventionally selects the message kind.  A pattern of
``{}`` matches anything (the catch-all rule).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.api import Memo
from repro.core.keys import Key, Symbol
from repro.errors import MemoError
from repro.transferable.registry import default_registry

__all__ = ["ActorRef", "rule", "Behavior", "Actor", "ActorSystem"]


@dataclass(frozen=True)
class ActorRef:
    """A transferable reference to an actor's mailbox."""

    name: str
    mailbox_symbol: Symbol

    def mailbox_key(self) -> Key:
        return Key(self.mailbox_symbol)


default_registry.register_struct(
    ActorRef, name="mdc.ActorRef", fields=("name", "mailbox_symbol")
)


@dataclass(frozen=True)
class rule:  # noqa: N801 - reads as a keyword in behaviour tables
    """One pattern→handler rule of a behaviour."""

    pattern: dict
    handler: Callable[["Actor", dict], None]


@dataclass
class Behavior:
    """An ordered rule table; first match wins."""

    rules: list[rule] = field(default_factory=list)

    def on(self, pattern: dict):
        """Decorator: ``@behavior.on({"type": "inc"})``."""

        def apply(fn: Callable[["Actor", dict], None]):
            self.rules.append(rule(pattern, fn))
            return fn

        return apply

    def match(self, message: dict) -> rule | None:
        for r in self.rules:
            if _subset_match(r.pattern, message):
                return r
        return None


def _subset_match(pattern: dict, message: dict) -> bool:
    return all(k in message and message[k] == v for k, v in pattern.items())


#: Internal control message that stops an actor's thread.
_STOP = {"type": "__stop__"}


class Actor:
    """A running actor: mailbox folder + behaviour + serving thread.

    ``transient_retries`` bounds how many *consecutive* memo errors
    (fail-over in progress, folder mid-migration, a dying host's last
    reply, a restart in progress) the mailbox loop rides through before
    concluding the cluster is gone and exiting.  The default 0 preserves
    the original behaviour — any error ends the actor — while chaos
    workloads spawn actors with a generous budget so a killed host's
    fail-over window doesn't silently decapitate the actor network.
    """

    def __init__(
        self,
        system: "ActorSystem",
        name: str,
        behavior: Behavior,
        *,
        transient_retries: int = 0,
    ) -> None:
        self.system = system
        self.ref = ActorRef(name, system.memo.create_symbol(f"mbox.{name}"))
        self._memo = system._memo_for(name)  # dedicated connection
        self._behavior = behavior
        self._state: dict = {}
        self._transient_retries = transient_retries
        self._thread = threading.Thread(
            target=self._loop, name=f"mdc-{name}", daemon=True
        )
        self._unmatched = 0

    # -- capabilities available to handlers -------------------------------------

    @property
    def state(self) -> dict:
        """Actor-local mutable state (never shared; actors share nothing)."""
        return self._state

    def send(self, target: ActorRef, message: dict) -> None:
        """Asynchronous send to another actor (over this actor's own
        connection — puts never block, so this is always safe)."""
        if not isinstance(message, dict):
            raise MemoError("MDC messages are dicts")
        self._memo.put(target.mailbox_key(), message)

    def create(self, name: str, behavior: Behavior) -> ActorRef:
        """Create a child actor."""
        return self.system.spawn(name, behavior)

    def become(self, behavior: Behavior) -> None:
        """Replace this actor's behaviour for subsequent messages."""
        self._behavior = behavior

    # -- lifecycle ------------------------------------------------------------------

    #: Mailbox poll backoff bounds (seconds).  Polling — rather than a
    #: blocking ``get`` — keeps each request on the connection short, so
    #: several actors may safely share one Memo client and a shutdown
    #: message can always get through.
    POLL_MIN = 0.0005
    POLL_MAX = 0.01

    def _loop(self) -> None:
        from repro.core.api import NIL

        memo = self._memo
        key = self.ref.mailbox_key()
        backoff = self.POLL_MIN
        transients = 0
        while True:
            try:
                message = memo.get_skip(key)
            except MemoError:
                # Either the cluster shut down (exit) or a fault window is
                # passing under us (ride it out, within budget).  A window
                # shows as several errors — the dying host's last reply, a
                # dial to its dead address, the reborn host answering before
                # it is re-registered — so only the budget tells the two apart.
                transients += 1
                if transients > self._transient_retries:
                    return
                time.sleep(min(0.01 * transients, 0.2))
                continue
            transients = 0
            if message is NIL:
                time.sleep(backoff)
                backoff = min(backoff * 2, self.POLL_MAX)
                continue
            backoff = self.POLL_MIN
            if not isinstance(message, dict):
                self._unmatched += 1
                continue
            if message.get("type") == "__stop__":
                return
            matched = self._behavior.match(message)
            if matched is None:
                self._unmatched += 1
                continue
            matched.handler(self, message)

    def start(self) -> "Actor":
        self._thread.start()
        return self

    def join(self, timeout: float | None = None) -> bool:
        self._thread.join(timeout)
        return not self._thread.is_alive()

    @property
    def unmatched_count(self) -> int:
        """Messages that matched no rule (diagnostics)."""
        return self._unmatched


class ActorSystem:
    """Spawns actors and routes sends through the memo space.

    One system per process; actors created here run on this process's
    host, but their refs are transferable — a message containing an
    ``ActorRef`` lets any process on any host send to the actor, because
    the mailbox folder is globally addressable.

    Actors poll their mailboxes with short non-blocking requests, so they
    can share one Memo client without starving each other; passing a
    *memo_factory* gives each actor its own connection instead — the same
    one-connection-per-process shape as Figure 1 — which improves
    throughput when many actors are busy at once.

    Args:
        memo: the system's own API (symbol minting, external sends), and
            the shared client when no factory is given.
        memo_factory: optional ``name -> Memo`` building a per-actor API.
    """

    def __init__(self, memo: Memo, memo_factory: Callable[[str], Memo] | None = None):
        self.memo = memo
        self._memo_factory = memo_factory
        self._actors: dict[str, Actor] = {}
        self._lock = threading.Lock()

    def _memo_for(self, name: str) -> Memo:
        if self._memo_factory is not None:
            return self._memo_factory(name)
        return self.memo

    def spawn(
        self, name: str, behavior: Behavior, *, transient_retries: int = 0
    ) -> ActorRef:
        """Create and start an actor; returns its reference.

        *transient_retries* > 0 makes the actor survive that many
        consecutive fail-over-shaped errors on its mailbox (see
        :class:`Actor`) — chaos workloads want a generous budget.
        """
        with self._lock:
            if name in self._actors:
                raise MemoError(f"actor {name!r} already exists in this system")
            actor = Actor(self, name, behavior, transient_retries=transient_retries)
            self._actors[name] = actor
        actor.start()
        return actor.ref

    def send(self, target: ActorRef, message: dict) -> None:
        """Deliver *message* to *target*'s mailbox (asynchronous)."""
        if not isinstance(message, dict):
            raise MemoError("MDC messages are dicts")
        self.memo.put(target.mailbox_key(), message)

    def stop(self, target: ActorRef) -> None:
        """Ask an actor to stop after draining earlier messages."""
        self.memo.put(target.mailbox_key(), dict(_STOP))

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop every locally spawned actor and wait for their threads."""
        with self._lock:
            actors = list(self._actors.values())
        for actor in actors:
            self.stop(actor.ref)
        for actor in actors:
            actor.join(timeout)

    def actor(self, name: str) -> Actor:
        """Look up a locally spawned actor (tests/diagnostics)."""
        with self._lock:
            actor = self._actors.get(name)
        if actor is None:
            raise MemoError(f"no local actor named {name!r}")
        return actor
