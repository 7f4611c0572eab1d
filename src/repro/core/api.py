"""The Memo Language — the application programming interface (section 6.1).

The :class:`Memo` class exposes the paper's primitives verbatim:

* ``create_symbol()`` — mint a unique symbol for building keys;
* ``put(key, value)`` — deposit, control returns immediately;
* ``put_delayed(key1, key2, value)`` — dormant deposit released on arrival;
* ``get(key)`` — consume, blocking;
* ``get_copy(key)`` — examine without consuming, blocking;
* ``get_skip(key)`` — consume or return :data:`NIL` immediately;
* ``get_alt(array_of_keys)`` — consume from any folder, blocking,
  nondeterministic choice;
* ``get_alt_skip(array_of_keys)`` — like ``get_alt`` but immediate.

Values may be any transferable structure: absolute-domain scalars, nested
containers, registered structs, even self-referential graphs — "any data
structure can be entered and extracted intact from the memo space with no
programming effort" (section 6.1.1).

Futures-first: the primitives above are thin blocking wrappers over the
asynchronous core.  ``get_async``/``get_copy_async`` register a
*server-parked* wait (one waiter-table entry, no thread pinned on either
end) and return a :class:`~repro.core.futures.MemoFuture`; ``put_async``
returns a future for the acknowledgement; ``get_alt_async`` returns a
future driven by client-side polling rounds with exponential backoff
(each round one ``get_alt_skip`` the memo server fans out across owning
hosts — consume-one-of-N across hosts has no server-side registration
yet).  ``Memo.get(k)`` is literally ``get_async(k).wait()``, so existing
callers see byte-identical behaviour while fan-in code composes futures
with :func:`~repro.core.futures.wait_any` /
:func:`~repro.core.futures.as_completed`.
"""

from __future__ import annotations

import random
import threading
import time
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.futures import MemoFuture
from repro.core.keys import FolderName, Key, Symbol, SymbolFactory
from repro.errors import MemoError
from repro.network.codec import _FOLDER_INTERN_CAP
from repro.network.protocol import (
    GetAltSkipRequest,
    GetRequest,
    PutDelayedRequest,
    PutRequest,
)
from repro.transferable.registry import TransferableRegistry
from repro.transferable.wire import decode, encode

if TYPE_CHECKING:  # import cycle: runtime.client builds on network only,
    # but the runtime package's __init__ pulls in the cluster, which needs
    # this module — so the name is for type checkers only.
    from repro.runtime.client import MemoClient

__all__ = ["Memo", "NIL", "Nil"]


class Nil:
    """The NIL sentinel returned by ``get_skip`` when a folder is empty.

    Distinct from ``None`` so that applications can legitimately store
    ``None`` inside memos.  Falsy, singleton, and repr-friendly.
    """

    _instance: "Nil | None" = None

    def __new__(cls) -> "Nil":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "NIL"


#: The singleton NIL value.
NIL = Nil()

#: get_alt polling backoff parameters (seconds).
_ALT_BACKOFF_START = 0.0005
_ALT_BACKOFF_MAX = 0.02

#: Consecutive failed get_alt polls ridden through before giving up — any
#: ``MemoError`` counts, as in the MDC actors' loop: a fault window shows
#: as several different errors (a dying host's reply, a dial to its dead
#: address, a reborn host not yet re-registered).  ~4 s at the backoff
#: ceiling, generously above the failure detector's flip time and a
#: host's restart, so a kill mid-wait completes from a surviving replica
#: or the next incarnation instead of surfacing the victim's last gasp.
_ALT_TRANSIENT_MAX = 200


class Memo:
    """The D-Memo API bound to one application process.

    Args:
        client: connection to the process's local memo server.
        app: application name (the folder-namespace prefix, section 4.3).
        process_name: this process's name; scopes generated symbols and
            tags deposited memos for diagnostics.
        strict_domains: when True, bare ints/floats are rejected in values —
            the full heterogeneous discipline of section 3.1.3.
        registry: transferable struct registry (defaults to the global one).
    """

    def __init__(
        self,
        client: "MemoClient",
        app: str,
        process_name: str = "proc",
        *,
        strict_domains: bool = False,
        registry: TransferableRegistry | None = None,
    ) -> None:
        if not app:
            raise MemoError("application name must be non-empty")
        self.client = client
        self.app = app
        self.process_name = process_name
        self.strict_domains = strict_domains
        self.registry = registry
        self._symbols = SymbolFactory(scope=f"{app}.{process_name}")
        self._rng = random.Random()
        #: The folder name built for each key this process named, so a
        #: name is built and hashed once and the codec's folder table
        #: finds it by identity; cleared when full, like that table.  Two
        #: threads racing on a key at worst build its name twice.
        self._folders: dict[Key | Symbol, FolderName] = {}

    # -- keys ------------------------------------------------------------------

    def create_symbol(self, hint: str = "sym") -> Symbol:
        """Mint a symbol unique to this process (section 6.1.1)."""
        return self._symbols.create(hint)

    def _folder(self, key: Key | Symbol) -> FolderName:
        try:
            return self._folders[key]
        except (KeyError, TypeError):  # TypeError: not hashable, so no key
            pass
        if isinstance(key, Symbol):
            folder = FolderName(self.app, Key(key))
        elif isinstance(key, Key):
            folder = FolderName(self.app, key)
        else:
            raise MemoError(f"expected Key or Symbol, got {type(key).__qualname__}")
        if len(self._folders) >= _FOLDER_INTERN_CAP:
            self._folders.clear()
        self._folders[key] = folder
        return folder

    def _encode(self, value: object) -> bytes:
        return encode(value, registry=self.registry, strict_domains=self.strict_domains)

    def _decode(self, payload: bytes) -> object:
        return decode(payload, registry=self.registry)

    # -- basic functions (section 6.1.2) -----------------------------------------

    def put(self, key: Key | Symbol, value: object, *, wait: bool = False) -> None:
        """Put *value* in the folder labeled *key*; returns immediately.

        With ``wait=True`` the call blocks until the deposit is
        acknowledged by the owning folder server (useful in tests) — a
        delegating wrapper over :meth:`put_async`.
        """
        if wait:
            self._put_future(key, value, drain=True).wait()
        else:
            self.client.post(
                PutRequest(
                    folder=self._folder(key),
                    payload=self._encode(value),
                    origin=self.process_name,
                )
            )

    def put_async(self, key: Key | Symbol, value: object) -> MemoFuture:
        """Deposit *value* and return a future for the acknowledgement.

        The future resolves to None once the owning folder server (and,
        under replication, every live backup) accepted the deposit, and
        fails with :class:`MemoError` carrying the server's error text
        otherwise.  Unlike the fire-and-forget :meth:`put`, the ack is
        individually addressable — compose many with
        :func:`~repro.core.futures.as_completed` instead of a final
        :meth:`flush`.
        """
        return self._put_future(key, value, drain=False)

    def _put_future(self, key: Key | Symbol, value: object, drain: bool) -> MemoFuture:
        return self.client.put_future(
            PutRequest(
                folder=self._folder(key),
                payload=self._encode(value),
                origin=self.process_name,
            ),
            drain=drain,
        )

    def put_many(
        self, items: Iterable[tuple[Key | Symbol, object]]
    ) -> None:
        """Deposit a batch of ``(key, value)`` pairs in one pipelined burst.

        Semantically identical to calling :meth:`put` per pair (control
        returns immediately, acknowledgements are deferred), but the whole
        batch rides one client lock acquisition and is written back-to-back
        over the connection, encoding each memo only as the wire is ready
        for it — the bulk-ingest shape the hot-path bench measures.
        """
        folder, encode_payload, origin = self._folder, self._encode, self.process_name
        self.client.put_many(
            PutRequest(
                folder=folder(key), payload=encode_payload(value), origin=origin
            )
            for key, value in items
        )

    def put_delayed(
        self,
        key1: Key | Symbol,
        key2: Key | Symbol,
        value: object,
        *,
        wait: bool = False,
    ) -> None:
        """Park *value* on *key1*; it moves to *key2* when a memo arrives
        in *key1* (the dataflow trigger, sections 6.1.2 and 6.3.3)."""
        msg = PutDelayedRequest(
            folder=self._folder(key1),
            release_to=self._folder(key2),
            payload=self._encode(value),
            origin=self.process_name,
        )
        if wait:
            self.client.put_future(msg, drain=True).wait()
        else:
            self.client.post(msg)

    def get(self, key: Key | Symbol) -> object:
        """Consume a memo from *key*'s folder; blocks while empty.

        A delegating wrapper: ``get_async(key).wait()``.
        """
        return self.get_async(key).wait()

    def get_copy(self, key: Key | Symbol) -> object:
        """Return a copy of a memo without consuming it; blocks while empty.

        A delegating wrapper: ``get_copy_async(key).wait()``.
        """
        return self.get_copy_async(key).wait()

    def get_async(self, key: Key | Symbol) -> MemoFuture:
        """Register a consume-wait on *key*; returns its future.

        Non-blocking is the primitive: when the folder already holds a
        memo the future resolves on the request's own round trip, and
        when it is empty the wait *parks* server-side — one waiter-table
        entry, no thread held anywhere — resolving through a push frame
        the moment a deposit lands.  The future survives folder
        migration, server restarts, and fail-over by transparent
        re-subscription; :meth:`~repro.core.futures.MemoFuture.cancel`
        withdraws it without risking the memo.
        """
        return self._get_future(key, "get", self._decode)

    def get_copy_async(self, key: Key | Symbol) -> MemoFuture:
        """Like :meth:`get_async` but examining: the memo is not consumed."""
        return self._get_future(key, "copy", self._decode)

    def _get_future(self, key: Key | Symbol, mode: str, transform) -> MemoFuture:
        """A wait future with a caller-supplied result transform.

        For layers (e.g. the sync mechanisms) whose futures resolve to
        something other than the decoded memo.  The transform must be
        installed at creation — a pump on another thread may complete
        the future the instant the request is on the wire.
        """
        return self.client.get_wait(self._folder(key), mode=mode, transform=transform)

    def get_skip(self, key: Key | Symbol) -> object:
        """Consume a memo when available; :data:`NIL` immediately otherwise."""
        reply = self._check(
            self.client.request(GetRequest(self._folder(key), mode="skip"))
        )
        if not reply.found:
            return NIL
        return self._decode(reply.payload)

    def get_alt(
        self,
        array_of_keys: Sequence[Key | Symbol],
        timeout: float | None = None,
    ) -> tuple[Key, object]:
        """Consume from any one of several folders; blocks until a hit.

        Returns ``(key, value)`` identifying which folder was chosen.  When
        several folders hold memos the choice is nondeterministic (the poll
        order is randomized each round).  A delegating wrapper:
        ``get_alt_async(keys).wait(timeout)``.
        """
        return self.get_alt_async(array_of_keys).wait(timeout)  # type: ignore[return-value]

    def get_alt_async(
        self, array_of_keys: Sequence[Key | Symbol]
    ) -> MemoFuture:
        """A future for consuming from any one of several folders.

        Resolves to ``(key, value)``.  Unlike single-folder waits this is
        *client-driven*: each drive round runs one ``get_alt_skip`` poll
        (randomized order, exponential backoff between rounds), because a
        consume-one-of-N across hosts cannot be parked on any single
        folder server without inventing cross-host claim coordination.
        One probe round runs inline here, so a future over non-empty
        folders is typically already resolved when it returns.
        Cancellation is purely local; a poll that wins a memo against a
        concurrent cancel re-deposits it, never drops it.  A failed round
        is a miss: the future fails only after :data:`_ALT_TRANSIENT_MAX`
        failed rounds in a row, so it rides out a fail-over or a restart
        of its own host — and an error that will not heal, such as an
        unregistered application, fails it after that budget (about 4 s),
        not at once.
        """
        folders = [self._folder(k) for k in array_of_keys]
        if not folders:
            raise MemoError("get_alt requires at least one key")
        state = {"backoff": _ALT_BACKOFF_START, "transients": 0}
        poll_gate = threading.Lock()

        def poll(slice_s: float) -> None:
            # One round per driving thread at a time: two concurrent
            # polls for the same future could each consume a memo, and
            # only one result slot exists.
            if future.done():
                return
            with poll_gate:
                if future.done():
                    return
                try:
                    hit = self.get_alt_skip(array_of_keys)
                except MemoError:
                    # A round that lands in a fault window (the victim's
                    # dying reply, a folder mid-migration, a dial to a
                    # restarting host) is a miss, not a verdict: the next
                    # rounds route to a surviving replica or reach the
                    # next incarnation.  Only the budget tells a window
                    # from an error that will not heal.
                    state["transients"] += 1
                    if state["transients"] > _ALT_TRANSIENT_MAX:
                        raise
                    hit = NIL
                else:
                    state["transients"] = 0
                if hit is not NIL:
                    if not future._complete(hit):
                        # A cancel won while this round was in flight;
                        # the extracted memo goes back.
                        k, v = hit  # type: ignore[misc]
                        self.put(k, v)
                    return
            time.sleep(min(state["backoff"], max(slice_s, _ALT_BACKOFF_START)))
            state["backoff"] = min(state["backoff"] * 2, _ALT_BACKOFF_MAX)

        future = MemoFuture(step=poll, cancel_impl=lambda: True)
        try:
            poll(0.0)
        except MemoError as exc:
            # The async contract is uniform: errors travel through the
            # future whichever round they strike, the inline first round
            # included (the blocking wrapper re-raises them from wait()).
            future._fail(exc)
        return future

    def get_alt_skip(
        self, array_of_keys: Sequence[Key | Symbol]
    ) -> tuple[Key, object] | Nil:
        """Like ``get_alt`` but returns :data:`NIL` when all are empty."""
        folders = [self._folder(k) for k in array_of_keys]
        if not folders:
            raise MemoError("get_alt requires at least one key")
        self._rng.shuffle(folders)
        reply = self._check(
            self.client.request(
                GetAltSkipRequest(folders=tuple(folders), origin=self.process_name)
            )
        )
        if not reply.found:
            return NIL
        assert reply.folder is not None
        return reply.folder.key, self._decode(reply.payload)

    # -- housekeeping ------------------------------------------------------------

    def flush(self) -> None:
        """Block until every asynchronous put has been acknowledged."""
        self.client.flush()

    def close(self) -> None:
        """Flush pending acknowledgements, then close the client.

        The flush-first ordering is the contract: deferred ``put``/
        ``put_many`` acknowledgements are collected (and any failure
        raised) before the connection drops, so a context-manager exit
        can never silently abandon an asynchronous put.  The client is
        closed even when the flush raises.
        """
        try:
            self.flush()
        finally:
            self.client.close()

    def __enter__(self) -> "Memo":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @staticmethod
    def _check(reply) -> "Reply":  # type: ignore[name-defined]
        if not reply.ok:
            raise MemoError(reply.error)
        return reply

    # -- iteration helpers (convenience, not in the paper) --------------------------

    def drain(self, key: Key | Symbol) -> Iterable[object]:
        """Yield memos from a folder until it is empty (non-blocking)."""
        while True:
            value = self.get_skip(key)
            if value is NIL:
                return
            yield value
