"""Waiting across hosts: a remote wait parks in the owner's waiter table.

A ``GetWaitRequest`` for a folder another host serves is not waited on
here.  The memo server it arrived at ships the continuation to the host
that owns the data — the wait itself, inside a correlated
:class:`~repro.network.protocol.ForwardEnvelope`, hop by hop along the
application's topology — and the result comes back as a message: the
correlated :class:`~repro.network.protocol.Reply` (a hit, a parked
acknowledgement, an error) and later a
:class:`~repro.network.protocol.MemoReady` or
:class:`~repro.network.protocol.WaitCancelled` push.  No thread is held
on either side while it waits, so the waiter table's O(1)-thread
guarantee does not depend on which host a wait arrives at.

This module holds what such a wait is made of — the table entry
(:class:`ParkedWaiter`) and the link it travels on (:class:`RelayLink`);
where to park, and what to do when a relayed wait ends, is the session's
business (:mod:`repro.servers.session`: its ``_park``, and the three public
names this module calls on it, ``complete_waiter``, ``ack_parked`` and
``relay_ended``).
"""

from __future__ import annotations

import threading
from typing import Iterator

from repro.core.keys import FolderName
from repro.core.memo import MemoRecord
from repro.errors import CommunicationError, ConnectionClosedError, ProtocolError
from repro.network.connection import Connection
from repro.network.protocol import (
    CancelWaitRequest,
    MemoReady,
    Reply,
    WaitCancelled,
    recv_tagged,
    send_message,
)

__all__ = ["ParkedWaiter", "RelayLink"]


class ParkedWaiter:
    """One waiter-table entry: a parked GetWait and where it waits.

    ``home`` holds the wait and ``handle`` names it there: the local
    :class:`~repro.servers.folder_server.FolderServer` and its
    ``AsyncWaiter`` when this host serves the folder, the
    :class:`RelayLink` toward the owner and the relay token when another
    host does.  Both answer ``cancel_waiter(folder, handle)`` and neither
    holds a thread.  A relayed entry also keeps the host it was aimed at
    (``target``) and the hosts it had already crossed when it got here
    (``trail``; empty where the wait started), and ``owed``: the
    correlation id still waiting for the GetWait's reply while the wait
    is relayed (None once it is answered, and for a wait parked here,
    which is answered at once).  Whoever sets it back to None, under the
    session lock, sends that one reply.
    """

    __slots__ = (
        "token",
        "folder",
        "mode",
        "origin",
        "home",
        "handle",
        "target",
        "trail",
        "attempts",
        "owed",
    )

    def __init__(self, token: int, folder: FolderName, mode: str, origin: str) -> None:
        self.token = token
        self.folder = folder
        self.mode = mode
        self.origin = origin
        self.home = None
        self.handle = None
        self.target: str | None = None
        self.trail: tuple[str, ...] = ()
        #: Consecutive re-parks that did not reach a clean park.
        self.attempts = 0
        self.owed: int | None = None


class RelayLink:
    """A memo server's long-lived correlated connection to one next hop.

    Every wait the server relays that way travels on it under a
    server-scoped token (drawn from *ids*, which also numbers the
    cancels), and its one reader — per link, not per wait — hands what
    comes back to the session entry that parked: its ``complete_waiter``
    for a memo, its ``ack_parked`` when the wait parked beyond, its
    ``relay_ended`` for anything else, a lost link included.
    """

    __slots__ = (
        "host",
        "conn",
        "_ids",
        "_origin",
        "_lock",
        "_retired",
        "_waits",
        "_cancels",
    )

    def __init__(
        self, host: str, conn: Connection, ids: Iterator[int], origin: str
    ) -> None:
        self.host = host
        self.conn = conn
        self._ids = ids
        self._origin = origin
        self._lock = threading.Lock()
        self._retired = False
        #: Relay token -> (session, entry) of each wait parked beyond here.
        self._waits: dict[int, tuple] = {}
        #: Correlation id of an unanswered cancel -> the token it withdraws.
        self._cancels: dict[int, int] = {}

    def add(self, token: int, session: object, entry: ParkedWaiter) -> bool:
        """Take charge of *entry* under *token* and become its home; False
        once retired (the caller dials a fresh link).  From here the
        wait's fate is the reader's, whatever happens to the send — the
        caller must not touch the entry again."""
        with self._lock:
            if self._retired:
                return False
            entry.home, entry.handle = self, token
            self._waits[token] = (session, entry)
        return True

    def send(self, message: object, cid: int) -> None:
        try:
            send_message(self.conn, message, corr_id=cid)
        except CommunicationError:
            # A link that cannot send is lost: closing it wakes the
            # reader, which hands every wait it carries back for
            # re-parking.
            self.conn.close()

    def cancel_waiter(self, folder: FolderName, token: int) -> None:
        """Detach the wait parked beyond this link under *token* — what
        :meth:`FolderServer.cancel_waiter` is to a local one.  The entry
        stays until the peer confirms: a push already on the wire must
        still find it, to be re-deposited."""
        cid = next(self._ids)
        with self._lock:
            if token not in self._waits:
                return
            self._cancels[cid] = token
        self.send(CancelWaitRequest(waiter=token, origin=self._origin), cid)

    def serve(self) -> None:
        """The reader: runs until the link is lost or retired."""
        try:
            while True:
                msg, cid = recv_tagged(self.conn)
                if isinstance(msg, MemoReady):
                    self._end(msg.waiter, msg.payload, None)
                elif isinstance(msg, WaitCancelled):
                    self._end(msg.waiter, None, msg.reason)
                elif isinstance(msg, Reply) and cid is not None:
                    self._on_reply(msg, cid)
        except (ConnectionClosedError, ProtocolError):
            pass
        finally:
            for session, entry in self.retire():
                session.relay_ended(
                    entry, f"shutdown: relay link to {self.host} lost"
                )

    def retire(self) -> list[tuple]:
        """Close the link; returns the ``(session, entry)`` pairs it still
        carried, whose fate is now the caller's."""
        with self._lock:
            self._retired = True
            carried = list(self._waits.values())
            self._waits.clear()
        self.conn.close()
        return carried

    def _on_reply(self, reply: Reply, cid: int) -> None:
        with self._lock:
            token = self._cancels.pop(cid, None)
            if token is not None:
                if reply.ok and not reply.found:
                    # Withdrawn at the peer: no push will ever follow.
                    self._waits.pop(token, None)
                return
            parked = self._waits.get(cid)
        if not reply.ok:
            self._end(cid, None, reply.error)
        elif reply.found:
            self._end(cid, reply.payload, None)
        elif parked is not None:
            session, entry = parked
            entry.attempts = 0  # provably reached a home
            session.ack_parked(entry)

    def _end(self, token: int, payload: bytes | None, reason: str | None) -> None:
        with self._lock:
            session, entry = self._waits.pop(token, (None, None))
        if session is None:
            return
        if reason is None:
            record = MemoRecord(payload=payload, origin=entry.origin)
            session.complete_waiter(entry, record, None)
        else:
            session.relay_ended(entry, reason)
