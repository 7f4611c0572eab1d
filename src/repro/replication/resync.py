"""Anti-entropy resynchronization for rejoining hosts.

When a host crashes, its primary folders are served by backups (which
accept writes into their replica stores) and its own replica copies of
other hosts' folders are gone.  A restarted memo server therefore comes up
empty on both counts; the :class:`Resyncer` closes both gaps with one
:class:`~repro.network.protocol.DeltaSyncPull` to every peer, carrying
what the host already holds (nothing, after a log-less restart; its
recovered LSNs after a WAL replay):

* the peer *returns* the replica-held records whose primary is the
  requester and that the advertised state lacks, as the puts that
  deposited them — migration is just puts, as for
  :class:`~repro.network.protocol.MigrateRequest`, so a resync is a
  migration whose destination happens to be the rejoined host (and the
  primary's ordinary fan-out re-creates the backups as a side effect);
* the peer *re-seeds* the requester's replica store with copies of its own
  primary folders that name the requester as a backup, past the
  requester's replica marks.

Both phases reach the rejoined host as bursts of lane requests, a few
exchanges per peer rather than one per record.

Guarantee: at-least-once.  Every memo acknowledged before the crash is
either on a surviving chain member or already consumed; resync never
drops one, but a falsely-suspected primary (alive, just unreachable) can
yield duplicates once the partition heals.  Unordered-queue semantics make
duplicates benign for the paper's workloads; applications needing
exactly-once layer idempotence keys on top.
"""

from __future__ import annotations

from repro.errors import CommunicationError, ReplicationError
from repro.network.connection import Address, Transport
from repro.network.protocol import DeltaSyncPull, Reply, round_trip

__all__ = ["Resyncer"]


class Resyncer:
    """Pulls missed memos back onto a freshly restarted host.

    Args:
        host: the rejoined host (the puller).
        transport: medium to reach peers over.
        address_book: host → memo-server address (the cluster's shared one).
    """

    def __init__(
        self,
        host: str,
        transport: Transport,
        address_book: dict[str, Address],
    ) -> None:
        self.host = host
        self.transport = transport
        self.address_book = address_book

    def resync(
        self,
        apps: list[str],
        delta_state: tuple[dict[str, int], dict[str, int], dict[str, int]],
        timeout: float = 10.0,
    ) -> dict[str, dict[str, int]]:
        """Run one pull round against every peer for every app.

        *delta_state* is ``(primary_lsns, replica_marks, primary_floors)``
        as produced by ``Replicator.delta_sync_state()``: peers receive
        a :class:`DeltaSyncPull` and ship only what the advertised state
        is missing — the outage delta for a WAL-recovered host,
        everything for one that came back empty.

        Returns per-peer aggregated counters (``returned`` memos routed
        back to this host, ``reseeded`` replica copies pushed to it).

        Raises:
            ReplicationError: a peer explicitly rejected the pull.
            Unreachable peers are skipped — they are down themselves and
            will run their own resync when they return.
        """
        stats: dict[str, dict[str, int]] = {}
        for peer, address in sorted(self.address_book.items()):
            if peer == self.host:
                continue
            totals = {"returned": 0, "reseeded": 0}
            for app in apps:
                reply = self._pull(peer, address, app, timeout, delta_state)
                if reply is None:
                    continue
                if not reply.ok:
                    raise ReplicationError(
                        f"sync pull for {app!r} rejected by {peer}: {reply.error}"
                    )
                totals["returned"] += int(reply.stats.get("returned", 0))
                totals["reseeded"] += int(reply.stats.get("reseeded", 0))
            stats[peer] = totals
        return stats

    def _pull(
        self,
        peer: str,
        address: Address,
        app: str,
        timeout: float,
        delta_state: tuple[dict[str, int], dict[str, int], dict[str, int]],
    ) -> Reply | None:
        msg = DeltaSyncPull(app, self.host, *delta_state)
        try:
            reply = round_trip(self.transport, address, msg, timeout)
        except (CommunicationError, TimeoutError, OSError):
            # The peer is down, died mid-pull or did not answer in time:
            # nothing to pull from it.  Anything else is a bug and raises.
            return None
        if not isinstance(reply, Reply):
            raise ReplicationError(
                f"sync pull to {peer} returned {type(reply).__qualname__}"
            )
        return reply
