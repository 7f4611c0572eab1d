"""Cost-weighted folder-name hashing (paper sections 4.1 and 5).

"As an application attempts to deposit/retrieve memos to/from a given
folder, that folder name is hashed to a folder server on a particular
machine. ... When hashing the folder name to a particular server, the costs
associated with the machines' processor(s) speed and communication links
are considered."

Two requirements shape the implementation:

1. **Consistency without coordination** — every host must map a folder name
   to the *same* owning server, because a folder is owned exclusively
   (section 4.1).  So the hash may only depend on globally agreed inputs:
   the folder name, the server list, host costs, and the topology — all of
   which come from the application's ADF.
2. **Proportional distribution** — "the system will result in hashing the
   appropriate percentage of memos to each server" (section 5), the
   percentage being the host's share of processing power, discounted by how
   expensive the host is to reach ("machine localities").

Weighted rendezvous (highest-random-weight) hashing provides exactly this:
each server *s* gets score ``-w_s / ln(u_s)`` where ``u_s`` is a uniform
hash of (folder name, server id); the argmax wins.  The probability that
*s* wins is ``w_s / Σw`` — the proportional-share property the paper
claims — and the mapping is a pure function of shared data.
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import dataclass

from repro.core.keys import FolderName
from repro.errors import ServerError
from repro.network.routing import RoutingTable

__all__ = [
    "weighted_rendezvous",
    "weighted_rendezvous_ranked",
    "HashWeightPolicy",
    "FolderPlacement",
    "PlacementCache",
]

_HASH_DENOM = float(1 << 64)


def _unit_hash(key: bytes, salt: bytes) -> float:
    """Uniform (0, 1) hash of key+salt, identical on every platform."""
    digest = hashlib.sha256(key + b"\x00" + salt).digest()
    # Use the top 64 bits; add 1 to avoid exactly 0 (log(0) below).
    x = int.from_bytes(digest[:8], "big") + 1
    return x / (_HASH_DENOM + 2.0)


def weighted_rendezvous_ranked(key: bytes, weights: dict[str, float]) -> list[str]:
    """All server ids for *key*, ordered by descending rendezvous score.

    The first entry is exactly :func:`weighted_rendezvous`'s winner; the
    rest form the natural fail-over order: removing the winner from the
    weight set promotes the runner-up, which is what makes the ranking a
    consistent replica chain — every host computes the same chain from the
    same shared inputs, with no coordination.
    """
    if not weights:
        raise ServerError("weighted_rendezvous requires at least one server")
    scored: list[tuple[float, str]] = []
    for sid in sorted(weights):
        w = weights[sid]
        if w <= 0:
            raise ServerError(f"server {sid!r} has non-positive weight {w}")
        u = _unit_hash(key, sid.encode("utf-8"))
        scored.append((-w / math.log(u), sid))
    # Descending score; ties (impossible with a 256-bit hash, but kept
    # deterministic) break toward the lexically smaller id, matching the
    # strict-greater scan the top-1 function historically used.
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [sid for _score, sid in scored]


def weighted_rendezvous(key: bytes, weights: dict[str, float]) -> str:
    """Pick the winning server id for *key* under rendezvous weights.

    Kept as a single allocation-free scan rather than
    ``weighted_rendezvous_ranked(...)[0]`` — this is the per-request hot
    path for the default single-owner configuration, and the strict-``>``
    over ascending ids gives the identical tie-break as the ranking's
    ``(-score, sid)`` sort.

    Args:
        key: canonical folder-name bytes.
        weights: server id → positive weight.

    Returns:
        The server id with the highest score; ties are impossible in
        practice (256-bit hash) but broken deterministically by id.
    """
    if not weights:
        raise ServerError("weighted_rendezvous requires at least one server")
    best_id: str | None = None
    best_score = -math.inf
    for sid in sorted(weights):
        w = weights[sid]
        if w <= 0:
            raise ServerError(f"server {sid!r} has non-positive weight {w}")
        u = _unit_hash(key, sid.encode("utf-8"))
        score = -w / math.log(u)
        if score > best_score:
            best_score = score
            best_id = sid
    assert best_id is not None
    return best_id


@dataclass(frozen=True)
class HashWeightPolicy:
    """Which cost signals feed the hash weights (ablation knobs).

    Attributes:
        use_processor_cost: weight servers by their host's effective
            processing power (``#procs / cost`` — the ADF's SP-1 example
            gives each SP-1 processor cost ``sun4*0.5``, i.e. twice the
            power per processor unit of money).
        use_link_cost: discount hosts by mean path cost from the rest of
            the network (section 5's "distances (machine localities)").
        link_cost_bias: strength of the locality discount; weight is
            divided by ``1 + bias * mean_path_cost``.
    """

    use_processor_cost: bool = True
    use_link_cost: bool = True
    link_cost_bias: float = 1.0

    def uniform(self) -> "HashWeightPolicy":
        """The no-control baseline: "an even distribution would be seen"."""
        return HashWeightPolicy(use_processor_cost=False, use_link_cost=False)


class FolderPlacement:
    """Maps folder names to owning folder servers for one application.

    Args:
        folder_servers: ``(server_id, host)`` pairs from the ADF FOLDERS
            section.  Several servers may share a host; they split the
            host's weight equally, so adding servers to a host spreads its
            load across more queues without changing the host's share.
        host_power: host → effective processing power (``#procs / cost``).
        routing: the application's routing table (for the locality
            discount); optional when the policy disables link costs.
        policy: which signals to use.
        replication_factor: how many *distinct hosts* should hold each
            folder (primary first).  1 — the default — reproduces the
            paper's single-owner placement exactly; K > 1 extends each
            folder's rendezvous ranking into an ordered replica chain.
    """

    def __init__(
        self,
        folder_servers: list[tuple[str, str]],
        host_power: dict[str, float],
        routing: RoutingTable | None = None,
        policy: HashWeightPolicy | None = None,
        replication_factor: int = 1,
    ) -> None:
        if not folder_servers:
            raise ServerError("an application needs at least one folder server")
        if replication_factor < 1:
            raise ServerError(
                f"replication_factor must be >= 1, got {replication_factor}"
            )
        self.policy = policy or HashWeightPolicy()
        self.replication_factor = replication_factor
        self.servers: dict[str, str] = {}
        for sid, host in folder_servers:
            if sid in self.servers:
                raise ServerError(f"duplicate folder server id {sid!r}")
            self.servers[sid] = host
        self._weights = self._compute_weights(host_power, routing)
        # Placement is a pure function of the construction inputs, so a
        # per-instance memo never goes stale: re-registration replaces the
        # whole FolderPlacement.  Entries cost K salted SHA-256 hashes each
        # to compute, so steady-state routing becomes one dict hit.  Plain
        # dicts are safe here: get/set are atomic under the GIL and a racing
        # duplicate compute returns the identical value.
        self._place_cache: dict[bytes, str] = {}
        self._chain_cache: dict[bytes, tuple[tuple[str, str], ...]] = {}

    #: Memo-cache entry bound; folders beyond this keep working, they just
    #: rehash (one app addressing >64k distinct folders at once is a scan,
    #: not a working set).
    _CACHE_MAX = 65536

    def _compute_weights(
        self,
        host_power: dict[str, float],
        routing: RoutingTable | None,
    ) -> dict[str, float]:
        per_host_count: dict[str, int] = {}
        for host in self.servers.values():
            per_host_count[host] = per_host_count.get(host, 0) + 1

        weights: dict[str, float] = {}
        for sid, host in self.servers.items():
            w = 1.0
            if self.policy.use_processor_cost:
                power = host_power.get(host)
                if power is None or power <= 0:
                    raise ServerError(
                        f"host {host!r} has no positive power in the ADF"
                    )
                w *= power
            if self.policy.use_link_cost:
                if routing is None:
                    raise ServerError(
                        "link-cost policy requires a routing table"
                    )
                w /= 1.0 + self.policy.link_cost_bias * routing.mean_cost_from_all(host)
            w /= per_host_count[host]
            weights[sid] = w
        return weights

    @property
    def weights(self) -> dict[str, float]:
        """The effective rendezvous weight of each server (copy)."""
        return dict(self._weights)

    def expected_shares(self) -> dict[str, float]:
        """Expected fraction of folders each server should own."""
        total = sum(self._weights.values())
        return {sid: w / total for sid, w in self._weights.items()}

    def place(self, folder: FolderName) -> str:
        """The server id owning *folder* — identical on every host."""
        key = folder.canonical()
        sid = self._place_cache.get(key)
        if sid is None:
            sid = weighted_rendezvous(key, self._weights)
            if len(self._place_cache) >= self._CACHE_MAX:
                self._place_cache.clear()
            self._place_cache[key] = sid
        return sid

    def host_of(self, server_id: str) -> str:
        """Which host a folder server lives on."""
        try:
            return self.servers[server_id]
        except KeyError:
            raise ServerError(f"unknown folder server {server_id!r}") from None

    def place_host(self, folder: FolderName) -> tuple[str, str]:
        """Convenience: ``(server_id, host)`` owning *folder*."""
        sid = self.place(folder)
        return sid, self.servers[sid]

    def replica_chain(self, folder: FolderName) -> tuple[tuple[str, str], ...]:
        """The ordered ``(server_id, host)`` replica set for *folder*.

        The chain walks the full rendezvous ranking and keeps the first
        server seen on each *distinct* host, up to the replication factor —
        co-hosted backups would not survive a host loss, so a host appears
        at most once.  Entry 0 is always :meth:`place_host`'s owner; the
        chain is shorter than the factor when the application simply has
        fewer hosts.  Every host derives the identical chain from the
        shared ADF inputs (the same consistency argument as for
        single-owner placement).
        """
        if self.replication_factor == 1:
            # The dominant (default) case: skip the full ranking sort and
            # take the seed system's single-scan winner directly (cached
            # in :meth:`place`).
            return (self.place_host(folder),)
        key = folder.canonical()
        cached = self._chain_cache.get(key)
        if cached is not None:
            return cached
        ranked = weighted_rendezvous_ranked(key, self._weights)
        chain: list[tuple[str, str]] = []
        hosts_taken: set[str] = set()
        for sid in ranked:
            host = self.servers[sid]
            if host in hosts_taken:
                continue
            chain.append((sid, host))
            hosts_taken.add(host)
            if len(chain) >= self.replication_factor:
                break
        result = tuple(chain)
        if len(self._chain_cache) >= self._CACHE_MAX:
            self._chain_cache.clear()
        self._chain_cache[key] = result
        return result


class PlacementCache:
    """Epoch-guarded routing cache keyed by ``(app, folder)``.

    The memo server's steady-state routing decision — the replica chain
    plus its live-candidate filtering — depends on more than the pure
    placement hash: the registration in force and the failure detector's
    current suspicions.  This cache memoizes the whole decision behind a
    single epoch counter; any event that can change routing bumps the
    epoch, instantly invalidating every entry:

    * (re-)registration — new placement inputs;
    * migration — folder contents move to their new owners;
    * a failure-detector transition — a host flipping alive <-> dead
      changes which chain members are candidates.

    The protocol is compute-then-publish: read :meth:`epoch` *before*
    computing the value, then :meth:`put` with that epoch.  A bump that
    races the computation leaves the entry stale-stamped, so :meth:`get`
    rejects it — a late publish can never resurrect pre-bump routing.
    """

    def __init__(self, max_entries: int = 16384) -> None:
        if max_entries < 1:
            raise ServerError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._epoch = 0
        self._entries: dict[object, tuple[int, object]] = {}
        self._lock = threading.Lock()

    @property
    def epoch(self) -> int:
        """The current epoch; capture it before computing a value to cache."""
        return self._epoch

    def bump(self) -> int:
        """Invalidate everything; returns the new epoch."""
        with self._lock:
            self._epoch += 1
            self._entries.clear()
            return self._epoch

    def get(self, key: object) -> object | None:
        """The cached value for *key*, or None when absent or stale."""
        entry = self._entries.get(key)
        if entry is None or entry[0] != self._epoch:
            return None
        return entry[1]

    def put(self, key: object, epoch: int, value: object) -> None:
        """Publish *value* computed at *epoch* (dropped if a bump raced it)."""
        if epoch != self._epoch:
            return
        if len(self._entries) >= self.max_entries:
            with self._lock:
                if len(self._entries) >= self.max_entries:
                    self._entries.clear()
        self._entries[key] = (epoch, value)

    def __len__(self) -> int:
        return len(self._entries)
