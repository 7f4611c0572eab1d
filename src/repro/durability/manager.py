"""Per-memo-server ownership of the host's durable folder stores."""

from __future__ import annotations

import os
import threading
import urllib.parse
from pathlib import Path

from repro.durability.config import DurabilityConfig
from repro.durability.store import DurableStore

__all__ = ["DurabilityManager"]

_REPLICA_PREFIX = "replica:"

#: Per-store gauges :meth:`DurabilityManager.gauges` adds up.
_SUMMED = ("wal_records", "wal_bytes", "wal_replayed", "snapshots_written", "fsyncs", "fsync_ms")


class DurabilityManager:
    """Owns ``<data_dir>/<host>/`` and hands out one store per folder server.

    Store directories are named by percent-quoting the store id, so
    primary stores live under e.g. ``s0/`` and replica stores under
    ``replica%3As0/`` — reversible, which lets a cold-started server
    rediscover which replica stores it held before the crash.
    """

    def __init__(self, host: str, config: DurabilityConfig) -> None:
        self.host = host
        self.config = config
        self.root = Path(config.data_dir) / urllib.parse.quote(host, safe="")
        self._lock = threading.Lock()
        self._stores: dict[str, DurableStore] = {}
        self.root.mkdir(parents=True, exist_ok=True)

    def store_for(self, store_id: str) -> DurableStore:
        """The durable store for *store_id*, created (or reopened) on demand."""
        with self._lock:
            store = self._stores.get(store_id)
            if store is None:
                store = DurableStore(
                    self.root / urllib.parse.quote(store_id, safe=""), self.config
                )
                self._stores[store_id] = store
            return store

    def on_disk_store_ids(self) -> list[str]:
        """Store ids with state on disk (from a previous incarnation)."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        out = []
        for name in names:
            if (self.root / name).is_dir():
                out.append(urllib.parse.unquote(name))
        return sorted(out)

    def on_disk_replica_sids(self) -> list[str]:
        """Folder-server sids whose *replica* stores have on-disk state."""
        return [
            sid[len(_REPLICA_PREFIX) :]
            for sid in self.on_disk_store_ids()
            if sid.startswith(_REPLICA_PREFIX)
        ]

    def close(self) -> None:
        """Flush + fsync every store (orderly shutdown)."""
        with self._lock:
            stores = list(self._stores.values())
        for store in stores:
            store.close()

    def gauges(self) -> dict:
        """This host's stores, summed; the oldest snapshot's age (-1.0:
        none yet).  The server reports it as ``durability.<name>``."""
        with self._lock:
            stores = list(self._stores.values())
        agg = {"stores": len(stores), **dict.fromkeys(_SUMMED, 0)}
        agg["fsync_ms"] = 0.0
        agg["snapshot_age_s"] = -1.0
        for store in stores:
            g = store.gauges()
            for name in _SUMMED:
                agg[name] += g[name]
            agg["snapshot_age_s"] = max(agg["snapshot_age_s"], g["snapshot_age_s"])
        return agg
