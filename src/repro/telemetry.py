"""One server's numbers in one place: named counters and a registry.

:class:`Counters` is one component's named ints — a ``dict`` with a lock,
so item reads stay C-level.  A component whose counts move under a lock it
already holds (a folder store's put path, the thread cache's submit) passes
that lock in and increments items directly inside its critical section; the
snapshot then takes the same lock and never reads a half-counted update.
Everyone else calls :meth:`Counters.bump` / :meth:`Counters.bump_pair`.

:class:`Registry` maps a key prefix to a :class:`Counters` or to a
zero-argument gauge callable; its :meth:`Registry.snapshot` is the flat
``StatsRequest`` reply (``<prefix>.<name>``).
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

__all__ = ["Counters", "Registry"]


class Counters(dict):
    """Named ints, all starting at zero, guarded by :attr:`lock`.

    Args:
        names: the counter names; bumping any other name is a ``KeyError``.
        lock: the owner's lock, when its counts move inside its own
            critical section; a private lock otherwise.
    """

    __slots__ = ("lock",)

    def __init__(self, names: Iterable[str], lock=None) -> None:
        super().__init__(dict.fromkeys(names, 0))
        self.lock = lock if lock is not None else threading.Lock()

    def bump(self, name: str, by: int = 1) -> None:
        with self.lock:
            self[name] += by

    def bump_pair(self, first: str, second: str, by: int = 1) -> None:
        """Two increments, one lock round — for per-request hot paths."""
        with self.lock:
            self[first] += by
            self[second] += by

    def snapshot(self) -> dict[str, int]:
        with self.lock:
            return dict(self)


class Registry:
    """Key prefix → :class:`Counters` or gauge, read as one flat map.  A
    gauge returns one value (reported under its prefix) or a mapping
    (reported as ``<prefix>.<key>``)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sources: dict[str, Counters | Callable[[], object]] = {}

    def add(self, prefix: str, source: Counters | Callable[[], object]) -> None:
        with self._lock:
            self._sources[prefix] = source

    def snapshot(self) -> dict:
        """Every source read once, each under its own lock."""
        with self._lock:
            sources = list(self._sources.items())
        out: dict = {}
        for prefix, source in sources:
            value = source.snapshot() if isinstance(source, Counters) else source()
            if isinstance(value, dict):
                out.update((f"{prefix}.{k}", v) for k, v in value.items())
            else:
                out[prefix] = value
        return out
