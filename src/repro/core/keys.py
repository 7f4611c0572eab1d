"""Keys, symbols, and folder names (paper section 6.1.1).

"A key is defined to be symbol, S, followed by a vector of unsigned
integers, X."  The departure from string keys exists "to provide better
support for data structures": an application creates one symbol per shared
structure (array, queue, future table, ...) and indexes elements with the
integer vector, e.g. element ``a[i,j]`` lives in the folder whose key is
``(a, [i, j, 0])``.

A :class:`FolderName` is a key qualified by the application name — "the
servers prepend the application's name with each requested folder name" so
several applications can share the same servers without sharing data
(section 4.3).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

from repro.errors import MemoError

__all__ = ["Symbol", "SymbolFactory", "Key", "FolderName"]

_UINT_MAX = (1 << 64) - 1


@dataclass(frozen=True)
class Symbol:
    """A unique name created by ``create_symbol`` (or named explicitly).

    Symbols compare by their string name, which must be globally unique
    within an application; :class:`SymbolFactory` guarantees uniqueness for
    generated symbols by embedding the creating process identity.
    """

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise MemoError("symbol name must be non-empty")
        if "\x00" in self.name or "/" in self.name:
            raise MemoError(f"symbol name contains reserved character: {self.name!r}")

    def __str__(self) -> str:
        return self.name

    def __call__(self, *index: int) -> "Key":
        """Convenience: ``sym(i, j)`` builds the key ``(sym, (i, j))``."""
        return Key(self, tuple(index))


class SymbolFactory:
    """Generates application-unique symbols (the ``create_symbol`` service).

    Uniqueness across processes is achieved by scoping the counter with the
    caller's process name, so two workers calling ``create_symbol``
    concurrently can never mint the same symbol without any coordination —
    important because symbol creation must not require a network round trip.
    """

    def __init__(self, scope: str) -> None:
        self.scope = scope
        self._counter = itertools.count()
        self._lock = threading.Lock()

    def create(self, hint: str = "sym") -> Symbol:
        """Mint a fresh symbol; *hint* improves debuggability only."""
        with self._lock:
            n = next(self._counter)
        return Symbol(f"{hint}.{self.scope}.{n}")


@dataclass(frozen=True)
class Key:
    """A folder key: symbol plus vector of unsigned integers."""

    symbol: Symbol
    index: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if isinstance(self.index, list):  # tolerate list input, store tuple
            object.__setattr__(self, "index", tuple(self.index))
        for x in self.index:
            if not isinstance(x, int) or isinstance(x, bool) or not (
                0 <= x <= _UINT_MAX
            ):
                raise MemoError(
                    f"key index entries must be unsigned 64-bit ints, got {x!r}"
                )

    def canonical(self) -> bytes:
        """Stable byte representation — identical on every host.

        This is what the cost-weighted hash consumes, so it must not depend
        on interpreter hash randomization or platform word size.
        """
        parts = [self.symbol.name.encode("utf-8")]
        parts.extend(x.to_bytes(8, "big") for x in self.index)
        return b"\x00".join(parts)

    def __hash__(self) -> int:
        """The dataclass field hash, computed once per instance: a key
        names its folder in every request the API builds."""
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = hash((self.symbol, self.index))
        return cached

    def __str__(self) -> str:
        if not self.index:
            return self.symbol.name
        return f"{self.symbol.name}[{','.join(map(str, self.index))}]"


@dataclass(frozen=True)
class FolderName:
    """An application-qualified key: the unit of folder ownership."""

    app: str
    key: Key

    def __post_init__(self) -> None:
        if not self.app:
            raise MemoError("application name must be non-empty")

    def canonical(self) -> bytes:
        """Stable byte representation including the application prefix.

        Computed once per instance: the placement hash and the routing
        cache both consume it on every request that touches the folder.
        """
        cached = getattr(self, "_canonical", None)
        if cached is None:
            cached = self.app.encode("utf-8") + b"\x01" + self.key.canonical()
            object.__setattr__(self, "_canonical", cached)
        return cached

    def __hash__(self) -> int:
        """The dataclass field hash, computed once per instance.

        A folder name keys the routing cache, the folder table and the
        waiter table on every request, and the generated hash walks
        ``Key`` and ``Symbol`` each time.
        """
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = hash((self.app, self.key))
        return cached

    def __str__(self) -> str:
        return f"{self.app}:{self.key}"

