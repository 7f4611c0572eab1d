"""Registry of user-defined transferable structure types.

The paper lets applications build messages "from either previously user
defined or base transferables".  A user-defined transferable is a plain
Python class registered here by name; its instances are linearized as a
*struct node* carrying the type name plus named field references, and
reconstructed on the receiving side by name lookup.

Registration is explicit (the :func:`transferable_struct` decorator or
:meth:`TransferableRegistry.register_struct`) so that the wire format never
depends on module paths or pickles — only on the registered name, which both
sides of a heterogeneous link must agree on, exactly like an ASN.1 module
definition.

Reconstruction uses ``cls.__new__`` followed by field assignment, which is
what makes **self-referential structures** decodable: the instance exists
before its fields are populated, so a cycle through a struct resolves to the
same object identity it had on the sender.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Callable, Iterable, Sequence

from repro.core.keys import FolderName, Key, Symbol
from repro.errors import EncodingError, UnknownTransferableError

__all__ = [
    "StructInfo",
    "TransferableRegistry",
    "default_registry",
    "transferable_struct",
]


@dataclasses.dataclass(frozen=True)
class StructInfo:
    """How one registered struct type is taken apart and rebuilt."""

    name: str
    cls: type
    fields: tuple[str, ...]
    #: Build an empty shell instance (fields assigned afterwards).
    make_shell: Callable[[], object]
    #: Assign one decoded field on the shell.
    set_field: Callable[[object, str, object], None]
    #: Read one field off a live instance.
    get_field: Callable[[object, str], object]


def _default_shell(cls: type) -> Callable[[], object]:
    def make() -> object:
        return cls.__new__(cls)

    return make


def _force_setattr(obj: object, name: str, value: object) -> None:
    """Field assignment that also works on frozen dataclasses.

    Decoding builds shells with ``cls.__new__`` and fills fields afterwards,
    so frozen-dataclass ``__setattr__`` guards must be bypassed here — the
    instance is not yet visible to anyone else.
    """
    object.__setattr__(obj, name, value)


class TransferableRegistry:
    """Thread-safe name ↔ struct-type table shared by encoder and decoder."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_name: dict[str, StructInfo] = {}
        self._by_cls: dict[type, StructInfo] = {}

    def register_struct(
        self,
        cls: type,
        *,
        name: str | None = None,
        fields: Sequence[str] | None = None,
    ) -> type:
        """Register *cls* as a transferable struct.

        Args:
            cls: the class to register.  If it is a dataclass and *fields* is
                omitted, its dataclass fields are used.
            name: wire name; defaults to ``cls.__name__``.
            fields: explicit ordered field names; required for non-dataclasses
                unless the class defines ``__slots__`` or
                ``_transferable_fields_``.

        Returns:
            *cls* unchanged, so this can be used as a decorator body.
        """
        wire_name = name or cls.__name__
        if fields is None:
            fields = self._infer_fields(cls)
        info = StructInfo(
            name=wire_name,
            cls=cls,
            fields=tuple(fields),
            make_shell=_default_shell(cls),
            set_field=_force_setattr,
            get_field=getattr,
        )
        with self._lock:
            existing = self._by_name.get(wire_name)
            if existing is not None and existing.cls is not cls:
                raise EncodingError(
                    f"struct name {wire_name!r} already registered "
                    f"for {existing.cls.__qualname__}"
                )
            self._by_name[wire_name] = info
            self._by_cls[cls] = info
        return cls

    @staticmethod
    def _infer_fields(cls: type) -> tuple[str, ...]:
        if dataclasses.is_dataclass(cls):
            return tuple(f.name for f in dataclasses.fields(cls))
        explicit = getattr(cls, "_transferable_fields_", None)
        if explicit is not None:
            return tuple(explicit)
        slots = getattr(cls, "__slots__", None)
        if slots:
            return tuple(slots) if not isinstance(slots, str) else (slots,)
        raise EncodingError(
            f"cannot infer fields for {cls.__qualname__}; pass fields=..."
        )

    def lookup_class(self, cls: type) -> StructInfo | None:
        """Find the registration for an instance's class, or None."""
        with self._lock:
            return self._by_cls.get(cls)

    def lookup_name(self, name: str) -> StructInfo:
        """Find a registration by wire name; raise when unknown."""
        with self._lock:
            info = self._by_name.get(name)
        if info is None:
            raise UnknownTransferableError(
                f"no transferable struct registered under name {name!r}"
            )
        return info

    def names(self) -> Iterable[str]:
        """Snapshot of all registered wire names."""
        with self._lock:
            return tuple(self._by_name)


#: Process-wide default registry used by :func:`repro.transferable.encode`.
default_registry = TransferableRegistry()

# Keys and folder names ride inside memos (a work item naming the folder
# its answer goes to).  Registered here, so the core knows nothing of the
# value codec.
default_registry.register_struct(Symbol, name="dmemo.Symbol", fields=("name",))
default_registry.register_struct(Key, name="dmemo.Key", fields=("symbol", "index"))
default_registry.register_struct(FolderName, name="dmemo.FolderName", fields=("app", "key"))


def transferable_struct(
    cls: type | None = None,
    *,
    name: str | None = None,
    fields: Sequence[str] | None = None,
    registry: TransferableRegistry | None = None,
):
    """Class decorator registering a transferable struct.

    Usage::

        @transferable_struct
        @dataclasses.dataclass
        class Point:
            x: int
            y: int
    """

    def apply(c: type) -> type:
        (registry or default_registry).register_struct(c, name=name, fields=fields)
        return c

    if cls is not None:
        return apply(cls)
    return apply
