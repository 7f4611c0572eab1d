"""Transferable scalar wrappers over the absolute domains.

A :class:`Scalar` pairs a value with its declared domain, so an application
writes ``Int16(300)`` instead of a bare ``300`` and the system can guarantee
lossless transfer (or fail loudly at construction time).  Scalars are
immutable, hashable, and compare equal when both domain and value match —
``Int16(5) != Int32(5)`` because they denote different concrete domains.

Scalars are "active objects that encode arbitrary ... scalars for transfer
between compatible and incompatible domains" (paper section 3.1.3): each one
knows how to :meth:`~Scalar.pack` itself to bytes and the class method
:meth:`~Scalar.unpack` restores it.
"""

from __future__ import annotations

import struct
from typing import ClassVar

from repro.errors import DecodingError, LossyMappingError
from repro.transferable.domains import DOMAINS, Domain

__all__ = [
    "Scalar",
    "Int8",
    "Int16",
    "Int32",
    "Int64",
    "Int128",
    "UInt8",
    "UInt16",
    "UInt32",
    "UInt64",
    "UInt128",
    "Float32",
    "Float64",
    "Bool",
    "Char",
    "String",
    "Blob",
    "SCALAR_TYPES",
]


class Scalar:
    """Base class: an immutable (domain, value) pair.

    Subclasses set :attr:`domain` to one of the registered absolute domains.
    Construction validates the value against the domain, so a ``Scalar``
    instance is transferable by construction.
    """

    __slots__ = ("_value",)

    #: Absolute domain this scalar type denotes.
    domain: ClassVar[Domain]

    def __init__(self, value: object) -> None:
        self.domain.check(value)
        object.__setattr__(self, "_value", self._canonicalize(value))

    @classmethod
    def _canonicalize(cls, value: object) -> object:
        """Hook: normalise the stored representation (e.g. float32 rounds)."""
        return value

    @property
    def value(self) -> object:
        """The wrapped Python value."""
        return self._value

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._value!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return type(self) is type(other) and self._value == other._value

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._value))

    # -- codec ------------------------------------------------------------

    def pack(self) -> bytes:
        """Encode the value using the domain's fixed-width codec."""
        return self.domain.pack(self._value)

    @classmethod
    def unpack(cls, data: bytes) -> "Scalar":
        """Decode a fixed-width payload back into a scalar instance."""
        return cls._from_domain(cls.domain.unpack(data))

    @classmethod
    def _from_domain(cls, raw: object) -> "Scalar":
        """Hook: rebuild (and so re-validate) from a decoded domain value.

        Shared by :meth:`unpack` and the packed-vector decoder, which
        unpacks a whole body of domain values with one call.
        """
        return cls(raw)


def _make_scalar(name: str, domain_name: str) -> type[Scalar]:
    cls = type(name, (Scalar,), {"__slots__": (), "domain": DOMAINS[domain_name]})
    cls.__doc__ = f"Transferable scalar in the absolute domain ``{domain_name}``."
    return cls


Int8 = _make_scalar("Int8", "int8")
Int16 = _make_scalar("Int16", "int16")
Int32 = _make_scalar("Int32", "int32")
Int64 = _make_scalar("Int64", "int64")
Int128 = _make_scalar("Int128", "int128")
UInt8 = _make_scalar("UInt8", "uint8")
UInt16 = _make_scalar("UInt16", "uint16")
UInt32 = _make_scalar("UInt32", "uint32")
UInt64 = _make_scalar("UInt64", "uint64")
UInt128 = _make_scalar("UInt128", "uint128")
Bool = _make_scalar("Bool", "bool")
Float64 = _make_scalar("Float64", "float64")


class Float32(Scalar):
    """Transferable binary32 float.

    The stored value is canonicalized to the nearest binary32, so equality
    and round-trips are exact *within the domain*; finite values whose
    magnitude overflows binary32 are rejected as lossy.
    """

    __slots__ = ()
    domain = DOMAINS["float32"]

    @classmethod
    def _canonicalize(cls, value: object) -> float:
        return _BINARY32.unpack(_BINARY32.pack(value))[0]


_BINARY32 = struct.Struct(">f")


class Char(Scalar):
    """A single Unicode code point, encoded as its uint32 ordinal."""

    __slots__ = ()
    domain = DOMAINS["uint32"]

    def __init__(self, value: str) -> None:  # type: ignore[override]
        if not isinstance(value, str) or len(value) != 1:
            raise LossyMappingError("char", value, "expected a 1-character string")
        super().__init__(ord(value))

    @property
    def value(self) -> str:  # type: ignore[override]
        return chr(self._value)

    def __repr__(self) -> str:
        return f"Char({chr(self._value)!r})"

    @classmethod
    def _from_domain(cls, raw: object) -> "Char":
        assert isinstance(raw, int)
        if raw > 0x10FFFF:
            raise DecodingError(f"char: code point {raw:#x} out of range")
        return cls(chr(raw))


class String(Scalar):
    """A variable-length UTF-8 string (length-prefixed on the wire)."""

    __slots__ = ()
    domain = DOMAINS["uint32"]  # unused; String overrides the codec

    def __init__(self, value: str) -> None:  # type: ignore[override]
        if not isinstance(value, str):
            raise LossyMappingError("string", value, "expected str")
        object.__setattr__(self, "_value", value)

    def pack(self) -> bytes:
        return self._value.encode("utf-8")

    @classmethod
    def unpack(cls, data: bytes) -> "String":
        try:
            return cls(data.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DecodingError(f"string: invalid UTF-8: {exc}") from exc


class Blob(Scalar):
    """An opaque byte string, transferred verbatim."""

    __slots__ = ()
    domain = DOMAINS["uint32"]  # unused; Blob overrides the codec

    def __init__(self, value: bytes) -> None:  # type: ignore[override]
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise LossyMappingError("blob", value, "expected bytes-like")
        object.__setattr__(self, "_value", bytes(value))

    def pack(self) -> bytes:
        return self._value

    @classmethod
    def unpack(cls, data: bytes) -> "Blob":
        return cls(data)


#: All scalar wrapper types, keyed by canonical lowercase name.
SCALAR_TYPES: dict[str, type[Scalar]] = {
    "int8": Int8,
    "int16": Int16,
    "int32": Int32,
    "int64": Int64,
    "int128": Int128,
    "uint8": UInt8,
    "uint16": UInt16,
    "uint32": UInt32,
    "uint64": UInt64,
    "uint128": UInt128,
    "bool": Bool,
    "float32": Float32,
    "float64": Float64,
    "char": Char,
    "string": String,
    "blob": Blob,
}
