"""Absolute data domains for lossless heterogeneous transfer.

A :class:`Domain` is a named, fixed-width value set with a binary codec that
is identical on every machine.  The paper's example: a 64-bit Alpha sending
``70000`` to a 16-bit 80486 must fail *at the sender* rather than silently
truncate — "the problem is not byte order, but precision".

All integer domains use big-endian two's-complement encodings; floats use
IEEE-754 binary32/binary64.  Encoding a value that falls outside the domain
raises :class:`repro.errors.LossyMappingError`.

A domain whose width ``struct`` knows carries that format code in
:attr:`Domain.fmt`; the wire codec uses it to write a whole vector of
same-domain values with one call (see :mod:`repro.transferable.wire`).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

from repro.errors import DecodingError, LossyMappingError

__all__ = [
    "Domain",
    "IntDomain",
    "FloatDomain",
    "BoolDomain",
    "DOMAINS",
    "domain_for",
]


@dataclass(frozen=True)
class Domain:
    """A named absolute value domain with a fixed-width binary codec.

    Attributes:
        name: canonical domain name (``"int16"``, ``"float32"``, ...).
        width_bytes: encoded width in bytes.
        fmt: ``struct`` format code of one value, or None when ``struct``
            has no code of this width (the 128-bit integers).
    """

    name: str
    width_bytes: int
    fmt: str | None = None

    def __post_init__(self) -> None:
        # Compiled once per domain: the canonical big-endian codec.
        codec = struct.Struct(">" + self.fmt) if self.fmt else None
        object.__setattr__(self, "_struct", codec)

    def contains(self, value: object) -> bool:
        """Return True when *value* is losslessly representable."""
        raise NotImplementedError

    def check(self, value: object) -> None:
        """Raise :class:`LossyMappingError` unless :meth:`contains` holds."""
        if not self.contains(value):
            raise LossyMappingError(self.name, value)

    def pack(self, value: object) -> bytes:
        """Encode *value*; raises :class:`LossyMappingError` when lossy."""
        raise NotImplementedError

    def unpack(self, data: bytes) -> object:
        """Decode exactly :attr:`width_bytes` bytes back to a value."""
        raise NotImplementedError


@dataclass(frozen=True)
class IntDomain(Domain):
    """A signed or unsigned fixed-width integer domain."""

    fmt: str | None = field(init=False, default=None)  # derived from the width
    signed: bool = True
    lo: int = field(init=False)
    hi: int = field(init=False)

    def __post_init__(self) -> None:
        bits = self.width_bytes * 8
        if self.signed:
            object.__setattr__(self, "lo", -(1 << (bits - 1)))
            object.__setattr__(self, "hi", (1 << (bits - 1)) - 1)
        else:
            object.__setattr__(self, "lo", 0)
            object.__setattr__(self, "hi", (1 << bits) - 1)
        codes = "bhiq" if self.signed else "BHIQ"
        index = {1: 0, 2: 1, 4: 2, 8: 3}.get(self.width_bytes)
        object.__setattr__(self, "fmt", None if index is None else codes[index])
        super().__post_init__()

    def contains(self, value: object) -> bool:
        # bool is an int subclass in Python; it belongs to BoolDomain only.
        return (
            isinstance(value, int)
            and not isinstance(value, bool)
            and self.lo <= value <= self.hi
        )

    def pack(self, value: object) -> bytes:
        self.check(value)
        assert isinstance(value, int)
        return value.to_bytes(self.width_bytes, "big", signed=self.signed)

    def unpack(self, data: bytes) -> int:
        if len(data) != self.width_bytes:
            raise DecodingError(
                f"{self.name}: expected {self.width_bytes} bytes, got {len(data)}"
            )
        return int.from_bytes(data, "big", signed=self.signed)


@dataclass(frozen=True)
class FloatDomain(Domain):
    """An IEEE-754 floating-point domain (binary32 or binary64).

    ``float32`` accepts any finite Python float whose magnitude fits the
    binary32 range (values round to nearest binary32 on encode, which is the
    defined precision of the domain, not an accidental loss); infinities and
    NaN are representable and round-trip.  A finite value that would
    *overflow* to infinity in binary32 is a lossy mapping and is rejected.
    """

    fmt: str = "d"  # struct format: "f" for float32, "d" for float64
    max_finite: float = field(default=math.inf)

    def contains(self, value: object) -> bool:
        if not isinstance(value, float) or isinstance(value, bool):
            return False
        if math.isnan(value) or math.isinf(value):
            return True
        return abs(value) <= self.max_finite

    def pack(self, value: object) -> bytes:
        self.check(value)
        return self._struct.pack(value)

    def unpack(self, data: bytes) -> float:
        if len(data) != self.width_bytes:
            raise DecodingError(
                f"{self.name}: expected {self.width_bytes} bytes, got {len(data)}"
            )
        return self._struct.unpack(data)[0]


@dataclass(frozen=True)
class BoolDomain(Domain):
    """The two-valued boolean domain, encoded as a single byte."""

    fmt: str = "?"

    def contains(self, value: object) -> bool:
        return isinstance(value, bool)

    def pack(self, value: object) -> bytes:
        self.check(value)
        return b"\x01" if value else b"\x00"

    def unpack(self, data: bytes) -> bool:
        if len(data) != 1:
            raise DecodingError(f"bool: expected 1 byte, got {len(data)}")
        if data not in (b"\x00", b"\x01"):
            raise DecodingError(f"bool: invalid encoding {data!r}")
        return data == b"\x01"


_FLOAT32_MAX = struct.unpack(">f", b"\x7f\x7f\xff\xff")[0]  # largest binary32

#: All built-in absolute domains, keyed by canonical name.
DOMAINS: dict[str, Domain] = {
    d.name: d
    for d in (
        IntDomain("int8", 1, signed=True),
        IntDomain("int16", 2, signed=True),
        IntDomain("int32", 4, signed=True),
        IntDomain("int64", 8, signed=True),
        IntDomain("int128", 16, signed=True),
        IntDomain("uint8", 1, signed=False),
        IntDomain("uint16", 2, signed=False),
        IntDomain("uint32", 4, signed=False),
        IntDomain("uint64", 8, signed=False),
        IntDomain("uint128", 16, signed=False),
        FloatDomain("float32", 4, fmt="f", max_finite=_FLOAT32_MAX),
        FloatDomain("float64", 8, fmt="d", max_finite=math.inf),
        BoolDomain("bool", 1),
    )
}


def domain_for(name: str) -> Domain:
    """Look up a domain by canonical name; raise KeyError when unknown."""
    try:
        return DOMAINS[name]
    except KeyError:
        raise KeyError(f"unknown absolute domain {name!r}") from None
