"""Transferable foundation (paper section 3.1.3).

Heterogeneous machines disagree on word sizes (16/32/64/128-bit) and
floating-point precisions, so built-in types like ``int`` and ``float`` admit
*lossy domain mappings* when values cross machines.  D-Memo instead makes
applications "think in concrete domains": every value sent through the memo
space is typed by an **absolute domain** (``int16``, ``uint32``, ``float64``,
...) that encodes and decodes itself identically on every platform.

The subsystem has four layers:

* :mod:`repro.transferable.domains` — the absolute domains themselves
  (range/precision contracts and fixed-width binary codecs);
* :mod:`repro.transferable.scalars` — transferable scalar value wrappers
  (``Int16(5)``) that applications can place directly into memos;
* :mod:`repro.transferable.graph` — the node model of spanning-tree
  linearization: how *arbitrary* object graphs, including self-referential
  (cyclic) structures, become a flat sequence of tagged nodes in linear
  time per node (polynomial overall, as the paper observes);
* :mod:`repro.transferable.wire` — the tag-length-value byte format
  (ASN.1/XDR-inspired) used on the network, and the one encoder and one
  decoder, which walk the object graph and the bytes directly.

``encode``/``decode`` are the two entry points; they round-trip any
supported structure with no programmer intervention — the property the paper
contrasts against OSI and Sun RPC, which "require significant programmer
intervention".
"""

from repro.transferable.domains import (
    DOMAINS,
    Domain,
    FloatDomain,
    IntDomain,
    domain_for,
)
from repro.transferable.scalars import (
    Bool,
    Char,
    Float32,
    Float64,
    Int8,
    Int16,
    Int32,
    Int64,
    Scalar,
    String,
    UInt8,
    UInt16,
    UInt32,
    UInt64,
)
from repro.transferable.registry import (
    TransferableRegistry,
    default_registry,
    transferable_struct,
)
from repro.transferable.wire import decode, encode

__all__ = [
    "DOMAINS",
    "Domain",
    "IntDomain",
    "FloatDomain",
    "domain_for",
    "Scalar",
    "Bool",
    "Char",
    "String",
    "Int8",
    "Int16",
    "Int32",
    "Int64",
    "UInt8",
    "UInt16",
    "UInt32",
    "UInt64",
    "Float32",
    "Float64",
    "TransferableRegistry",
    "default_registry",
    "transferable_struct",
    "encode",
    "decode",
]
