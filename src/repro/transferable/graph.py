"""Spanning-tree linearization of arbitrary object graphs: the node model.

"The basic observation is that all data structures have a spanning tree.  A
spanning tree can be constructed in polynomial time.  Thus, it is possible to
encode (linearize) an arbitrary structure and to decode (de-linearize) it in
polynomial time." (paper section 3.1.3)

A linearized graph is a flat sequence of nodes, each a :class:`NodeKind`
tag plus a payload.  :func:`repro.transferable.wire.encode` walks an object
graph once, iteratively (an explicit work stack, so a million-deep nested
list encodes without touching the interpreter recursion limit), and writes
each node's bytes to the stream as the walk reaches it.  Node ids are that
order: preorder, children left to right.  The first visit of a container
is its spanning-tree edge; an ``id()`` memo turns every later visit into a
back or cross reference to the existing id, so cycles and shared
substructure cost nothing special.  Leaves (``None``, numbers, strings,
bytes, scalars) are not memoized: each occurrence is its own node.  A
container's payload holds child *ids*, not inline children; the encoder
writes them as placeholders and patches each one when the walk reaches
that child.

A list or tuple whose elements all have one fixed-width leaf type — bare
``float``, ``int`` (within int64) or ``bool``, or one fixed-width
:class:`Scalar` class — is a *packed vector*: still one node with an id
(so a row referenced twice is one object, and a matrix is a ``LIST`` of
packed rows), but it holds the element values themselves instead of one
child id per element.  Anything else takes the per-element path.

:func:`repro.transferable.wire.decode` reads the stream once into a flat
list of values in which leaves are already built and mutable containers
(lists, dicts, sets, structs) are empty shells, so every id resolves to
its object's identity before any container is filled.  Immutable
containers (tuples, frozensets) are then built on demand, children first,
with cycle detection — a cycle that passes *only* through immutable nodes
cannot exist in a real Python heap, so encountering one is a decoding
error, not a limitation — and finally the shells are populated.

Both directions touch each node and each edge a constant number of times:
O(V + E).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.transferable.domains import DOMAINS, Domain
from repro.transferable.scalars import SCALAR_TYPES, Scalar

__all__ = ["NodeKind", "PackedElement", "PACKED_ELEMENTS"]


class NodeKind(enum.IntEnum):
    """Wire tags for every node kind in a linearized graph."""

    NONE = 0x00
    NATIVE_BOOL = 0x01
    NATIVE_INT = 0x02
    NATIVE_FLOAT = 0x03
    NATIVE_STR = 0x04
    NATIVE_BYTES = 0x05
    SCALAR = 0x10  # (domain_name, packed payload)
    LIST = 0x20
    TUPLE = 0x21
    SET = 0x22
    FROZENSET = 0x23
    DICT = 0x24
    STRUCT = 0x25
    PACKED_LIST = 0x30  # homogeneous fixed-width elements held by value
    PACKED_TUPLE = 0x31


@dataclass(frozen=True, eq=False)  # one instance per type: identity is equality
class PackedElement:
    """The one element type of a packed vector.

    Attributes:
        kind: leaf kind of each element (its tag is reused on the wire).
        domain: absolute domain whose fixed-width codec the body uses.
        scalar: the :class:`Scalar` class of the elements, None for bare
            Python values.
        name: that class's ``SCALAR_TYPES`` name, None for bare values.
    """

    kind: NodeKind
    domain: Domain
    scalar: type[Scalar] | None = None
    name: str | None = None


#: Exact element type -> packed representation.  Bare values map to the
#: domain that holds every value the per-element encoding of that type can
#: (floats) or that ``struct`` can write in one call (ints: int64, wider
#: values fall back); scalar classes qualify when their domain has a
#: ``struct`` code and they keep the fixed-width codec (String/Blob
#: replace it, the 128-bit integers have no code).
PACKED_ELEMENTS: dict[type, PackedElement] = {
    bool: PackedElement(NodeKind.NATIVE_BOOL, DOMAINS["bool"]),
    int: PackedElement(NodeKind.NATIVE_INT, DOMAINS["int64"]),
    float: PackedElement(NodeKind.NATIVE_FLOAT, DOMAINS["float64"]),
}
PACKED_ELEMENTS.update(
    (cls, PackedElement(NodeKind.SCALAR, cls.domain, cls, name))
    for name, cls in SCALAR_TYPES.items()
    if cls.pack is Scalar.pack and cls.domain.fmt
)
