"""Spanning-tree linearization of arbitrary object graphs.

"The basic observation is that all data structures have a spanning tree.  A
spanning tree can be constructed in polynomial time.  Thus, it is possible to
encode (linearize) an arbitrary structure and to decode (de-linearize) it in
polynomial time." (paper section 3.1.3)

The linearizer walks an object graph once, assigning each distinct node
(container, struct, scalar, or leaf) a small integer id — the first visit of
a node is its spanning-tree edge; later visits become back/cross references
to the existing id.  The result is a flat node table in which container
payloads hold child *ids* rather than inline children, so cycles and shared
substructure cost nothing special.

A list or tuple whose elements all have one fixed-width leaf type — bare
``float``, ``int`` (within int64) or ``bool``, or one fixed-width
:class:`Scalar` class — is a *packed vector*: still one node with an id
(so a row referenced twice is one object, and a matrix is a ``LIST`` of
packed rows), but it holds the element values themselves instead of one
child id per element.  Anything else takes the per-element path.

De-linearization is two-phase: mutable containers (lists, dicts, sets,
structs) are first created as empty shells so that ids can resolve to object
identities, then populated; immutable containers (tuples, frozensets) are
built on demand with cycle detection — a cycle that passes *only* through
immutable nodes cannot exist in a real Python heap, so encountering one is a
decoding error, not a limitation.

Both passes touch each node and each edge exactly once: O(V + E).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import DecodingError, EncodingError
from repro.transferable.domains import DOMAINS, Domain
from repro.transferable.registry import TransferableRegistry, default_registry
from repro.transferable.scalars import SCALAR_TYPES, Scalar

__all__ = [
    "NodeKind",
    "Node",
    "LinearGraph",
    "PackedElement",
    "PACKED_ELEMENTS",
    "Linearizer",
    "Delinearizer",
]


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


# Kinds that reference no other node, so they can be built in one step.
_LEAF_KINDS = frozenset(
    {
        NodeKind.NONE,
        NodeKind.NATIVE_BOOL,
        NodeKind.NATIVE_INT,
        NodeKind.NATIVE_FLOAT,
        NodeKind.NATIVE_STR,
        NodeKind.NATIVE_BYTES,
        NodeKind.SCALAR,
        NodeKind.PACKED_LIST,
        NodeKind.PACKED_TUPLE,
    }
)


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


@dataclass
class Node:
    """One entry of the flat node table.

    ``payload`` depends on ``kind``:

    * leaf kinds: the native value, or ``(domain_name, value)`` for SCALAR;
    * LIST/TUPLE/SET/FROZENSET: list of child ids;
    * DICT: list of ``(key_id, value_id)`` pairs;
    * STRUCT: ``(struct_name, [(field_name, child_id), ...])``;
    * PACKED_LIST/PACKED_TUPLE: ``(PackedElement, values)`` — a tuple of
      the elements' domain values (a scalar's wrapped value, not the
      wrapper).
    """

    kind: NodeKind
    payload: object = None


@dataclass
class LinearGraph:
    """A linearized object graph: node table plus the root id."""

    nodes: list[Node] = field(default_factory=list)
    root: int = 0

    def __len__(self) -> int:
        return len(self.nodes)


class Linearizer:
    """Walks an object graph and produces a :class:`LinearGraph`.

    Args:
        registry: struct-type registry used for user-defined transferables.
        strict_domains: when True, bare Python ``int``/``float`` values are
            rejected, enforcing the paper's "think in concrete domains"
            discipline (applications must wrap values in ``Int32`` etc.).
    """

    def __init__(
        self,
        registry: TransferableRegistry | None = None,
        *,
        strict_domains: bool = False,
    ) -> None:
        self.registry = registry if registry is not None else default_registry
        self.strict_domains = strict_domains

    def linearize(self, obj: object) -> LinearGraph:
        """Linearize *obj*; raises :class:`EncodingError` on unsupported types.

        The walk is iterative (explicit work stack), so arbitrarily deep
        structures — a million-node linked list, say — encode without
        touching the interpreter recursion limit.
        """
        graph = LinearGraph()
        memo: dict[int, int] = {}  # id(obj) -> node id
        # Keep every visited object alive for the duration of the walk so
        # that id() values cannot be recycled mid-encode.
        pins: list[object] = []
        root_slot: list[int] = [0]

        # Work stack of (obj, sink, slot): on resolution, node id is
        # written to sink[slot].  Children are pushed in reverse so they
        # are numbered left-to-right, matching the recursive ordering.
        stack: list[tuple[object, list, int]] = [(obj, root_slot, 0)]
        while stack:
            current, sink, slot = stack.pop()
            existing = memo.get(id(current))
            if existing is not None:
                sink[slot] = existing
                continue
            node_id = len(graph.nodes)
            leaf = self._leaf_node(current)
            if leaf is not None:
                graph.nodes.append(leaf)
                sink[slot] = node_id
                continue
            # Containers: reserve the id *before* visiting children, which
            # is exactly what makes self-reference work.
            memo[id(current)] = node_id
            pins.append(current)
            sink[slot] = node_id
            self._open_container(current, graph, stack)

        graph.root = root_slot[0]
        return graph

    # -- encoding walk ------------------------------------------------------

    def _leaf_node(self, obj: object) -> Node | None:
        """Build the leaf node for *obj*, or None when it is a container."""
        if obj is None:
            return Node(NodeKind.NONE)
        if isinstance(obj, bool):
            return Node(NodeKind.NATIVE_BOOL, obj)
        if isinstance(obj, Scalar):
            return Node(NodeKind.SCALAR, (_scalar_domain_name(obj), obj))
        if isinstance(obj, int):
            if self.strict_domains:
                raise EncodingError(
                    "bare int rejected under strict domains; wrap it in an "
                    "absolute-domain scalar such as Int32"
                )
            return Node(NodeKind.NATIVE_INT, obj)
        if isinstance(obj, float):
            if self.strict_domains:
                raise EncodingError(
                    "bare float rejected under strict domains; wrap it in "
                    "Float32 or Float64"
                )
            return Node(NodeKind.NATIVE_FLOAT, obj)
        if isinstance(obj, str):
            return Node(NodeKind.NATIVE_STR, obj)
        if isinstance(obj, (bytes, bytearray)):
            return Node(NodeKind.NATIVE_BYTES, bytes(obj))
        return None

    def _open_container(
        self,
        obj: object,
        graph: LinearGraph,
        stack: list[tuple[object, list, int]],
    ) -> None:
        """Append the container's node and queue its children."""
        if isinstance(obj, (list, tuple)):
            is_list = isinstance(obj, list)
            packed = self._packed_payload(obj)
            if packed is not None:
                kind = NodeKind.PACKED_LIST if is_list else NodeKind.PACKED_TUPLE
                graph.nodes.append(Node(kind, packed))
                return
            kind = NodeKind.LIST if is_list else NodeKind.TUPLE
            ids: list = [0] * len(obj)
            graph.nodes.append(Node(kind, ids))
            for i in range(len(obj) - 1, -1, -1):
                stack.append((obj[i], ids, i))
            return
        if isinstance(obj, (set, frozenset)):
            kind = NodeKind.FROZENSET if isinstance(obj, frozenset) else NodeKind.SET
            # Deterministic order keeps the encoding canonical across runs.
            members = sorted(obj, key=_set_sort_key)
            ids = [0] * len(members)
            graph.nodes.append(Node(kind, ids))
            for i in range(len(members) - 1, -1, -1):
                stack.append((members[i], ids, i))
            return
        if isinstance(obj, dict):
            pairs: list = [[0, 0] for _ in obj]
            graph.nodes.append(Node(NodeKind.DICT, pairs))
            items = list(obj.items())
            for i in range(len(items) - 1, -1, -1):
                key, value = items[i]
                stack.append((value, pairs[i], 1))
                stack.append((key, pairs[i], 0))
            return
        info = self.registry.lookup_class(type(obj))
        if info is not None:
            fields: list = [[fname, 0] for fname in info.fields]
            graph.nodes.append(Node(NodeKind.STRUCT, (info.name, fields)))
            for i in range(len(info.fields) - 1, -1, -1):
                stack.append((info.get_field(obj, info.fields[i]), fields[i], 1))
            return
        raise EncodingError(
            f"type {type(obj).__qualname__} is not transferable; register it "
            f"with @transferable_struct or wrap it in a scalar"
        )

    def _packed_payload(self, seq: list | tuple) -> tuple | None:
        """``(element, values)`` when *seq* is a packed vector, else None.

        None sends the sequence down the per-element path, which also owns
        every error message: a bare number under strict domains is refused
        there, not here.
        """
        if not seq:
            return None
        element = PACKED_ELEMENTS.get(type(seq[0]))
        if element is None or len(set(map(type, seq))) != 1:
            return None
        if element.scalar is not None:
            return element, tuple([item._value for item in seq])
        kind = element.kind
        if self.strict_domains and kind is not NodeKind.NATIVE_BOOL:
            return None
        if kind is NodeKind.NATIVE_INT and not (
            element.domain.lo <= min(seq) and max(seq) <= element.domain.hi
        ):
            return None
        return element, tuple(seq)


_SCALAR_NAMES = {cls: name for name, cls in SCALAR_TYPES.items()}


def _scalar_domain_name(obj: Scalar) -> str:
    try:
        return _SCALAR_NAMES[type(obj)]
    except KeyError:
        raise EncodingError(
            f"unregistered scalar type {type(obj).__qualname__}"
        ) from None


def _set_sort_key(item: object) -> tuple:
    return (type(item).__name__, repr(item))


class Delinearizer:
    """Reconstructs an object graph from a :class:`LinearGraph`."""

    def __init__(self, registry: TransferableRegistry | None = None) -> None:
        self.registry = registry if registry is not None else default_registry

    def delinearize(self, graph: LinearGraph) -> object:
        """Rebuild the object graph; aliasing and cycles are restored.

        Three iterative phases (no recursion, so depth is unbounded):

        1. **Shells** — every mutable container (list/set/dict/struct) gets
           an empty instance, fixing object identities up front.  Shells
           are what break cycles: any reference into a cycle can resolve
           to a shell immediately.
        2. **Objects** — leaves are built and immutable containers
           (tuple/frozenset) are constructed children-first with an
           explicit stack; a cycle passing *only* through immutables is
           not a constructible Python value and raises.
        3. **Population** — shells are filled from their children's
           objects.
        """
        n = len(graph.nodes)
        if not 0 <= graph.root < n:
            raise DecodingError(f"root id {graph.root} out of range 0..{n - 1}")
        built: list[object] = [_UNSET] * n

        # Phase 1: shells for every mutable container so ids resolve early.
        for i, node in enumerate(graph.nodes):
            if node.kind is NodeKind.LIST:
                built[i] = []
            elif node.kind is NodeKind.SET:
                built[i] = set()
            elif node.kind is NodeKind.DICT:
                built[i] = {}
            elif node.kind is NodeKind.STRUCT:
                payload = node.payload
                if not isinstance(payload, tuple) or len(payload) != 2:
                    raise DecodingError(f"node {i}: malformed struct payload")
                info = self.registry.lookup_name(payload[0])
                built[i] = info.make_shell()

        # Phase 2: build every leaf and immutable container.
        for i in range(n):
            if built[i] is _UNSET:
                self._build_object(graph, i, built)

        # Phase 3: populate the mutable shells.
        for i, node in enumerate(graph.nodes):
            kind = node.kind
            if kind is NodeKind.LIST:
                shell = built[i]
                assert isinstance(shell, list)
                shell.extend(built[cid] for cid in _child_ids(node, i))
            elif kind is NodeKind.SET:
                shell = built[i]
                assert isinstance(shell, set)
                for cid in _child_ids(node, i):
                    try:
                        shell.add(built[cid])
                    except TypeError as exc:
                        raise DecodingError(
                            f"node {i}: unhashable set member"
                        ) from exc
            elif kind is NodeKind.DICT:
                shell = built[i]
                assert isinstance(shell, dict)
                payload = node.payload
                if not isinstance(payload, list):
                    raise DecodingError(f"node {i}: malformed dict payload")
                for pair in payload:
                    kid, vid = pair
                    self._check_id(kid, n, i)
                    self._check_id(vid, n, i)
                    try:
                        shell[built[kid]] = built[vid]
                    except TypeError as exc:
                        raise DecodingError(
                            f"node {i}: unhashable dict key {built[kid]!r}"
                        ) from exc
            elif kind is NodeKind.STRUCT:
                name, fields = node.payload  # validated in phase 1
                info = self.registry.lookup_name(name)
                for fname, cid in fields:
                    self._check_id(cid, n, i)
                    info.set_field(built[i], fname, built[cid])

        return built[graph.root]

    @staticmethod
    def _check_id(cid: object, n: int, idx: int) -> None:
        if not isinstance(cid, int) or not 0 <= cid < n:
            raise DecodingError(f"node {idx}: child id {cid!r} out of range")

    def _build_object(self, graph: LinearGraph, start: int, built: list) -> None:
        """Construct node *start* (leaf or immutable container), iteratively."""
        in_progress: set[int] = set()
        stack: list[int] = [start]
        while stack:
            idx = stack[-1]
            if built[idx] is not _UNSET:
                stack.pop()
                continue
            node = graph.nodes[idx]
            kind = node.kind
            if kind in _LEAF_KINDS:
                built[idx] = self._build_leaf(node, idx)
                stack.pop()
                continue
            if kind in (NodeKind.TUPLE, NodeKind.FROZENSET):
                children = _child_ids(node, idx)
                unready = [
                    cid
                    for cid in children
                    if built[cid] is _UNSET
                ]
                if unready:
                    if idx in in_progress:
                        raise DecodingError(
                            f"node {idx}: cycle through immutable container "
                            f"({kind.name}) — not a constructible Python value"
                        )
                    in_progress.add(idx)
                    for cid in unready:
                        if cid in in_progress and built[cid] is _UNSET:
                            raise DecodingError(
                                f"node {cid}: cycle through immutable "
                                f"container — not a constructible Python value"
                            )
                        stack.append(cid)
                    continue
                values = [built[cid] for cid in children]
                if kind is NodeKind.TUPLE:
                    built[idx] = tuple(values)
                else:
                    try:
                        built[idx] = frozenset(values)
                    except TypeError as exc:
                        raise DecodingError(
                            f"node {idx}: unhashable frozenset member"
                        ) from exc
                in_progress.discard(idx)
                stack.pop()
                continue
            raise DecodingError(f"node {idx}: unknown node kind {kind!r}")

    def _build_leaf(self, node: Node, idx: int) -> object:
        kind = node.kind
        if kind is NodeKind.NONE:
            return None
        if kind is NodeKind.SCALAR:
            payload = node.payload
            if not isinstance(payload, tuple) or len(payload) != 2:
                raise DecodingError(f"node {idx}: malformed scalar payload")
            domain, value = payload
            cls = SCALAR_TYPES.get(domain)
            if cls is None:
                raise DecodingError(f"node {idx}: unknown scalar domain {domain!r}")
            if isinstance(value, Scalar):
                return value
            return cls(value)
        if kind is NodeKind.PACKED_LIST or kind is NodeKind.PACKED_TUPLE:
            payload = node.payload
            if (
                not isinstance(payload, tuple)
                or len(payload) != 2
                or not isinstance(payload[0], PackedElement)
            ):
                raise DecodingError(f"node {idx}: malformed packed payload")
            element, values = payload
            if element.scalar is not None:
                # Rebuilding each wrapper re-applies its domain check.
                values = map(element.scalar._from_domain, values)
            return list(values) if kind is NodeKind.PACKED_LIST else tuple(values)
        return node.payload


class _Unset:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unset>"


_UNSET = _Unset()


def _child_ids(node: Node, idx: int) -> list[int]:
    payload = node.payload
    if not isinstance(payload, list) or not all(isinstance(c, int) for c in payload):
        raise DecodingError(f"node {idx}: malformed container payload")
    return payload
