"""Unit tests for spanning-tree linearization (cycles, aliasing, strictness).

The walk has no node table to inspect, so these read what the stream
header says: the node count, and the root's tag (the root is node 0).
"""

import dataclasses

import pytest

from repro.errors import DecodingError, EncodingError
from repro.transferable.graph import NodeKind
from repro.transferable.registry import TransferableRegistry
from repro.transferable.scalars import Int16, Int32
from repro.transferable.wire import decode, encode


def roundtrip(obj, registry=None):
    return decode(encode(obj, registry=registry), registry=registry)


def node_count(data: bytes) -> int:
    """The u32 node count after the magic and the version byte."""
    return int.from_bytes(data[3:7], "big")


def root_kind(data: bytes) -> NodeKind:
    """The root's tag: the walk reaches the root first, so it is node 0."""
    assert data[7:11] == bytes(4)
    return NodeKind(data[11])


class TestLeaves:
    @pytest.mark.parametrize("value", [None, True, False, 0, -17, 1 << 80, 2.5, "s", b"b"])
    def test_roundtrip(self, value):
        assert roundtrip(value) == value

    def test_scalar_roundtrip(self):
        assert roundtrip(Int16(99)) == Int16(99)

    def test_bool_is_not_int_node(self):
        assert root_kind(encode(True)) is NodeKind.NATIVE_BOOL


class TestContainers:
    def test_nested(self):
        obj = {"a": [1, (2, 3)], "b": {4, 5}, "c": frozenset({6})}
        assert roundtrip(obj) == obj

    def test_empty_containers(self):
        assert roundtrip([]) == []
        assert roundtrip({}) == {}
        assert roundtrip(()) == ()
        assert roundtrip(set()) == set()

    def test_dict_with_tuple_keys(self):
        obj = {(1, 2): "x", (3, 4): "y"}
        assert roundtrip(obj) == obj

    def test_scalar_dict_keys(self):
        obj = {Int32(1): "one"}
        assert roundtrip(obj) == obj


class TestSharingAndCycles:
    def test_shared_substructure_preserves_aliasing(self):
        inner = [1, 2]
        outer = [inner, inner]
        result = roundtrip(outer)
        assert result == outer
        assert result[0] is result[1]

    def test_self_referential_list(self):
        lst: list = [1]
        lst.append(lst)
        result = roundtrip(lst)
        assert result[0] == 1
        assert result[1] is result

    def test_cycle_through_dict(self):
        d: dict = {"x": 1}
        d["self"] = d
        result = roundtrip(d)
        assert result["self"] is result

    def test_mutual_cycle(self):
        a: list = ["a"]
        b: list = ["b", a]
        a.append(b)
        ra = roundtrip(a)
        assert ra[1][1] is ra

    def test_deep_nesting_linear_nodes(self):
        obj: object = 0
        for _ in range(200):
            obj = [obj]
        # 200 lists; the innermost, [0], is a packed vector holding its int.
        assert node_count(encode(obj)) == 200
        assert roundtrip(obj) == obj

    def test_diamond_sharing_node_count(self):
        """Shared nodes are encoded once (spanning tree, not a copy tree)."""
        shared = [1, "two", 3.0]
        obj = [shared, shared, shared]
        # 1 outer + 1 shared list + 3 leaves.
        assert node_count(encode(obj)) == 5
        # Same-typed elements pack into the shared list's own node.
        row = [1, 2, 3]
        assert node_count(encode([row, row, row])) == 2

    @pytest.mark.parametrize("wrap", [list, tuple])
    def test_iterative_walk_has_no_depth_limit(self, wrap):
        """100 000 nested containers: far past the recursion limit."""
        obj: object = None
        for _ in range(100_000):
            obj = wrap([obj])
        data = encode(obj)
        assert node_count(data) == 100_001
        out = decode(data)
        for _ in range(100_000):
            assert type(out) is wrap and len(out) == 1
            out = out[0]
        assert out is None


class TestStructs:
    def test_registered_struct_roundtrip(self):
        registry = TransferableRegistry()

        @dataclasses.dataclass
        class Point:
            x: int
            y: int

        registry.register_struct(Point)
        p = roundtrip(Point(1, 2), registry)
        assert isinstance(p, Point) and (p.x, p.y) == (1, 2)

    def test_self_referential_struct(self):
        registry = TransferableRegistry()

        class LinkNode:
            _transferable_fields_ = ("value", "next")

            def __init__(self, value):
                self.value = value
                self.next = None

        registry.register_struct(LinkNode)
        node = LinkNode(7)
        node.next = node  # cycle through the struct
        result = roundtrip(node, registry)
        assert result.value == 7
        assert result.next is result

    def test_unregistered_type_rejected(self):
        class Mystery:
            pass

        with pytest.raises(EncodingError, match="not transferable"):
            encode(Mystery(), registry=TransferableRegistry())


class TestStrictDomains:
    def test_bare_int_rejected(self):
        with pytest.raises(EncodingError, match="strict domains"):
            encode(42, strict_domains=True)

    def test_bare_float_rejected(self):
        with pytest.raises(EncodingError, match="strict"):
            encode([1.5], strict_domains=True)

    def test_wrapped_scalars_accepted(self):
        data = encode([Int32(42), "text", None], strict_domains=True)
        assert node_count(data) == 4

    def test_bool_allowed_strict(self):
        # bool is a 2-valued domain, identical on every machine.
        encode(True, strict_domains=True)


class TestDecodingValidation:
    def test_bad_root_rejected(self):
        data = bytearray(encode([1, 2]))
        data[7:11] = (99).to_bytes(4, "big")
        with pytest.raises(DecodingError, match="root"):
            decode(bytes(data))

    def test_immutable_cycle_rejected(self):
        """A tuple->tuple cycle can't exist in a real heap; decode rejects it."""
        # One node, root 0: a TUPLE whose only child id is itself.
        data = bytes.fromhex("444d01" "00000001" "00000000" "21" "00000001" "00000000")
        with pytest.raises(DecodingError, match="cycle through immutable"):
            decode(data)
        # Two frozensets holding each other: the cycle spans two nodes.
        data = bytes.fromhex(
            "444d01" "00000002" "00000000"
            "23" "00000001" "00000001" "23" "00000001" "00000000"
        )
        with pytest.raises(DecodingError, match="cycle through immutable"):
            decode(data)

    def test_tuple_into_mutable_cycle_ok(self):
        """A tuple inside a list cycle IS constructible and must decode."""
        lst: list = []
        tup = (1, lst)
        lst.append(tup)
        result = roundtrip(lst)
        assert result[0][1] is result
