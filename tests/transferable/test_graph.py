"""Unit tests for spanning-tree linearization (cycles, aliasing, strictness)."""

import dataclasses

import pytest

from repro.errors import DecodingError, EncodingError
from repro.transferable.graph import Delinearizer, Linearizer, NodeKind
from repro.transferable.registry import TransferableRegistry
from repro.transferable.scalars import Int16, Int32


def roundtrip(obj, registry=None):
    graph = Linearizer(registry).linearize(obj)
    return Delinearizer(registry).delinearize(graph)


class TestLeaves:
    @pytest.mark.parametrize("value", [None, True, False, 0, -17, 1 << 80, 2.5, "s", b"b"])
    def test_roundtrip(self, value):
        assert roundtrip(value) == value

    def test_scalar_roundtrip(self):
        assert roundtrip(Int16(99)) == Int16(99)

    def test_bool_is_not_int_node(self):
        graph = Linearizer().linearize(True)
        assert graph.nodes[graph.root].kind is NodeKind.NATIVE_BOOL


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
        graph = Linearizer().linearize(obj)
        # 200 lists; the innermost, [0], is a packed vector holding its int.
        assert len(graph) == 200
        assert roundtrip(obj) == obj

    def test_diamond_sharing_node_count(self):
        """Shared nodes are encoded once (spanning tree, not a copy tree)."""
        shared = [1, "two", 3.0]
        obj = [shared, shared, shared]
        graph = Linearizer().linearize(obj)
        # 1 outer + 1 shared list + 3 leaves.
        assert len(graph) == 5
        # Same-typed elements pack into the shared list's own node.
        row = [1, 2, 3]
        assert len(Linearizer().linearize([row, row, row])) == 2


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
            Linearizer(TransferableRegistry()).linearize(Mystery())


class TestStrictDomains:
    def test_bare_int_rejected(self):
        with pytest.raises(EncodingError, match="strict domains"):
            Linearizer(strict_domains=True).linearize(42)

    def test_bare_float_rejected(self):
        with pytest.raises(EncodingError, match="strict"):
            Linearizer(strict_domains=True).linearize([1.5])

    def test_wrapped_scalars_accepted(self):
        graph = Linearizer(strict_domains=True).linearize([Int32(42), "text", None])
        assert len(graph) == 4

    def test_bool_allowed_strict(self):
        # bool is a 2-valued domain, identical on every machine.
        Linearizer(strict_domains=True).linearize(True)


class TestDecodingValidation:
    def test_bad_root_rejected(self):
        graph = Linearizer().linearize([1, 2])
        graph.root = 99
        with pytest.raises(DecodingError):
            Delinearizer().delinearize(graph)

    def test_immutable_cycle_rejected(self):
        """A tuple->tuple cycle can't exist in a real heap; decode rejects it."""
        from repro.transferable.graph import LinearGraph, Node

        graph = LinearGraph(
            nodes=[Node(NodeKind.TUPLE, [0])],  # tuple containing itself
            root=0,
        )
        with pytest.raises(DecodingError, match="cycle through immutable"):
            Delinearizer().delinearize(graph)

    def test_tuple_into_mutable_cycle_ok(self):
        """A tuple inside a list cycle IS constructible and must decode."""
        lst: list = []
        tup = (1, lst)
        lst.append(tup)
        result = roundtrip(lst)
        assert result[0][1] is result
