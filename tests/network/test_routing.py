"""Unit tests for cost-weighted routing tables, cross-checked with networkx."""

import networkx as nx
import pytest

from repro.errors import RoutingError, TopologyError
from repro.network.routing import RoutingTable


def simple_square():
    """a—b—d and a—c—d, with the b path cheaper."""
    return RoutingTable(
        {
            "a": {"b": 1.0, "c": 5.0},
            "b": {"a": 1.0, "d": 1.0},
            "c": {"a": 5.0, "d": 1.0},
            "d": {"b": 1.0, "c": 1.0},
        }
    )


class TestShortestPaths:
    def test_prefers_cheap_path(self):
        table = simple_square()
        route = table.route("a", "d")
        assert route.hops == ("a", "b", "d")
        assert route.cost == 2.0

    def test_next_hop(self):
        table = simple_square()
        assert table.next_hop("a", "d") == "b"
        assert table.next_hop("b", "c") in ("a", "d")

    def test_self_route(self):
        table = simple_square()
        route = table.route("a", "a")
        assert route.cost == 0.0
        assert route.hops == ("a",)

    def test_adjacent(self):
        table = simple_square()
        route = table.route("a", "b")
        assert route.next_hop == "b"
        assert route.hops == ("a", "b")

    def test_costs_beat_hop_count(self):
        """A 3-hop cheap path must beat a 1-hop expensive link."""
        table = RoutingTable(
            {
                "a": {"d": 10.0, "b": 1.0},
                "b": {"a": 1.0, "c": 1.0},
                "c": {"b": 1.0, "d": 1.0},
                "d": {"a": 10.0, "c": 1.0},
            }
        )
        route = table.route("a", "d")
        assert route.hops == ("a", "b", "c", "d")
        assert route.cost == 3.0

    def test_simplex_link_one_way(self):
        table = RoutingTable({"a": {"b": 1.0}, "b": {}})
        assert table.reachable("a", "b")
        assert not table.reachable("b", "a")


class TestErrors:
    def test_unknown_source(self):
        with pytest.raises(RoutingError, match="source"):
            simple_square().route("zz", "a")

    def test_unknown_destination(self):
        with pytest.raises(RoutingError, match="destination"):
            simple_square().route("a", "zz")

    def test_disconnected(self):
        table = RoutingTable({"a": {"b": 1.0}, "b": {"a": 1.0}}, hosts=["a", "b", "island"])
        with pytest.raises(RoutingError, match="no route"):
            table.route("a", "island")
        assert not table.is_connected()

    def test_negative_cost_rejected(self):
        with pytest.raises(TopologyError):
            RoutingTable({"a": {"b": -1.0}, "b": {"a": -1.0}})


class TestProperties:
    def test_connected_square(self):
        assert simple_square().is_connected()

    def test_mean_cost_from_all(self):
        table = RoutingTable(
            {"a": {"b": 2.0}, "b": {"a": 2.0, "c": 4.0}, "c": {"b": 4.0}}
        )
        # paths to b: a->b = 2, c->b = 4 → mean 3
        assert table.mean_cost_from_all("b") == pytest.approx(3.0)

    def test_mean_cost_single_host(self):
        assert RoutingTable({"solo": {}}).mean_cost_from_all("solo") == 0.0


class TestAgainstNetworkx:
    """Cross-check Dijkstra against the reference implementation."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs_match(self, seed):
        import random

        rng = random.Random(seed)
        n = 12
        g = nx.gnm_random_graph(n, 30, seed=seed)
        links: dict[str, dict[str, float]] = {str(i): {} for i in range(n)}
        for u, v in g.edges:
            w = rng.uniform(0.5, 5.0)
            g[u][v]["weight"] = w
            links[str(u)][str(v)] = w
            links[str(v)][str(u)] = w
        table = RoutingTable(links)
        lengths = dict(nx.all_pairs_dijkstra_path_length(g, weight="weight"))
        for u in range(n):
            for v in range(n):
                if v in lengths.get(u, {}):
                    assert table.cost(str(u), str(v)) == pytest.approx(
                        lengths[u][v]
                    ), f"{u}->{v}"
                else:
                    assert not table.reachable(str(u), str(v))

    @pytest.mark.parametrize("seed", range(3))
    def test_route_cost_equals_sum_of_hops(self, seed):
        import random

        rng = random.Random(100 + seed)
        n = 10
        links: dict[str, dict[str, float]] = {str(i): {} for i in range(n)}
        for i in range(n):
            j = (i + 1) % n
            w = rng.uniform(0.1, 3.0)
            links[str(i)][str(j)] = w
            links[str(j)][str(i)] = w
        table = RoutingTable(links)
        for src in map(str, range(n)):
            for dst in map(str, range(n)):
                route = table.route(src, dst)
                total = sum(
                    links[a][b] for a, b in zip(route.hops, route.hops[1:])
                )
                assert route.cost == pytest.approx(total)
