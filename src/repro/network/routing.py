"""Per-application routing tables over the logical PPC topology.

Each ADF defines a logical point-to-point topology with a cost per link
"reflecting distance and transmission speed" (section 4.3); the Routing
class turns it into shortest-path routing tables, and "each memo server is
loaded with unique routing tables for each application" (section 4.3).

The implementation is plain Dijkstra from every source (the topologies are
small — tens of hosts), producing for each (src, dst) pair the total path
cost, the hop list, and the *next hop*, which is all a memo server needs to
forward a request.  "No broadcasting is done by the system" (section 5):
there is deliberately no route-everything primitive here.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.errors import RoutingError, TopologyError

__all__ = ["RoutingTable", "Route"]


@dataclass(frozen=True)
class Route:
    """A resolved path between two hosts."""

    src: str
    dst: str
    cost: float
    hops: tuple[str, ...]  # full path including src and dst

    @property
    def next_hop(self) -> str:
        """First host after *src* on the path (== dst when adjacent)."""
        return self.hops[1] if len(self.hops) > 1 else self.dst


class RoutingTable:
    """All-pairs shortest-path routing over a weighted undirected topology.

    Args:
        links: mapping ``host -> {neighbor: link_cost}``.  Must be symmetric
            for duplex links; simplex links (paper's ``->``) appear in one
            direction only.
        hosts: optional explicit host universe (isolated hosts allowed at
            construction; routing *to* them raises :class:`RoutingError`).
    """

    def __init__(
        self,
        links: dict[str, dict[str, float]],
        hosts: list[str] | None = None,
    ) -> None:
        self._adj: dict[str, dict[str, float]] = {}
        universe = set(hosts or [])
        universe.update(links)
        for src, nbrs in links.items():
            universe.update(nbrs)
        for host in sorted(universe):
            self._adj[host] = dict(links.get(host, {}))
        for src, nbrs in self._adj.items():
            for dst, cost in nbrs.items():
                if cost < 0:
                    raise TopologyError(
                        f"negative link cost {cost} on {src} -> {dst}"
                    )
        self._routes: dict[str, dict[str, Route]] = {}
        for src in self._adj:
            self._routes[src] = self._dijkstra(src)
        #: ``(src, dst) -> next hop``: the table a memo server consults on
        #: every request it forwards.
        self._next_hops = {
            (src, dst): route.next_hop
            for src, by_dst in self._routes.items()
            for dst, route in by_dst.items()
        }

    @property
    def hosts(self) -> tuple[str, ...]:
        """All hosts known to the table, sorted."""
        return tuple(self._adj)

    def _dijkstra(self, src: str) -> dict[str, Route]:
        dist: dict[str, float] = {src: 0.0}
        prev: dict[str, str] = {}
        visited: set[str] = set()
        heap: list[tuple[float, str]] = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if u in visited:
                continue
            visited.add(u)
            for v, w in self._adj[u].items():
                nd = d + w
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (nd, v))
        routes: dict[str, Route] = {}
        for dst, d in dist.items():
            path = [dst]
            while path[-1] != src:
                path.append(prev[path[-1]])
            path.reverse()
            routes[dst] = Route(src, dst, d, tuple(path))
        return routes

    # -- queries -------------------------------------------------------------

    def route(self, src: str, dst: str) -> Route:
        """Full route from *src* to *dst*; raises when unreachable."""
        try:
            by_dst = self._routes[src]
        except KeyError:
            raise RoutingError(f"unknown source host {src!r}") from None
        route = by_dst.get(dst)
        if route is None:
            if dst not in self._adj:
                raise RoutingError(f"unknown destination host {dst!r}")
            raise RoutingError(f"no route from {src} to {dst} in this topology")
        return route

    def next_hop(self, src: str, dst: str) -> str:
        """The forwarding decision a memo server makes."""
        hop = self._next_hops.get((src, dst))
        return hop if hop is not None else self.route(src, dst).next_hop

    def cost(self, src: str, dst: str) -> float:
        """Total path cost."""
        return self.route(src, dst).cost

    def reachable(self, src: str, dst: str) -> bool:
        """True when a path exists."""
        try:
            self.route(src, dst)
            return True
        except RoutingError:
            return False

    def is_connected(self) -> bool:
        """True when every host can reach every other host."""
        hosts = self.hosts
        return all(
            self.reachable(a, b) for a in hosts for b in hosts if a != b
        )

    def mean_cost_from_all(self, dst: str) -> float:
        """Average path cost from every other host to *dst*.

        This is the "machine locality" figure the cost-weighted hash uses:
        a host that is expensive to reach from the rest of the network
        should own proportionally fewer folders (section 5).  The value is a
        global property of the topology, so every host computes the same
        number and folder ownership stays consistent without coordination.
        """
        others = [h for h in self.hosts if h != dst]
        if not others:
            return 0.0
        total = 0.0
        for src in others:
            total += self.route(src, dst).cost
        return total / len(others)
