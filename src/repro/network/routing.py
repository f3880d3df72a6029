"""Routing: converge-cast trees to sinks and point-to-point paths.

Sensor motes "serve as repeaters to relay and aggregate packets from
other motes" (Section 3); traffic flows up a routing tree rooted at the
sink (and down an analogous tree from the dispatch node).  The
:class:`RoutingTree` computes ETX-weighted shortest paths on the
topology graph; multi-sink deployments assign each mote to its
cheapest sink.
"""

from __future__ import annotations

from typing import Iterable

import networkx as nx

from repro.core.errors import RoutingError
from repro.network.topology import Topology

__all__ = ["RoutingTree"]


class RoutingTree:
    """Shortest-path (ETX) routing from every node toward a set of roots.

    Args:
        topology: The network topology.
        roots: Sink / dispatch node names (must exist in the topology).
        weight: Edge attribute to minimize — ``"etx"`` (default,
            quality-aware) or ``"hops"`` for pure hop count.
    """

    def __init__(
        self,
        topology: Topology,
        roots: Iterable[str],
        weight: str = "etx",
    ):
        self.topology = topology
        self.roots = tuple(sorted(set(roots)))
        if not self.roots:
            raise RoutingError("routing tree needs at least one root")
        for root in self.roots:
            if root not in topology:
                raise RoutingError(f"root {root!r} is not in the topology")
        if weight not in ("etx", "hops"):
            raise RoutingError(f"unknown weight {weight!r}; use 'etx' or 'hops'")
        self.weight = weight
        self._paths: dict[str, list[str]] = {}
        self._compute()

    def _compute(self) -> None:
        graph = self.topology.graph
        weight_attr = None if self.weight == "hops" else self.weight
        best_cost: dict[str, float] = {}
        best_path: dict[str, list[str]] = {}
        for root in self.roots:
            try:
                costs, paths = nx.single_source_dijkstra(
                    graph, root, weight=weight_attr
                )
            except nx.NodeNotFound:  # pragma: no cover - guarded in __init__
                raise RoutingError(f"root {root!r} missing from graph") from None
            for node, cost in costs.items():
                if node not in best_cost or cost < best_cost[node]:
                    best_cost[node] = cost
                    # Dijkstra paths run root -> node; we store node -> root.
                    best_path[node] = list(reversed(paths[node]))
        self._paths = best_path

    # -- queries -------------------------------------------------------

    def reachable(self, node: str) -> bool:
        """Whether the node has a route to any root."""
        return node in self._paths

    def path_to_root(self, node: str) -> list[str]:
        """Node sequence from ``node`` to its assigned root (inclusive).

        Raises:
            RoutingError: If the node is disconnected from every root.
        """
        try:
            return list(self._paths[node])
        except KeyError:
            raise RoutingError(f"node {node!r} cannot reach any root") from None

    def next_hop(self, node: str) -> str | None:
        """The neighbour toward the root, or ``None`` at a root."""
        path = self.path_to_root(node)
        return path[1] if len(path) > 1 else None

    def assigned_root(self, node: str) -> str:
        """Which root serves this node."""
        return self.path_to_root(node)[-1]

    def hops_to_root(self, node: str) -> int:
        """Number of hops from the node to its root."""
        return len(self.path_to_root(node)) - 1

    def point_to_point(self, src: str, dst: str) -> list[str]:
        """Cheapest path between two arbitrary nodes (for CCU links)."""
        weight_attr = None if self.weight == "hops" else self.weight
        try:
            return nx.shortest_path(
                self.topology.graph, src, dst, weight=weight_attr
            )
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            raise RoutingError(f"no path from {src!r} to {dst!r}") from None

    def descendants(self, root: str) -> tuple[str, ...]:
        """All nodes whose assigned root is ``root`` (excluding itself)."""
        return tuple(
            sorted(
                node
                for node, path in self._paths.items()
                if node != root and path[-1] == root
            )
        )

    def depth_histogram(self) -> dict[int, int]:
        """Map hop-distance -> node count (used by the EDL analysis)."""
        histogram: dict[int, int] = {}
        for node in self._paths:
            hops = self.hops_to_root(node)
            histogram[hops] = histogram.get(hops, 0) + 1
        return histogram
