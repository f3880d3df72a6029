"""Node placement and connectivity graphs for sensor/actor networks.

A :class:`Topology` holds named node positions and derives the
connectivity graph induced by a radio model (edges where the PRR clears
a floor).  :func:`grid_topology` builds the regular grid every
scenario deploys; any other placement is a ``{name: position}`` mapping
handed to :class:`Topology` directly.

The graph is a :mod:`networkx` graph with PRR edge attributes, so the
routing layer can run shortest-path algorithms with
expected-transmission-count (ETX = 1/PRR) weights directly.
"""

from __future__ import annotations

from typing import Mapping

import networkx as nx

from repro.core.errors import NetworkError
from repro.core.space_model import PointLocation
from repro.network.radio import RadioModel

__all__ = [
    "Topology",
    "grid_topology",
]


class Topology:
    """Named node positions plus the radio-induced connectivity graph.

    Args:
        positions: Node name -> location.
        radio: Radio model inducing links.
        prr_floor: Minimum PRR for an edge to exist.
    """

    def __init__(
        self,
        positions: Mapping[str, PointLocation],
        radio: RadioModel,
        prr_floor: float = 0.1,
    ):
        if not positions:
            raise NetworkError("topology needs at least one node")
        if not 0.0 < prr_floor <= 1.0:
            raise NetworkError(f"prr_floor {prr_floor} not in (0, 1]")
        self._positions = dict(positions)
        self.radio = radio
        self.prr_floor = prr_floor
        self._graph = self._build_graph()

    def _build_graph(self) -> nx.Graph:
        graph = nx.Graph()
        names = sorted(self._positions)
        graph.add_nodes_from(names)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                prr = self.radio.prr(self._positions[a], self._positions[b])
                if prr >= self.prr_floor:
                    graph.add_edge(a, b, prr=prr, etx=1.0 / prr)
        return graph

    # -- queries -------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        """All node names, sorted."""
        return tuple(sorted(self._positions))

    @property
    def graph(self) -> nx.Graph:
        """The connectivity graph (nodes = names, edges carry prr/etx)."""
        return self._graph

    def __contains__(self, name: str) -> bool:
        return name in self._positions

    def __len__(self) -> int:
        return len(self._positions)

    def position(self, name: str) -> PointLocation:
        """Location of a node."""
        try:
            return self._positions[name]
        except KeyError:
            raise NetworkError(f"unknown node {name!r}") from None

    def neighbors(self, name: str) -> tuple[str, ...]:
        """Nodes with a usable link to ``name``."""
        if name not in self._graph:
            raise NetworkError(f"unknown node {name!r}")
        return tuple(sorted(self._graph.neighbors(name)))

    def prr(self, a: str, b: str) -> float:
        """PRR of the direct link a-b (0 when no edge exists)."""
        data = self._graph.get_edge_data(a, b)
        return data["prr"] if data else 0.0

    def is_connected(self) -> bool:
        """Whether every node can reach every other node."""
        return nx.is_connected(self._graph)

    def add_node(self, name: str, location: PointLocation) -> None:
        """Insert a node and its induced links."""
        if name in self._positions:
            raise NetworkError(f"node {name!r} already exists")
        self._positions[name] = location
        self._graph.add_node(name)
        for other, other_pos in self._positions.items():
            if other == name:
                continue
            prr = self.radio.prr(location, other_pos)
            if prr >= self.prr_floor:
                self._graph.add_edge(name, other, prr=prr, etx=1.0 / prr)


def grid_topology(
    rows: int,
    cols: int,
    spacing: float,
    radio: RadioModel,
    origin: PointLocation = PointLocation(0.0, 0.0),
    prefix: str = "MT",
    prr_floor: float = 0.1,
) -> Topology:
    """Regular ``rows`` x ``cols`` grid named ``{prefix}{r}_{c}``."""
    if rows < 1 or cols < 1:
        raise NetworkError("grid needs at least one row and one column")
    positions = {
        f"{prefix}{r}_{c}": PointLocation(
            origin.x + c * spacing, origin.y + r * spacing
        )
        for r in range(rows)
        for c in range(cols)
    }
    return Topology(positions, radio, prr_floor)

