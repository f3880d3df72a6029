"""Wireless sensor/actor network substrate (refs [19][20] of the paper)."""

from repro.network.fabric import DutyCycleMac, WiredBackbone, WirelessNetwork
from repro.network.link import HopOutcome, LinkModel
from repro.network.packet import Packet, PacketKind
from repro.network.radio import LogDistanceRadio, RadioModel, UnitDiskRadio
from repro.network.routing import RoutingTree
from repro.network.topology import Topology, grid_topology

__all__ = [
    "Packet",
    "PacketKind",
    "RadioModel",
    "UnitDiskRadio",
    "LogDistanceRadio",
    "Topology",
    "grid_topology",
    "LinkModel",
    "HopOutcome",
    "RoutingTree",
    "WirelessNetwork",
    "WiredBackbone",
    "DutyCycleMac",
]
