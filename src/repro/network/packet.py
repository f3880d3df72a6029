"""Packets exchanged over the CPS network.

Everything that travels between components — sensor event instances
going up to sinks, cyber-physical instances going to CCUs, actuator
commands coming back down (Figure 1) — is wrapped in a :class:`Packet`.
Packets are plain data; the payload is an in-memory object (an
:class:`~repro.core.instance.EventInstance`, a command, ...), never
serialized.  A packet has no size: the link model charges every hop a
fixed number of transmission ticks.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

__all__ = ["PacketKind", "Packet"]

_packet_ids = itertools.count(1)


class PacketKind(enum.Enum):
    """Traffic classes on the CPS network."""

    OBSERVATION = "observation"      # raw samples (rarely shipped whole)
    EVENT_INSTANCE = "event"         # event instances climbing the hierarchy
    COMMAND = "command"              # actuator commands going down
    CONTROL = "control"              # routing / subscription management


@dataclass
class Packet:
    """One unit of network traffic.

    Args:
        src: Originating node name.
        dst: Destination node name.
        kind: Traffic class.
        payload: The carried object.
        created_tick: Tick the packet was handed to the network.
    """

    src: str
    dst: str
    kind: PacketKind
    payload: object
    created_tick: int
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    hops: list[str] = field(default_factory=list)

    def record_hop(self, node: str) -> None:
        """Append a traversed node to the hop trace."""
        self.hops.append(node)

    @property
    def hop_count(self) -> int:
        """Number of hops traversed so far."""
        return len(self.hops)

    def __repr__(self) -> str:
        return (
            f"Packet#{self.packet_id}({self.kind.value} {self.src}->{self.dst})"
        )
