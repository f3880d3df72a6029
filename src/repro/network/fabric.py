"""The network fabric: multi-hop packet delivery on the simulator.

:class:`WirelessNetwork` glues topology, link model and routing to the
discrete-event kernel.  Nodes register a receive handler; senders call
:meth:`unicast` (explicit destination) or :meth:`send_to_root`
(converge-cast along the routing tree).  Each hop is simulated
store-and-forward: per-hop loss, retransmission and latency come from
the :class:`~repro.network.link.LinkModel`, an optional duty-cycle MAC
adds wake-up waits, and every delivery/drop is traced for the latency
analyses.

The *wired* CPS backbone of Figure 1 (sink <-> CCU <-> database) is
modelled by :class:`WiredBackbone` — reliable delivery one tick after
a send — since the paper treats it as a conventional network.
"""

from __future__ import annotations

import itertools
from typing import Callable

from repro.core.errors import NetworkError
from repro.network.link import LinkModel
from repro.network.packet import Packet, PacketKind
from repro.network.routing import RoutingTree
from repro.network.topology import Topology
from repro.sim.kernel import PRIORITY_NETWORK, Simulator
from repro.sim.trace import TraceRecorder

__all__ = ["DutyCycleMac", "WirelessNetwork", "WiredBackbone"]

ReceiveHandler = Callable[[Packet], None]


class DutyCycleMac:
    """Synchronous duty-cycled MAC: radios wake every ``period`` ticks.

    A transmission initiated at tick *t* waits until the next active
    slot boundary before the first attempt, adding
    ``(-t) mod period`` ticks — the classic duty-cycling latency/energy
    trade-off.  ``period=1`` means always-on (no added delay).

    Args:
        period: Ticks between wake-ups (>= 1).
    """

    def __init__(self, period: int = 1):
        if period < 1:
            raise NetworkError("duty cycle period must be >= 1")
        self.period = period

    def wait_until_active(self, tick: int) -> int:
        """Ticks from ``tick`` until the next active slot."""
        return (-tick) % self.period

    @property
    def expected_wait(self) -> float:
        """Mean wake-up wait (for the analytical EDL model)."""
        return (self.period - 1) / 2.0


class WirelessNetwork:
    """Multi-hop lossy wireless delivery over a topology.

    Args:
        sim: The simulation kernel.
        topology: Node positions and connectivity.
        link: Per-hop loss/latency model.
        routing: Converge-cast tree (required for
            :meth:`send_to_root`).
        mac: Optional duty-cycled MAC.
        trace: Optional recorder for delivery/drop records.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        link: LinkModel,
        routing: RoutingTree | None = None,
        mac: DutyCycleMac | None = None,
        trace: TraceRecorder | None = None,
    ):
        self.sim = sim
        self.topology = topology
        self.link = link
        self.routing = routing
        self.mac = mac or DutyCycleMac(1)
        self.trace = trace
        self._handlers: dict[str, ReceiveHandler] = {}
        self.delivered_count = 0
        self.dropped_count = 0
        # Per-fabric packet numbering: the dataclass default is a
        # process-global counter, which would make traced packet ids —
        # and therefore trace digests — depend on every network that ran
        # earlier in the process.
        self._packet_seq = itertools.count(1)

    def register(self, name: str, handler: ReceiveHandler) -> None:
        """Install the receive callback for a node."""
        if name not in self.topology:
            raise NetworkError(f"cannot register unknown node {name!r}")
        self._handlers[name] = handler

    # -- sending -------------------------------------------------------

    def send_to_root(self, src: str, payload: object,
                     kind: PacketKind) -> Packet:
        """Converge-cast: send along the routing tree to the node's root."""
        if self.routing is None:
            raise NetworkError("send_to_root requires a routing tree")
        path = self.routing.path_to_root(src)
        packet = Packet(
            src=src,
            dst=path[-1],
            kind=kind,
            payload=payload,
            created_tick=self.sim.tick,
            packet_id=next(self._packet_seq),
        )
        self._transmit(packet, path)
        return packet

    def unicast(self, src: str, dst: str, payload: object,
                kind: PacketKind) -> Packet:
        """Point-to-point send along the cheapest path."""
        if self.routing is None:
            raise NetworkError("unicast requires a routing tree")
        path = self.routing.point_to_point(src, dst)
        packet = Packet(
            src=src,
            dst=dst,
            kind=kind,
            payload=payload,
            created_tick=self.sim.tick,
            packet_id=next(self._packet_seq),
        )
        self._transmit(packet, path)
        return packet

    def _transmit(self, packet: Packet, path: list[str]) -> None:
        """Walk the path hop by hop, accumulating delay; drop on failure.

        The whole path outcome is computed eagerly (draws are consumed
        in hop order, so runs stay deterministic) and the final delivery
        is scheduled once — store-and-forward semantics with a single
        queue entry per packet.
        """
        if len(path) == 1:
            # Local delivery (source is its own destination).
            self.sim.schedule(
                0, lambda: self._deliver(packet), priority=PRIORITY_NETWORK
            )
            return
        total_delay = 0
        tick = self.sim.tick
        for hop_src, hop_dst in zip(path, path[1:]):
            total_delay += self.mac.wait_until_active(tick + total_delay)
            prr = self.topology.prr(hop_src, hop_dst)
            outcome = self.link.attempt_hop(prr)
            total_delay += outcome.delay
            packet.record_hop(hop_dst)
            if not outcome.delivered:
                self.dropped_count += 1
                if self.trace is not None:
                    self.trace.record(
                        tick + total_delay,
                        "net.drop",
                        hop_src,
                        packet_id=packet.packet_id,
                        kind=packet.kind.value,
                        at_hop=hop_dst,
                        attempts=outcome.attempts,
                    )
                return
        self.sim.schedule(
            total_delay, lambda: self._deliver(packet), priority=PRIORITY_NETWORK
        )

    def _deliver(self, packet: Packet) -> None:
        handler = self._handlers.get(packet.dst)
        self.delivered_count += 1
        if self.trace is not None:
            self.trace.record(
                self.sim.tick,
                "net.deliver",
                packet.dst,
                packet_id=packet.packet_id,
                kind=packet.kind.value,
                src=packet.src,
                latency=self.sim.tick - packet.created_tick,
                hops=packet.hop_count,
            )
        if handler is None:
            raise NetworkError(
                f"packet {packet!r} arrived at {packet.dst!r} but no handler "
                "is registered"
            )
        handler(packet)


class WiredBackbone:
    """Reliable fixed-latency delivery for the wired CPS network.

    Sink nodes, CCUs and database servers talk over conventional
    networking; the paper's latency concern is the WSN, so the backbone
    is modelled as lossless with a delay of one tick.

    Args:
        sim: The simulation kernel.
        trace: Optional recorder.
    """

    def __init__(self, sim: Simulator, trace: TraceRecorder | None = None):
        self.sim = sim
        self.trace = trace
        self._handlers: dict[str, ReceiveHandler] = {}
        self.delivered_count = 0
        # Per-backbone numbering for the same reason as the wireless
        # fabric: traced ids must not leak cross-run process state.
        self._packet_seq = itertools.count(1)

    def register(self, name: str, handler: ReceiveHandler) -> None:
        """Install the receive callback for a backbone endpoint."""
        self._handlers[name] = handler

    def send(self, src: str, dst: str, payload: object,
             kind: PacketKind) -> Packet:
        """Deliver reliably one tick later."""
        if dst not in self._handlers:
            raise NetworkError(f"unknown backbone endpoint {dst!r}")
        packet = Packet(
            src=src,
            dst=dst,
            kind=kind,
            payload=payload,
            created_tick=self.sim.tick,
            packet_id=next(self._packet_seq),
        )

        def deliver() -> None:
            self.delivered_count += 1
            if self.trace is not None:
                self.trace.record(
                    self.sim.tick,
                    "backbone.deliver",
                    dst,
                    packet_id=packet.packet_id,
                    kind=kind.value,
                    src=src,
                )
            self._handlers[dst](packet)

        self.sim.schedule(1, deliver, priority=PRIORITY_NETWORK)
        return packet
