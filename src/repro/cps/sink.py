"""WSN sink nodes: the second observer level (Sections 3 and 5).

"A sink node is a special sensor mote, which receives and aggregates
the data received from a set of sensor motes ... sink nodes collect the
sensor event instances from other sensor motes as input observations
and generate cyber-physical event instances based on the cyber-physical
event conditions" (Eq. 5.4).

The sink registers as the root of the wireless routing tree; arriving
sensor-event packets feed its detection engine, and emitted
cyber-physical instances are handed to the publish callback installed
by the system wiring (normally the CPS event bus, reaching CCUs and the
database server).

Localization: when ``trilaterate_attribute`` is set, any emitted
instance whose match bound three or more entities carrying that range
attribute gets its ``l_eo`` refined by least-squares multilateration
over the reporting motes' positions — the paper's introduction example
of a sink computing a user location from range measurements.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence

from repro.core.errors import SpatialError
from repro.core.event import EventLayer
from repro.core.instance import (
    CyberPhysicalEventInstance,
    EventInstance,
    ObserverKind,
)
from repro.core.space_model import PointLocation
from repro.core.spec import EventSpecification
from repro.cps.component import ObserverComponent
from repro.detect.engine import DetectionEngine, Match
from repro.detect.localize import trilaterate
from repro.network.fabric import WirelessNetwork
from repro.network.packet import Packet, PacketKind
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder

__all__ = ["SinkNode", "trilaterated_refinement"]

PublishCallback = Callable[[EventInstance], None]


def trilaterated_refinement(
    instance: EventInstance, match: Match, attribute: str
) -> tuple[EventInstance, int] | None:
    """Refine ``l_eo`` by multilateration over the match's range reports.

    Pure function of the instance and its match — shared by the live
    :class:`SinkNode` path and the streaming replay observers
    (:mod:`repro.stream.replay`), so a replayed stream reproduces the
    sink's localization byte-for-byte.  Returns the refined instance
    plus the anchor count, or ``None`` when fewer than three usable
    anchors exist or the solver rejects the geometry (the caller keeps
    the unrefined instance).
    """
    anchors: list[PointLocation] = []
    ranges: list[float] = []
    for entity in match.entities():
        value = entity.attributes.get(attribute)
        location = getattr(entity, "generated_location", None)
        if location is None:
            location = entity.occurrence_location
        if value is None or not isinstance(location, PointLocation):
            continue
        anchors.append(location)
        ranges.append(float(value))
    if len(anchors) < 3:
        return None
    try:
        estimate = trilaterate(anchors, ranges)
    except SpatialError:
        return None
    return replace(instance, estimated_location=estimate), len(anchors)


class SinkNode(ObserverComponent):
    """Second-level observer: sensor events in, cyber-physical events out.

    Args:
        name: Sink identifier (a node of the wireless topology).
        location: Deployment position.
        sim: Simulation kernel.
        specs: Cyber-physical event specifications.
        network: The wireless network to receive on (registration
            happens in :meth:`attach`).
        publish: Downstream delivery (event bus / backbone), set at
            wiring time via :attr:`publish` if not given here.
        trilaterate_attribute: Range attribute used for multilateration
            refinement (``None`` disables).
        engine: Empty engine to install ``specs`` into (see
            :class:`~repro.cps.component.ObserverComponent`).
        trace: Optional trace recorder.
    """

    def __init__(
        self,
        name: str,
        location: PointLocation,
        sim: Simulator,
        specs: Sequence[EventSpecification] = (),
        network: WirelessNetwork | None = None,
        publish: PublishCallback | None = None,
        trilaterate_attribute: str | None = None,
        engine: DetectionEngine | None = None,
        trace: TraceRecorder | None = None,
    ):
        super().__init__(
            name,
            location,
            sim,
            kind=ObserverKind.SINK_NODE,
            layer=EventLayer.CYBER_PHYSICAL,
            instance_cls=CyberPhysicalEventInstance,
            specs=specs,
            engine=engine,
            trace=trace,
        )
        self.publish = publish
        self.trilaterate_attribute = trilaterate_attribute
        self.received_instances: list[EventInstance] = []
        if network is not None:
            self.attach(network)

    def attach(self, network: WirelessNetwork) -> None:
        """Register as this node's receive handler on the WSN."""
        network.register(self.name, self.handle_packet)

    def handle_packet(self, packet: Packet) -> None:
        """Wireless receive path: unwrap, record, and coalesce.

        Packets arriving within one tick's delivery phase are buffered
        and ingested as a single batch at
        :data:`~repro.sim.kernel.PRIORITY_INGEST` (see
        :meth:`~repro.cps.component.ObserverComponent.enqueue`), so a
        converge-cast burst costs one engine pass instead of one per
        packet.
        """
        if packet.kind is not PacketKind.EVENT_INSTANCE:
            return
        instance = packet.payload
        if not isinstance(instance, EventInstance):
            return
        self._note_arrival(instance)
        self.enqueue(instance)

    def receive_instance(self, instance: EventInstance) -> None:
        """Feed one sensor event instance to the CP-event conditions.

        Synchronous single-entity path (direct wiring and tests); the
        wireless path batches through :meth:`handle_packet` instead.
        """
        self._note_arrival(instance)
        self.ingest(instance)

    def _note_arrival(self, instance: EventInstance) -> None:
        self.received_instances.append(instance)
        self.record(
            "sink.receive",
            event_id=instance.event_id,
            from_observer=repr(instance.observer),
        )

    # -- localization refinement -------------------------------------------

    def refine_instance(
        self, instance: EventInstance, match: Match
    ) -> EventInstance:
        """Multilaterate ``l_eo`` when range measurements are available."""
        if self.trilaterate_attribute is None:
            return instance
        refined = trilaterated_refinement(
            instance, match, self.trilaterate_attribute
        )
        if refined is None:
            return instance
        refined_instance, anchors = refined
        self.record(
            "sink.trilaterated",
            event_id=instance.event_id,
            anchors=anchors,
        )
        return refined_instance

    def distribute(self, instance: EventInstance) -> None:
        """Publish emitted CP instances downstream (bus / backbone)."""
        if self.publish is not None:
            self.publish(instance)
