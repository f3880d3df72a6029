"""Whole-system assembly: Figure 1 as a runnable object.

:class:`CPSSystem` wires every architecture component together with the
paper's default dataflow:

* sensor motes sample the physical world and send sensor event
  instances up the WSN routing tree to their sink;
* sinks evaluate cyber-physical event conditions and publish emitted
  instances on the event bus;
* CCUs subscribe to cyber-physical events (and to peer CCUs' cyber
  events), evaluate cyber event conditions, publish their cyber events,
  and run Event-Action rules whose commands travel over the wired
  backbone to dispatch nodes;
* dispatch nodes hand commands to their directly connected actor
  motes, which execute them against the physical world — closing the
  loop;
* database servers subscribe to everything and log it for retrieval.

The builder methods validate wiring as they go (motes must exist in the
sensor topology, sinks must be routing roots, ...), so a mis-assembled
scenario fails at construction, not mid-run.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.errors import ComponentError
from repro.core.event import EventLayer
from repro.core.space_model import BoundingBox
from repro.core.spec import EventSpecification
from repro.cps.actions import ActionRule
from repro.cps.actuator import Actuator
from repro.cps.bus import EventBus
from repro.cps.ccu import ControlUnit
from repro.cps.database import DatabaseServer
from repro.cps.dispatch import DispatchNode
from repro.cps.mote import ActorMote, IntervalEventConfig, SensorMote
from repro.cps.sensor import Sensor
from repro.cps.sink import SinkNode
from repro.detect.engine import DetectionEngine
from repro.network.fabric import DutyCycleMac, WiredBackbone, WirelessNetwork
from repro.network.link import LinkModel
from repro.network.packet import PacketKind
from repro.network.routing import RoutingTree
from repro.network.topology import Topology
from repro.physical.world import PhysicalWorld
from repro.sim.kernel import PRIORITY_WORLD, Simulator
from repro.sim.trace import TraceRecorder

__all__ = ["CPSSystem"]


class CPSSystem:
    """Builder and runtime for a complete CPS deployment.

    Args:
        seed: Root random seed (all component streams derive from it).
        use_planner: Evaluation mode of every observer's
            :class:`~repro.detect.engine.DetectionEngine` (motes, sinks
            and CCUs alike).  ``False`` runs the exhaustive baseline;
            behavior is identical either way — the conformance harness
            compares the two.
    """

    def __init__(
        self,
        seed: int = 0,
        use_planner: bool = True,
    ):
        self.use_planner = use_planner
        self.sim = Simulator(seed)
        self.trace = TraceRecorder()
        self.world = PhysicalWorld()
        self.bus = EventBus(self.sim, trace=self.trace)
        self.backbone = WiredBackbone(self.sim, trace=self.trace)
        self.sensor_network: WirelessNetwork | None = None
        self.motes: dict[str, SensorMote] = {}
        self.sinks: dict[str, SinkNode] = {}
        self.ccus: dict[str, ControlUnit] = {}
        self.dispatchers: dict[str, DispatchNode] = {}
        self.actor_motes: dict[str, ActorMote] = {}
        self.databases: dict[str, DatabaseServer] = {}
        self._started = False

    # -- networks ------------------------------------------------------

    def build_sensor_network(
        self,
        topology: Topology,
        sink_names: Sequence[str],
        mac_period: int = 1,
        transmission_ticks: int = 1,
        backoff_ticks: int = 2,
        max_retries: int = 3,
    ) -> WirelessNetwork:
        """Create the WSN fabric with a converge-cast tree to the sinks."""
        routing = RoutingTree(topology, sink_names)
        link = LinkModel(
            self.sim.rng.stream("sensor-link"),
            transmission_ticks=transmission_ticks,
            backoff_ticks=backoff_ticks,
            max_retries=max_retries,
        )
        self.sensor_network = WirelessNetwork(
            self.sim,
            topology,
            link,
            routing,
            mac=DutyCycleMac(mac_period),
            trace=self.trace,
        )
        return self.sensor_network

    # -- detection bounds ----------------------------------------------

    def detection_bounds(self) -> BoundingBox:
        """World extent a sharded replay of this system's feeds tiles:
        the sensor topology's spatial extent.

        Bounds only shape load balance — locations outside them clamp to
        edge shards — so any extent is correct.
        """
        if self.sensor_network is not None:
            positions = [
                self.sensor_network.topology.position(name)
                for name in self.sensor_network.topology.names
            ]
            if positions:
                return BoundingBox(
                    min(p.x for p in positions),
                    min(p.y for p in positions),
                    max(p.x for p in positions),
                    max(p.y for p in positions),
                )
        raise ComponentError(
            "sharded detection needs bounds: call build_sensor_network() "
            "first"
        )

    # -- components ----------------------------------------------------

    def add_mote(
        self,
        name: str,
        sensors: Sequence[Sensor],
        sampling_period: int,
        specs: Sequence[EventSpecification] = (),
        interval_events: Sequence[IntervalEventConfig] = (),
        sampling_offset: int | None = None,
    ) -> SensorMote:
        """Create a sensor mote at its topology position."""
        if self.sensor_network is None:
            raise ComponentError("build_sensor_network() first")
        if name in self.motes or name in self.sinks:
            raise ComponentError(f"node {name!r} already exists")
        location = self.sensor_network.topology.position(name)
        mote = SensorMote(
            name,
            location,
            self.sim,
            self.world,
            sensors,
            sampling_period,
            network=self.sensor_network,
            specs=specs,
            interval_events=interval_events,
            sampling_offset=sampling_offset,
            engine=DetectionEngine(use_planner=self.use_planner),
            trace=self.trace,
        )
        self.motes[name] = mote
        return mote

    def add_sink(
        self,
        name: str,
        specs: Sequence[EventSpecification] = (),
        trilaterate_attribute: str | None = None,
    ) -> SinkNode:
        """Create a sink node; it publishes to the event bus."""
        if self.sensor_network is None:
            raise ComponentError("build_sensor_network() first")
        if name in self.sinks:
            raise ComponentError(f"sink {name!r} already exists")
        location = self.sensor_network.topology.position(name)
        sink = SinkNode(
            name,
            location,
            self.sim,
            specs=specs,
            network=self.sensor_network,
            publish=self.bus.publish,
            trilaterate_attribute=trilaterate_attribute,
            engine=DetectionEngine(use_planner=self.use_planner),
            trace=self.trace,
        )
        self.sinks[name] = sink
        return sink

    def add_ccu(
        self,
        name: str,
        location,
        specs: Sequence[EventSpecification] = (),
        rules: Sequence[ActionRule] = (),
        processing_ticks: int = 1,
        subscribe_event_ids: Sequence[str] | None = None,
    ) -> ControlUnit:
        """Create a CCU subscribed to CP and cyber events on the bus."""
        if name in self.ccus:
            raise ComponentError(f"CCU {name!r} already exists")
        ccu = ControlUnit(
            name,
            location,
            self.sim,
            specs=specs,
            rules=rules,
            publish=self.bus.publish,
            dispatch=self._make_dispatch_callback(name),
            processing_ticks=processing_ticks,
            engine=DetectionEngine(use_planner=self.use_planner),
            trace=self.trace,
        )
        self.bus.subscribe(
            ccu.receive_instance,
            event_ids=subscribe_event_ids,
            layers=(EventLayer.CYBER_PHYSICAL, EventLayer.CYBER),
        )
        self.backbone.register(name, lambda packet: None)
        self.ccus[name] = ccu
        return ccu

    def _make_dispatch_callback(self, ccu_name: str):
        def dispatch(command) -> None:
            if not self.dispatchers:
                return
            for dispatch_name in self.dispatchers:
                self.backbone.send(
                    ccu_name, dispatch_name, command, PacketKind.COMMAND
                )

        return dispatch

    def add_dispatch(
        self,
        name: str,
        location,
        default_targets: Sequence[str] = (),
    ) -> DispatchNode:
        """Create a dispatch node reachable over the backbone."""
        if name in self.dispatchers:
            raise ComponentError(f"dispatch node {name!r} already exists")
        node = DispatchNode(
            name,
            location,
            self.sim,
            default_targets=default_targets,
            trace=self.trace,
        )
        self.backbone.register(name, node.handle_backbone)
        self.dispatchers[name] = node
        return node

    def add_actor_mote(
        self,
        name: str,
        actuators: Sequence[Actuator],
        location=None,
    ) -> ActorMote:
        """Create an actor mote wired directly to every dispatch node.

        Add the dispatch nodes first: a dispatch node added later does
        not reach this mote.
        """
        if name in self.actor_motes:
            raise ComponentError(f"actor mote {name!r} already exists")
        if location is None:
            raise ComponentError(f"actor mote {name!r} needs a location")
        mote = ActorMote(
            name,
            location,
            self.sim,
            self.world,
            actuators,
            trace=self.trace,
        )
        for node in self.dispatchers.values():
            node.connect_direct(name, mote)
        self.actor_motes[name] = mote
        return mote

    def add_database(self, name: str, transfer_delay: int = 0) -> DatabaseServer:
        """Create a database server subscribed to every instance."""
        if name in self.databases:
            raise ComponentError(f"database {name!r} already exists")
        database = DatabaseServer(name, self.sim, transfer_delay)
        self.bus.subscribe(database.store)
        self.databases[name] = database
        return database

    # -- runtime ---------------------------------------------------------

    def start(self) -> None:
        """Start sampling and world dynamics, which step every tick
        (idempotent guard)."""
        if self._started:
            raise ComponentError("system already started")
        self._started = True
        self.sim.every(
            1,
            lambda: self.world.step(self.sim.tick),
            start=self.sim.tick + 1,
            priority=PRIORITY_WORLD,
        )
        for mote in self.motes.values():
            mote.start()

    def run(self, until: int) -> int:
        """Start (if needed) and run the simulation to ``until``."""
        if not self._started:
            self.start()
        return self.sim.run(until=until)

    # -- streaming -------------------------------------------------------

    def attach_stream_taps(self, include_motes: bool = False) -> dict:
        """Record every observer's engine feed for streaming replay.

        Installs a :class:`~repro.stream.capture.StreamTap` on each
        sink and CCU (the observers consuming network-delivered — and
        therefore disorder-prone — feeds; ``include_motes=True`` adds
        the sampling-fed motes too) and returns them keyed by observer
        name.  Call before :meth:`run`; afterwards each tap replays the
        live feed through :mod:`repro.stream`.
        """
        from repro.stream.capture import StreamTap

        observers = [*self.sinks.values(), *self.ccus.values()]
        if include_motes:
            observers = [*self.motes.values(), *observers]
        taps: dict[str, StreamTap] = {}
        for observer in observers:
            tap = StreamTap(observer.name)
            observer.attach_stream_tap(tap)
            taps[observer.name] = tap
        return taps

    # -- reporting ---------------------------------------------------------

    def instances_by_layer(self) -> dict[EventLayer, int]:
        """Count of emitted instances per hierarchy layer (Figure 2)."""
        counts: dict[EventLayer, int] = {}
        observers = [
            *self.motes.values(),
            *self.sinks.values(),
            *self.ccus.values(),
        ]
        for observer in observers:
            log = observer.emitted
            if log:
                counts[log.layer] = counts.get(log.layer, 0) + len(log)
        return counts

    def observation_count(self) -> int:
        """Total physical observations taken by all motes: every one
        goes to its mote's engine, which counts it."""
        return sum(m.engine.stats.entities_submitted for m in self.motes.values())
