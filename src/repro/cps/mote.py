"""Sensor and actor motes: the first observer level (Section 3).

"A sensor (actor) mote usually contains one or more types of sensors
(actuators), in addition to a micro controller unit (MCU), and an
optional transceiver."  The :class:`SensorMote`:

* samples its sensors every ``sampling_period`` ticks, producing
  physical observations (Eq. 5.2);
* evaluates its installed *sensor event conditions* over those
  observations (Definition 4.3 — the mote, not the sensor, is the
  observer) and emits :class:`~repro.core.instance.SensorEventInstance`
  tuples (Eq. 5.3);
* tracks configured *interval events* with an
  :class:`~repro.detect.interval_builder.IntervalBuilder` (Section 4.2's
  enter/leave semantics);
* sends every emitted instance toward its sink over the wireless
  network (motes also relay other motes' packets — the network fabric
  walks the routing tree through them).

The :class:`ActorMote` is the actuation-side counterpart: it receives
actuator commands and executes them against the physical world after
the actuator's mechanical delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.errors import ComponentError
from repro.core.event import EventLayer
from repro.core.instance import (
    EventInstance,
    ObserverKind,
    PhysicalObservation,
    SensorEventInstance,
)
from repro.core.operators import RelationalOp
from repro.core.space_model import PointLocation
from repro.core.spec import EventSpecification
from repro.core.time_model import TimeInterval
from repro.cps.actions import ActuatorCommand
from repro.cps.actuator import Actuator
from repro.cps.component import ObserverComponent
from repro.cps.sensor import Sensor
from repro.detect.confidence import confidence_from_margin
from repro.detect.engine import DetectionEngine
from repro.detect.interval_builder import IntervalBuilder, TransitionKind
from repro.network.fabric import WirelessNetwork
from repro.network.packet import PacketKind
from repro.physical.world import PhysicalWorld
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder

__all__ = ["IntervalEventConfig", "SensorMote", "ActorMote"]


@dataclass(frozen=True)
class IntervalEventConfig:
    """Declarative interval event tracked by a mote (Section 4.2).

    The mote watches one sensed quantity against a threshold; the
    predicate's rising edge opens the interval, its falling edge closes
    it.  The closed interval (optionally also the opening) is emitted as
    an interval :class:`SensorEventInstance` whose ``t_eo`` is the full
    :class:`~repro.core.time_model.TimeInterval`.

    Args:
        event_id: Emitted event identifier.
        quantity: Observation attribute to watch.
        op: Relational operator of the predicate.
        threshold: Predicate constant.
        min_duration: Minimum interval length to report (ticks).
        gap_tolerance: Dropout length bridged without closing (ticks).
        emit_open: Also emit an instance when the interval opens (with
            an open-ended ``t_eo``).
        noise_sigma: Sensor noise used to derive the instance
            confidence from the measurement margin (0 = always 1.0).
    """

    event_id: str
    quantity: str
    op: RelationalOp
    threshold: float
    min_duration: int = 0
    gap_tolerance: int = 0
    emit_open: bool = False
    noise_sigma: float = 0.0


class SensorMote(ObserverComponent):
    """First-level observer: observations in, sensor events out.

    Args:
        name: Mote identifier ``MT_id`` (must match its topology node).
        location: Deployment position.
        sim: Simulation kernel.
        world: The physical world to sample.
        sensors: Sensing devices installed on this mote.
        sampling_period: Ticks between sampling rounds.
        network: Wireless network for converge-cast to the sink
            (``None`` for an isolated mote, e.g. in unit tests).
        specs: Sensor event specifications (punctual conditions).
        interval_events: Interval event configurations.
        sampling_offset: First sampling tick (stagger motes to avoid
            synchronized storms); defaults to one period.
        engine: Empty engine to install ``specs`` into (see
            :class:`~repro.cps.component.ObserverComponent`).
        trace: Optional trace recorder.
    """

    def __init__(
        self,
        name: str,
        location: PointLocation,
        sim: Simulator,
        world: PhysicalWorld,
        sensors: Sequence[Sensor],
        sampling_period: int,
        network: WirelessNetwork | None = None,
        specs: Sequence[EventSpecification] = (),
        interval_events: Sequence[IntervalEventConfig] = (),
        sampling_offset: int | None = None,
        engine: DetectionEngine | None = None,
        trace: TraceRecorder | None = None,
    ):
        super().__init__(
            name,
            location,
            sim,
            kind=ObserverKind.SENSOR_MOTE,
            layer=EventLayer.SENSOR,
            instance_cls=SensorEventInstance,
            specs=specs,
            engine=engine,
            trace=trace,
        )
        if sampling_period < 1:
            raise ComponentError("sampling period must be >= 1 tick")
        if not sensors:
            raise ComponentError(f"mote {name!r} has no sensors")
        self.world = world
        self.sensors = list(sensors)
        self.sampling_period = sampling_period
        self.sampling_offset = sampling_offset
        self.network = network
        self.interval_events = list(interval_events)
        self._builders = {
            config.event_id: IntervalBuilder(
                config.min_duration, config.gap_tolerance
            )
            for config in self.interval_events
        }
        # Last value observed while the predicate held: the instance's
        # attribute/confidence must reflect the event, not the sample
        # that ended it.
        self._active_values: dict[str, float] = {}
        self.observations: list[PhysicalObservation] = []
        self._started = False

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Begin the periodic sampling process."""
        if self._started:
            raise ComponentError(f"mote {self.name!r} already started")
        self._started = True
        start = (
            self.sampling_offset
            if self.sampling_offset is not None
            else self.sim.tick + self.sampling_period
        )
        self.sim.every(self.sampling_period, self.sample_once, start=start)

    def sample_once(self) -> None:
        """One sampling round over every installed sensor.

        The round's observations are ingested as one batch, so a
        multi-sensor mote pays window/index maintenance once per round
        instead of once per sensor.
        """
        tick = self.sim.tick
        round_observations = []
        for sensor in self.sensors:
            observation = sensor.sample(self.world, self.name, self.location, tick)
            if observation is None:
                self.record("sample.failed", sensor=sensor.sensor_id)
                continue
            round_observations.append(observation)
            self.observations.append(observation)
            self.record(
                "sample.ok",
                sensor=sensor.sensor_id,
                **{k: v for k, v in observation.attributes.items()},
            )
        if round_observations:
            self.ingest_batch(round_observations)
        for observation in round_observations:
            self._update_interval_events(observation, tick)

    # -- interval events -------------------------------------------------

    def _update_interval_events(
        self, observation: PhysicalObservation, tick: int
    ) -> None:
        for config in self.interval_events:
            if config.quantity not in observation.attributes:
                continue
            value = float(observation.attributes[config.quantity])
            active = config.op.apply(value, config.threshold)
            if active:
                self._active_values[config.event_id] = value
            builder = self._builders[config.event_id]
            for transition in builder.update(config.event_id, active, tick):
                if transition.kind is TransitionKind.OPENED and config.emit_open:
                    self._emit_interval(config, transition.interval, value)
                elif transition.kind is TransitionKind.CLOSED:
                    self._emit_interval(config, transition.interval, value)

    def _emit_interval(
        self,
        config: IntervalEventConfig,
        interval: TimeInterval,
        value: float,
    ) -> None:
        margin_value = self._active_values.get(config.event_id, value)
        if config.noise_sigma > 0:
            if config.op in (RelationalOp.GT, RelationalOp.GE):
                rho = confidence_from_margin(
                    margin_value, config.threshold, config.noise_sigma
                )
            elif config.op in (RelationalOp.LT, RelationalOp.LE):
                rho = confidence_from_margin(
                    -margin_value, -config.threshold, config.noise_sigma
                )
            else:
                rho = 1.0
        else:
            rho = 1.0
        instance = SensorEventInstance(
            observer=self.observer_id,
            event_id=config.event_id,
            seq=self.next_seq(config.event_id),
            generated_time=self.sim.now,
            generated_location=self.location,
            estimated_time=interval,
            estimated_location=self.location,
            attributes={config.quantity: margin_value, "phase": (
                "open" if interval.is_open else "closed"
            )},
            confidence=rho,
            layer=EventLayer.SENSOR,
        )
        self.emit_direct(instance)

    def open_interval_elapsed(self, event_id: str) -> int | None:
        """Ticks a configured interval event has currently been open."""
        builder = self._builders.get(event_id)
        if builder is None:
            return None
        return builder.elapsed(event_id, self.sim.tick)

    # -- distribution -----------------------------------------------------

    def distribute(self, instance: EventInstance) -> None:
        """Send the instance up the routing tree toward the sink."""
        if self.network is None:
            return
        self.network.send_to_root(
            self.name, instance, PacketKind.EVENT_INSTANCE
        )


class ActorMote(ObserverComponent):
    """Actuation-side mote: receives commands, drives actuators.

    Args:
        name: Mote identifier.
        location: Deployment position.
        sim: Simulation kernel.
        world: The physical world commands act on.
        actuators: Installed actuation devices.
        on_executed: Optional callback after each execution (Figure 1's
            "Publish Executed Actuator Commands").
        trace: Optional trace recorder.
    """

    def __init__(
        self,
        name: str,
        location: PointLocation,
        sim: Simulator,
        world: PhysicalWorld,
        actuators: Sequence[Actuator],
        on_executed: Callable[[ActuatorCommand, int], None] | None = None,
        trace: TraceRecorder | None = None,
    ):
        super().__init__(
            name,
            location,
            sim,
            kind=ObserverKind.SENSOR_MOTE,
            layer=EventLayer.SENSOR,
            instance_cls=SensorEventInstance,
            specs=(),
            trace=trace,
        )
        if not actuators:
            raise ComponentError(f"actor mote {name!r} has no actuators")
        self.world = world
        self.actuators = list(actuators)
        self.on_executed = on_executed
        self.commands_received: list[ActuatorCommand] = []

    def receive_command(self, command: ActuatorCommand) -> None:
        """Queue a command for execution on a matching actuator."""
        self.commands_received.append(command)
        actuator = next(
            (a for a in self.actuators if a.can_execute(command)), None
        )
        if actuator is None:
            self.record("command.unsupported", kind=command.kind)
            return

        def execute() -> None:
            actuator.execute(command, self.world, self.sim.tick)
            self.record(
                "command.executed",
                kind=command.kind,
                command_id=command.command_id,
                issued=command.issued_tick,
                latency=self.sim.tick - command.issued_tick,
            )
            if self.on_executed is not None:
                self.on_executed(command, self.sim.tick)

        self.sim.schedule(actuator.actuation_ticks, execute)
