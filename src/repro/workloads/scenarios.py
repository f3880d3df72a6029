"""Pre-built end-to-end scenarios for examples, tests and benchmarks.

Three scenarios exercise the paper's motivating workloads:

* :func:`build_smart_building` — the running example "user A is nearby
  window B for the last 30 minutes" (Sections 1 and 4.2): range sensors
  track the user, motes build the nearby interval, the sink promotes
  long stays to cyber-physical events, the CCU adjusts the HVAC;
* :func:`build_forest_fire` — the canonical field event (Section 4.2):
  a cellular fire spreads, motes flag hot readings, the sink fuses them
  into a spatio-temporal ``fire_suspected`` field event, the CCU
  triggers suppression that actually stops the spread — a full
  closed loop;
* :func:`build_intrusion` — the spatio-temporal composite of condition
  S1: an intruder crosses a secured zone, several motes report range
  detections, the sink trilaterates the position and the CCU raises an
  alarm.

Each builder returns a :class:`Scenario` carrying the wired
:class:`~repro.cps.system.CPSSystem`, the scenario parameters, and the
handles needed for ground-truth scoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.conditions import (
    AttributeCondition,
    AttributeTerm,
    ConfidenceCondition,
    SpatialMeasureCondition,
    TemporalCondition,
    TemporalMeasureCondition,
    TimeOf,
)
from repro.core.composite import all_of
from repro.core.operators import RelationalOp, TemporalOp
from repro.core.space_model import BoundingBox, PointLocation
from repro.core.spec import (
    EntitySelector,
    EventSpecification,
    OutputAttribute,
    OutputPolicy,
)
from repro.cps.actions import ActionRule, ActuatorCommand
from repro.cps.actuator import Actuator
from repro.cps.mote import IntervalEventConfig
from repro.cps.sensor import RangeSensor, Sensor
from repro.cps.system import CPSSystem
from repro.network.radio import UnitDiskRadio
from repro.network.topology import grid_topology
from repro.physical.fire import FireModel, FireTemperatureField
from repro.physical.mobility import PatrolTrajectory, WaypointTrajectory
from repro.physical.objects import PhysicalObject
from repro.shard.engine import EngineConfig

__all__ = [
    "Scenario",
    "build_smart_building",
    "build_forest_fire",
    "build_intrusion",
]


@dataclass
class Scenario:
    """A fully wired system plus scoring handles."""

    system: CPSSystem
    params: Mapping[str, object]
    handles: dict[str, object] = field(default_factory=dict)

    @property
    def sim(self):
        return self.system.sim

    @property
    def world(self):
        return self.system.world


# ----------------------------------------------------------------------
# smart building: "user A nearby window B for the last 30 minutes"
# ----------------------------------------------------------------------

def build_smart_building(
    seed: int = 0,
    nearby_radius: float = 8.0,
    stay_ticks: int = 300,
    sampling_period: int = 5,
    approach_tick: int = 100,
    leave_tick: int = 600,
    horizon: int = 900,
    engine: EngineConfig = EngineConfig(),
) -> Scenario:
    """The paper's running example as a closed-loop system.

    The user walks to window B at ``approach_tick``, lingers until
    ``leave_tick``, then leaves.  Motes emit ``user_nearby`` interval
    events; the sink promotes intervals longer than ``stay_ticks`` to
    ``long_stay`` cyber-physical events; the CCU's rule issues an
    ``adjust_hvac`` command.
    """
    system = CPSSystem(seed=seed, engine=engine)
    window_pos = PointLocation(20.0, 20.0)
    far = PointLocation(0.0, 0.0)
    user = PhysicalObject(
        "userA",
        WaypointTrajectory(
            [
                (0, far),
                (approach_tick, window_pos.translate(1.0, 0.0)),
                (leave_tick, window_pos.translate(1.0, 0.0)),
                (leave_tick + 60, far),
            ]
        ),
    )
    window = PhysicalObject("windowB", window_pos)
    system.world.add_object(user)
    system.world.add_object(window)
    hvac_commands: list[tuple[int, Mapping[str, object]]] = []
    system.world.on_actuation(
        "adjust_hvac", lambda payload, tick: hvac_commands.append((tick, payload))
    )

    topology = grid_topology(3, 3, 10.0, UnitDiskRadio(15.0))
    system.build_sensor_network(topology, sink_names=["MT0_0"])

    nearby_config = IntervalEventConfig(
        event_id="user_nearby",
        quantity="range:userA",
        op=RelationalOp.LE,
        threshold=nearby_radius,
        min_duration=2 * sampling_period,
        gap_tolerance=2 * sampling_period,
        noise_sigma=0.5,
    )
    for name in topology.names:
        if name == "MT0_0":
            continue
        system.add_mote(
            name,
            [
                RangeSensor(
                    "SRr",
                    "userA",
                    system.sim.rng.stream(f"{name}.range"),
                    noise_sigma=0.3,
                    max_range=40.0,
                )
            ],
            sampling_period=sampling_period,
            interval_events=[nearby_config],
        )

    long_stay = EventSpecification(
        event_id="long_stay",
        selectors={"e": EntitySelector(kinds={"user_nearby"})},
        condition=TemporalMeasureCondition(
            "duration", ("e",), RelationalOp.GE, stay_ticks
        ),
        window=0,
        cooldown=stay_ticks,
        output=OutputPolicy(time="span", space="centroid", confidence="min"),
        description="user stayed nearby the window for the full threshold",
    )
    system.add_sink("MT0_0", specs=[long_stay])

    presence_alert = EventSpecification(
        event_id="presence_alert",
        selectors={"e": EntitySelector(kinds={"long_stay"})},
        condition=ConfidenceCondition("e", RelationalOp.GE, 0.3),
        window=0,
        cooldown=stay_ticks,
        output=OutputPolicy(time="span", space="centroid"),
    )
    rule = ActionRule(
        "presence_alert",
        lambda instance, tick: [
            ActuatorCommand(
                "adjust_hvac",
                {"mode": "comfort", "cause": instance.event_id},
                ("AR1",),
                tick,
                cause=instance.key,
            )
        ],
        cooldown=stay_ticks,
    )
    system.add_ccu("CCU1", PointLocation(-10.0, -10.0),
                   specs=[presence_alert], rules=[rule])
    system.add_dispatch("D1", PointLocation(-10.0, 0.0))
    system.add_actor_mote(
        "AR1", [Actuator("hvac", "adjust_hvac")], location=window_pos
    )
    system.add_database("DB1")

    return Scenario(
        system=system,
        params={
            "nearby_radius": nearby_radius,
            "stay_ticks": stay_ticks,
            "sampling_period": sampling_period,
            "approach_tick": approach_tick,
            "leave_tick": leave_tick,
            "horizon": horizon,
        },
        handles={
            "user": user,
            "window": window,
            "hvac_commands": hvac_commands,
        },
    )


# ----------------------------------------------------------------------
# forest fire: the canonical field event, with suppression
# ----------------------------------------------------------------------

def build_forest_fire(
    seed: int = 0,
    rows: int = 5,
    cols: int = 5,
    spacing: float = 15.0,
    hot_threshold: float = 60.0,
    ignition_tick: int = 100,
    sampling_period: int = 10,
    suppress: bool = True,
    spread_probability: float = 0.35,
    horizon: int = 800,
    engine: EngineConfig = EngineConfig(),
) -> Scenario:
    """Forest-fire detection with an actuated suppression loop.

    A fire ignites at ``ignition_tick`` near the area center; motes flag
    hot readings; the sink fuses two nearby, temporally ordered hot
    reports into a ``fire_suspected`` *field* event (hull of the
    reporting motes); the CCU commands suppression, which zeroes the
    spread probability — measurably bounding the burned fraction.
    """
    system = CPSSystem(seed=seed, engine=engine)
    extent = BoundingBox(
        -spacing, -spacing, cols * spacing + spacing, rows * spacing + spacing
    )
    fire = FireModel(
        extent,
        nx=30,
        ny=30,
        spread_probability=spread_probability,
        burn_duration=120,
        rng=system.sim.rng.stream("fire"),
    )
    temperature = FireTemperatureField(fire, ambient=20.0, peak=400.0, sigma=8.0)
    system.world.add_field("temperature", temperature)
    ignition_point = PointLocation(
        cols * spacing / 2.0, rows * spacing / 2.0
    )
    system.sim.schedule_at(
        ignition_tick, lambda: fire.ignite(ignition_point, ignition_tick)
    )
    suppress_log: list[int] = []

    def handle_suppress(payload: Mapping[str, object], tick: int) -> None:
        suppress_log.append(tick)
        if suppress:
            fire.suppress(factor=0.0, extinguish=False)

    system.world.on_actuation("suppress", handle_suppress)

    topology = grid_topology(rows, cols, spacing, UnitDiskRadio(spacing * 1.6))
    sink_name = "MT0_0"
    system.build_sensor_network(topology, sink_names=[sink_name])

    hot = EventSpecification(
        event_id="hot_reading",
        selectors={"x": EntitySelector(kinds={"temperature"})},
        condition=AttributeCondition(
            "last", (AttributeTerm("x", "temperature"),),
            RelationalOp.GT, hot_threshold,
        ),
        window=0,
        cooldown=3 * sampling_period,
        output=OutputPolicy(
            attributes=(
                OutputAttribute(
                    "temperature", "last", (AttributeTerm("x", "temperature"),)
                ),
            )
        ),
    )
    for name in topology.names:
        if name == sink_name:
            continue
        system.add_mote(
            name,
            [
                Sensor(
                    "SRt",
                    "temperature",
                    system.sim.rng.stream(f"{name}.temp"),
                    noise_sigma=1.0,
                )
            ],
            sampling_period=sampling_period,
            specs=[hot],
        )

    # Three concurring motes make the emitted instance a genuine *field*
    # event: the hull of three non-collinear reporting positions is a
    # polygon (Section 4.2 — a field occurrence "is made of at least 2
    # or more point events").
    fire_suspected = EventSpecification(
        event_id="fire_suspected",
        selectors={
            "a": EntitySelector(kinds={"hot_reading"}),
            "b": EntitySelector(kinds={"hot_reading"}),
            "c": EntitySelector(kinds={"hot_reading"}),
        },
        condition=all_of(
            TemporalCondition(TimeOf("a"), TemporalOp.BEFORE, TimeOf("c")),
            SpatialMeasureCondition(
                "diameter", ("a", "b", "c"), RelationalOp.LT, 3.0 * spacing
            ),
        ),
        window=6 * sampling_period,
        cooldown=4 * sampling_period,
        output=OutputPolicy(
            time="span",
            space="hull",
            confidence="min",
            attributes=(
                OutputAttribute(
                    "temperature",
                    "max",
                    (
                        AttributeTerm("a", "temperature"),
                        AttributeTerm("b", "temperature"),
                        AttributeTerm("c", "temperature"),
                    ),
                ),
            ),
        ),
        description="three ordered nearby hot reports (S1 shape, field output)",
    )
    system.add_sink(sink_name, specs=[fire_suspected])

    fire_alarm = EventSpecification(
        event_id="fire_alarm",
        selectors={"e": EntitySelector(kinds={"fire_suspected"})},
        condition=ConfidenceCondition("e", RelationalOp.GE, 0.2),
        window=0,
        cooldown=10 * sampling_period,
        output=OutputPolicy(time="span", space="hull"),
    )
    rule = ActionRule(
        "fire_alarm",
        lambda instance, tick: [
            ActuatorCommand(
                "suppress",
                {"area": "sector-1"},
                ("AR_fire",),
                tick,
                cause=instance.key,
            )
        ],
        cooldown=20 * sampling_period,
    )
    system.add_ccu(
        "CCU1", PointLocation(-20.0, -20.0), specs=[fire_alarm], rules=[rule]
    )
    system.add_dispatch("D1", PointLocation(-20.0, 0.0))
    system.add_actor_mote(
        "AR_fire", [Actuator("pump", "suppress")], location=ignition_point
    )
    system.add_database("DB1")

    return Scenario(
        system=system,
        params={
            "hot_threshold": hot_threshold,
            "ignition_tick": ignition_tick,
            "sampling_period": sampling_period,
            "horizon": horizon,
            "spacing": spacing,
            "suppress": suppress,
        },
        handles={
            "fire": fire,
            "temperature": temperature,
            "ignition_point": ignition_point,
            "suppress_log": suppress_log,
            "extent": extent,
        },
    )


# ----------------------------------------------------------------------
# intrusion: condition S1 with trilateration
# ----------------------------------------------------------------------

def build_intrusion(
    seed: int = 0,
    rows: int = 4,
    cols: int = 4,
    spacing: float = 10.0,
    detect_range: float = 9.0,
    sampling_period: int = 2,
    patrol_speed: float = 0.8,
    horizon: int = 600,
    engine: EngineConfig = EngineConfig(),
) -> Scenario:
    """Intruder tracking with spatio-temporal fusion and trilateration.

    The intruder patrols through the sensed field; motes emit punctual
    ``presence`` point events carrying their measured range; the sink
    requires three distinct motes to concur within a window and close
    distance (condition S1 extended to three entities), trilaterates
    the position, and the CCU raises ``intruder_alarm``.
    """
    system = CPSSystem(seed=seed, engine=engine)
    width = (cols - 1) * spacing
    height = (rows - 1) * spacing
    intruder = PhysicalObject(
        "intruder",
        PatrolTrajectory(
            [
                PointLocation(-5.0, height / 2.0),
                PointLocation(width / 2.0, height / 2.0),
                PointLocation(width + 5.0, height / 4.0),
                PointLocation(width / 2.0, -5.0),
            ],
            speed=patrol_speed,
        ),
    )
    system.world.add_object(intruder)
    alarm_log: list[int] = []
    system.world.on_actuation(
        "sound_alarm", lambda payload, tick: alarm_log.append(tick)
    )

    topology = grid_topology(rows, cols, spacing, UnitDiskRadio(spacing * 1.6))
    sink_name = "MT0_0"
    system.build_sensor_network(topology, sink_names=[sink_name])

    presence = EventSpecification(
        event_id="presence",
        selectors={"x": EntitySelector(kinds={"range:intruder"})},
        condition=AttributeCondition(
            "last",
            (AttributeTerm("x", "range:intruder"),),
            RelationalOp.LT,
            detect_range,
        ),
        window=0,
        cooldown=sampling_period,
        output=OutputPolicy(
            attributes=(
                OutputAttribute(
                    "range:intruder",
                    "last",
                    (AttributeTerm("x", "range:intruder"),),
                ),
            )
        ),
    )
    for name in topology.names:
        if name == sink_name:
            continue
        system.add_mote(
            name,
            [
                RangeSensor(
                    "SRr",
                    "intruder",
                    system.sim.rng.stream(f"{name}.range"),
                    noise_sigma=0.2,
                    max_range=detect_range * 2.0,
                )
            ],
            sampling_period=sampling_period,
        )
        system.motes[name].add_spec(presence)

    track = EventSpecification(
        event_id="intruder_track",
        selectors={
            "a": EntitySelector(kinds={"presence"}),
            "b": EntitySelector(kinds={"presence"}),
            "c": EntitySelector(kinds={"presence"}),
        },
        condition=all_of(
            TemporalCondition(TimeOf("a"), TemporalOp.BEFORE, TimeOf("c")),
            SpatialMeasureCondition(
                "diameter", ("a", "b", "c"), RelationalOp.LT, 3.0 * spacing
            ),
        ),
        window=6 * sampling_period,
        cooldown=5 * sampling_period,
        output=OutputPolicy(
            time="latest",
            space="centroid",
            confidence="mean",
            attributes=(
                OutputAttribute(
                    "range:intruder",
                    "min",
                    (
                        AttributeTerm("a", "range:intruder"),
                        AttributeTerm("b", "range:intruder"),
                        AttributeTerm("c", "range:intruder"),
                    ),
                ),
            ),
        ),
    )
    system.add_sink(
        sink_name, specs=[track], trilaterate_attribute="range:intruder"
    )

    alarm = EventSpecification(
        event_id="intruder_alarm",
        selectors={"e": EntitySelector(kinds={"intruder_track"})},
        condition=ConfidenceCondition("e", RelationalOp.GE, 0.2),
        window=0,
        cooldown=10 * sampling_period,
    )
    rule = ActionRule(
        "intruder_alarm",
        lambda instance, tick: [
            ActuatorCommand(
                "sound_alarm", {"zone": "perimeter"}, ("AR_siren",), tick,
                cause=instance.key,
            )
        ],
        cooldown=20 * sampling_period,
    )
    system.add_ccu(
        "CCU1", PointLocation(-15.0, -15.0), specs=[alarm], rules=[rule]
    )
    system.add_dispatch("D1", PointLocation(-15.0, 0.0))
    system.add_actor_mote(
        "AR_siren",
        [Actuator("siren", "sound_alarm")],
        location=PointLocation(width / 2.0, height / 2.0),
    )
    system.add_database("DB1")

    return Scenario(
        system=system,
        params={
            "detect_range": detect_range,
            "sampling_period": sampling_period,
            "horizon": horizon,
            "spacing": spacing,
        },
        handles={"intruder": intruder, "alarm_log": alarm_log},
    )
