"""Additional end-to-end scenario families beyond the paper's trio.

The seed scenarios (:mod:`repro.workloads.scenarios`) cover the paper's
motivating workloads; these families grow the matrix toward the
cases spatio-temporal monitoring work stresses — mobile entities,
several sinks on one fabric, degraded substrates, event densities
that exercise the spatial index, reordering transports and overload:

* :func:`build_convoy_pursuit` — two waypoint-mobile objects (a convoy
  leader and a pursuer) cross the sensed field; motes emit per-target
  presence events and the sink fuses them into a *moving* composite
  ``pursuit`` event whose location follows the chase;
* :func:`build_urban_campus` — one wireless fabric shared by two sink
  nodes (west/east campus); a patrol vehicle triggers per-zone activity
  events at both sinks and the CCU correlates cyber-physical instances
  *across sinks* into a campus-wide ``campus_sweep`` cyber event;
* :func:`build_sensor_failure_storm` — a lossy radio plus a scheduled
  sensor-failure storm (failure probability spikes mid-run, then
  recovers), exercising confidence fusion and detection under
  degradation without crashes;
* :func:`build_high_density` — a dense mote grid with pulsing plume
  sources producing clustered warm readings, stressing the role
  windows' distance masks with pair conditions over large windows;
* :func:`build_jittery_corridor` — a heavy-backoff fabric that delivers
  sightings out of event-time order, the streaming runtime's workload;
* :func:`build_sharded_metro` — a wide multi-sink corridor whose load
  sweeps every spatial partition, the shard-scaling workload;
* :func:`build_overload_surge` — a field-wide plume burst through a
  jittery fabric turns every mote warm every round: the sink's ingest
  rate spikes far above steady state, saturating any bounded reorder
  buffer or rate limit — the admission-control workload;
* :func:`build_flaky_uplink` — a lossy *and* jittery uplink (log-
  distance drops, CSMA backoff, retransmissions) delivers rover
  sightings late, swapped and thinned — the fault-injection workload
  behind the chaos-conformance suite.

Every builder is deterministic given its seed, returns a
:class:`~repro.workloads.scenarios.Scenario`, accepts one ``engine``
(:class:`~repro.shard.engine.EngineConfig`, handed straight to
:class:`~repro.cps.system.CPSSystem`; the conformance harness runs each
family naive, planned and sharded), and closes the full Figure 1 loop:
motes → sink(s) → CCU → actuation.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.conditions import (
    AttributeCondition,
    AttributeTerm,
    ConfidenceCondition,
    SpatialMeasureCondition,
    TemporalCondition,
    TimeOf,
)
from repro.core.composite import all_of
from repro.core.operators import RelationalOp, TemporalOp
from repro.core.space_model import PointLocation
from repro.core.spec import (
    EntitySelector,
    EventSpecification,
    OutputAttribute,
    OutputPolicy,
)
from repro.cps.actions import ActionRule, ActuatorCommand
from repro.cps.actuator import Actuator
from repro.cps.sensor import RangeSensor, Sensor
from repro.cps.system import CPSSystem
from repro.network.radio import LogDistanceRadio, UnitDiskRadio
from repro.network.topology import grid_topology
from repro.physical.fields import GaussianPlumeField, PlumeSource, UniformField
from repro.physical.mobility import PatrolTrajectory, WaypointTrajectory
from repro.physical.objects import PhysicalObject
from repro.shard.engine import EngineConfig
from repro.workloads.scenarios import Scenario

__all__ = [
    "build_convoy_pursuit",
    "build_urban_campus",
    "build_sensor_failure_storm",
    "build_high_density",
    "build_sharded_metro",
    "build_jittery_corridor",
    "build_overload_surge",
    "build_flaky_uplink",
]


def _alarm_rule(
    event_id: str,
    command_kind: str,
    targets: tuple[str, ...],
    payload: Mapping[str, object],
    cooldown: int,
) -> ActionRule:
    return ActionRule(
        event_id,
        lambda instance, tick: [
            ActuatorCommand(
                command_kind, dict(payload), targets, tick, cause=instance.key
            )
        ],
        cooldown=cooldown,
    )


# ----------------------------------------------------------------------
# convoy / pursuit: waypoint mobility + moving composite events
# ----------------------------------------------------------------------

def build_convoy_pursuit(
    seed: int = 0,
    rows: int = 3,
    cols: int = 6,
    spacing: float = 10.0,
    detect_range: float = 9.0,
    sampling_period: int = 3,
    leader_arrival: int = 350,
    pursuer_start: int = 60,
    pursuer_arrival: int = 330,
    horizon: int = 420,
    pursuit_window_rounds: int = 8,
    pursuit_cooldown_rounds: int = 4,
    engine: EngineConfig = EngineConfig(),
) -> Scenario:
    """A pursuer chases a convoy leader across the sensed corridor.

    Both objects follow waypoint trajectories along the corridor's mid
    row; the pursuer enters at ``pursuer_start`` and closes the gap.
    Motes emit ``leader_seen`` / ``pursuer_seen`` point events; the sink
    fuses a leader sighting followed by a nearby pursuer sighting into a
    ``pursuit`` composite whose centroid tracks the chase; the CCU
    raises ``pursuit_alarm`` and illuminates the corridor.

    ``pursuit_window_rounds`` / ``pursuit_cooldown_rounds`` size the
    sink's ``pursuit`` window and cooldown in sampling rounds (the
    medium registry preset widens the window for benchmark pressure;
    defaults preserve the golden-pinned small behavior).
    """
    system = CPSSystem(seed=seed, engine=engine)
    width = (cols - 1) * spacing
    mid_y = (rows - 1) * spacing / 2.0
    entry = PointLocation(-6.0, mid_y)
    exit_ = PointLocation(width + 6.0, mid_y)
    leader = PhysicalObject(
        "leader",
        WaypointTrajectory([(0, entry), (leader_arrival, exit_)]),
    )
    pursuer = PhysicalObject(
        "pursuer",
        WaypointTrajectory(
            [(0, entry), (pursuer_start, entry), (pursuer_arrival, exit_)]
        ),
    )
    system.world.add_object(leader)
    system.world.add_object(pursuer)
    alarm_log: list[int] = []
    system.world.on_actuation(
        "illuminate", lambda payload, tick: alarm_log.append(tick)
    )

    topology = grid_topology(rows, cols, spacing, UnitDiskRadio(spacing * 1.6))
    sink_name = "MT0_0"
    system.build_sensor_network(topology, sink_names=[sink_name])

    def seen_spec(event_id: str, target: str) -> EventSpecification:
        quantity = f"range:{target}"
        return EventSpecification(
            event_id=event_id,
            selectors={"x": EntitySelector(kinds={quantity})},
            condition=AttributeCondition(
                "last", (AttributeTerm("x", quantity),),
                RelationalOp.LT, detect_range,
            ),
            window=0,
            cooldown=sampling_period,
            output=OutputPolicy(
                attributes=(
                    OutputAttribute(
                        quantity, "last", (AttributeTerm("x", quantity),)
                    ),
                )
            ),
        )

    leader_seen = seen_spec("leader_seen", "leader")
    pursuer_seen = seen_spec("pursuer_seen", "pursuer")
    for name in topology.names:
        if name == sink_name:
            continue
        system.add_mote(
            name,
            [
                RangeSensor(
                    "SRl", "leader",
                    system.sim.rng.stream(f"{name}.leader"),
                    noise_sigma=0.25, max_range=detect_range * 2.0,
                ),
                RangeSensor(
                    "SRp", "pursuer",
                    system.sim.rng.stream(f"{name}.pursuer"),
                    noise_sigma=0.25, max_range=detect_range * 2.0,
                ),
            ],
            sampling_period=sampling_period,
            specs=[leader_seen, pursuer_seen],
        )

    pursuit = EventSpecification(
        event_id="pursuit",
        selectors={
            "l": EntitySelector(kinds={"leader_seen"}),
            "p": EntitySelector(kinds={"pursuer_seen"}),
        },
        condition=all_of(
            TemporalCondition(TimeOf("l"), TemporalOp.BEFORE, TimeOf("p")),
            SpatialMeasureCondition(
                "distance", ("l", "p"), RelationalOp.LT, 1.5 * spacing
            ),
        ),
        window=pursuit_window_rounds * sampling_period,
        cooldown=pursuit_cooldown_rounds * sampling_period,
        output=OutputPolicy(time="latest", space="centroid", confidence="mean"),
        description="a pursuer sighted close behind the convoy leader",
    )
    system.add_sink(sink_name, specs=[pursuit])

    alarm = EventSpecification(
        event_id="pursuit_alarm",
        selectors={"e": EntitySelector(kinds={"pursuit"})},
        condition=ConfidenceCondition("e", RelationalOp.GE, 0.2),
        window=0,
        cooldown=10 * sampling_period,
        output=OutputPolicy(time="latest", space="centroid"),
    )
    system.add_ccu(
        "CCU1",
        PointLocation(-12.0, -12.0),
        specs=[alarm],
        rules=[
            _alarm_rule(
                "pursuit_alarm", "illuminate", ("AR_light",),
                {"zone": "corridor"}, 12 * sampling_period,
            )
        ],
    )
    system.add_dispatch("D1", PointLocation(-12.0, 0.0))
    system.add_actor_mote(
        "AR_light",
        [Actuator("floodlight", "illuminate")],
        location=PointLocation(width / 2.0, mid_y),
    )
    system.add_database("DB1")

    return Scenario(
        system=system,
        params={
            "detect_range": detect_range,
            "sampling_period": sampling_period,
            "horizon": horizon,
            "spacing": spacing,
            "pursuer_start": pursuer_start,
        },
        handles={"leader": leader, "pursuer": pursuer, "alarm_log": alarm_log},
    )


# ----------------------------------------------------------------------
# urban campus: several sinks on one fabric, cross-sink hierarchy
# ----------------------------------------------------------------------

def build_urban_campus(
    seed: int = 0,
    rows: int = 4,
    cols: int = 8,
    spacing: float = 10.0,
    detect_range: float = 9.0,
    sampling_period: int = 3,
    patrol_speed: float = 0.9,
    horizon: int = 500,
    engine: EngineConfig = EngineConfig(),
) -> Scenario:
    """A patrol vehicle crosses a campus served by two sink nodes.

    One wireless fabric carries two converge-cast roots (``MT0_0`` west,
    the far-corner mote east); every other mote routes to its nearest
    sink.  Both sinks evaluate the same ``zone_activity`` specification
    over their own subtree's ``vehicle_seen`` events, and the CCU —
    subscribed to both sinks on the shared bus — fuses two distant
    activity instances into a ``campus_sweep`` cyber event: an event
    hierarchy that no single sink can observe alone.
    """
    system = CPSSystem(seed=seed, engine=engine)
    width = (cols - 1) * spacing
    height = (rows - 1) * spacing
    vehicle = PhysicalObject(
        "vehicle",
        PatrolTrajectory(
            [
                PointLocation(0.0, 0.0),
                PointLocation(width, 0.0),
                PointLocation(width, height),
                PointLocation(0.0, height),
            ],
            speed=patrol_speed,
        ),
    )
    system.world.add_object(vehicle)
    notice_log: list[int] = []
    system.world.on_actuation(
        "campus_notice", lambda payload, tick: notice_log.append(tick)
    )

    topology = grid_topology(rows, cols, spacing, UnitDiskRadio(spacing * 1.6))
    west_sink = "MT0_0"
    east_sink = f"MT{rows - 1}_{cols - 1}"
    system.build_sensor_network(topology, sink_names=[west_sink, east_sink])

    vehicle_seen = EventSpecification(
        event_id="vehicle_seen",
        selectors={"x": EntitySelector(kinds={"range:vehicle"})},
        condition=AttributeCondition(
            "last", (AttributeTerm("x", "range:vehicle"),),
            RelationalOp.LT, detect_range,
        ),
        window=0,
        cooldown=sampling_period,
        output=OutputPolicy(
            attributes=(
                OutputAttribute(
                    "range:vehicle", "last",
                    (AttributeTerm("x", "range:vehicle"),),
                ),
            )
        ),
    )
    for name in topology.names:
        if name in (west_sink, east_sink):
            continue
        system.add_mote(
            name,
            [
                RangeSensor(
                    "SRv", "vehicle",
                    system.sim.rng.stream(f"{name}.vehicle"),
                    noise_sigma=0.25, max_range=detect_range * 2.0,
                )
            ],
            sampling_period=sampling_period,
            specs=[vehicle_seen],
        )

    def zone_spec() -> EventSpecification:
        return EventSpecification(
            event_id="zone_activity",
            selectors={
                "a": EntitySelector(kinds={"vehicle_seen"}),
                "b": EntitySelector(kinds={"vehicle_seen"}),
            },
            condition=all_of(
                TemporalCondition(TimeOf("a"), TemporalOp.BEFORE, TimeOf("b")),
                SpatialMeasureCondition(
                    "distance", ("a", "b"), RelationalOp.LT, 2.0 * spacing
                ),
            ),
            window=6 * sampling_period,
            cooldown=3 * sampling_period,
            output=OutputPolicy(
                time="latest", space="centroid", confidence="mean"
            ),
            description="two concurring vehicle sightings in one zone",
        )

    # Each sink gets its own specification object: engines are
    # per-observer and spec ids only need uniqueness within one engine.
    system.add_sink(west_sink, specs=[zone_spec()])
    system.add_sink(east_sink, specs=[zone_spec()])

    campus_sweep = EventSpecification(
        event_id="campus_sweep",
        selectors={
            "w": EntitySelector(kinds={"zone_activity"}),
            "e": EntitySelector(kinds={"zone_activity"}),
        },
        condition=all_of(
            TemporalCondition(TimeOf("w"), TemporalOp.BEFORE, TimeOf("e")),
            SpatialMeasureCondition(
                "distance", ("w", "e"), RelationalOp.GT, 3.0 * spacing
            ),
        ),
        window=40 * sampling_period,
        cooldown=20 * sampling_period,
        output=OutputPolicy(time="span", space="hull", confidence="min"),
        description="activity in two distant campus zones (cross-sink)",
    )
    system.add_ccu(
        "CCU1",
        PointLocation(-15.0, -15.0),
        specs=[campus_sweep],
        rules=[
            _alarm_rule(
                "campus_sweep", "campus_notice", ("AR_pa",),
                {"channel": "security"}, 30 * sampling_period,
            )
        ],
    )
    system.add_dispatch("D1", PointLocation(-15.0, 0.0))
    system.add_actor_mote(
        "AR_pa",
        [Actuator("public_address", "campus_notice")],
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
            "sinks": (west_sink, east_sink),
        },
        handles={"vehicle": vehicle, "notice_log": notice_log},
    )


# ----------------------------------------------------------------------
# sensor-failure storm: failure injection + dropped packets
# ----------------------------------------------------------------------

def build_sensor_failure_storm(
    seed: int = 0,
    rows: int = 4,
    cols: int = 4,
    spacing: float = 10.0,
    hot_threshold: float = 77.0,
    sampling_period: int = 5,
    base_failure: float = 0.02,
    storm_failure: float = 0.5,
    storm_start: int = 150,
    storm_end: int = 300,
    max_retries: int = 2,
    horizon: int = 450,
    engine: EngineConfig = EngineConfig(),
) -> Scenario:
    """Detection through a mid-run sensor-failure storm on a lossy WSN.

    The world is uniformly hot, so every healthy sample is a potential
    ``hot_reading``; the radio is log-distance lossy (packets genuinely
    drop) and between ``storm_start`` and ``storm_end`` every sensor's
    failure probability spikes to ``storm_failure`` — observations thin
    out, composite detections degrade, and everything must recover after
    the storm without corrupted state.
    """
    system = CPSSystem(seed=seed, engine=engine)
    system.world.add_field("temperature", UniformField(80.0))
    vent_log: list[int] = []
    system.world.on_actuation(
        "ventilate", lambda payload, tick: vent_log.append(tick)
    )

    topology = grid_topology(
        rows, cols, spacing, LogDistanceRadio(d50=spacing * 1.05, width=2.5)
    )
    sink_name = "MT0_0"
    system.build_sensor_network(
        topology, sink_names=[sink_name], max_retries=max_retries
    )

    hot = EventSpecification(
        event_id="hot_reading",
        selectors={"x": EntitySelector(kinds={"temperature"})},
        condition=AttributeCondition(
            "last", (AttributeTerm("x", "temperature"),),
            RelationalOp.GT, hot_threshold,
        ),
        window=0,
        cooldown=2 * sampling_period,
        output=OutputPolicy(
            attributes=(
                OutputAttribute(
                    "temperature", "last", (AttributeTerm("x", "temperature"),)
                ),
            )
        ),
    )
    sensors: list[Sensor] = []
    for name in topology.names:
        if name == sink_name:
            continue
        sensor = Sensor(
            "SRt", "temperature",
            system.sim.rng.stream(f"{name}.temp"),
            noise_sigma=2.0,
            failure_probability=base_failure,
        )
        sensors.append(sensor)
        system.add_mote(
            name, [sensor], sampling_period=sampling_period, specs=[hot]
        )

    def set_failure(probability: float) -> None:
        for sensor in sensors:
            sensor.failure_probability = probability

    system.sim.schedule_at(storm_start, lambda: set_failure(storm_failure))
    system.sim.schedule_at(storm_end, lambda: set_failure(base_failure))

    hot_cluster = EventSpecification(
        event_id="hot_cluster",
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
            time="span", space="hull", confidence="min",
            attributes=(
                OutputAttribute(
                    "temperature", "max",
                    (
                        AttributeTerm("a", "temperature"),
                        AttributeTerm("b", "temperature"),
                        AttributeTerm("c", "temperature"),
                    ),
                ),
            ),
        ),
        description="three concurring hot reports despite degradation",
    )
    system.add_sink(sink_name, specs=[hot_cluster])

    heat_alert = EventSpecification(
        event_id="heat_alert",
        selectors={"e": EntitySelector(kinds={"hot_cluster"})},
        condition=ConfidenceCondition("e", RelationalOp.GE, 0.3),
        window=0,
        cooldown=10 * sampling_period,
        output=OutputPolicy(time="span", space="hull"),
    )
    system.add_ccu(
        "CCU1",
        PointLocation(-12.0, -12.0),
        specs=[heat_alert],
        rules=[
            _alarm_rule(
                "heat_alert", "ventilate", ("AR_vent",),
                {"mode": "max"}, 20 * sampling_period,
            )
        ],
    )
    system.add_dispatch("D1", PointLocation(-12.0, 0.0))
    system.add_actor_mote(
        "AR_vent",
        [Actuator("fan", "ventilate")],
        location=PointLocation(
            (cols - 1) * spacing / 2.0, (rows - 1) * spacing / 2.0
        ),
    )
    system.add_database("DB1")

    return Scenario(
        system=system,
        params={
            "hot_threshold": hot_threshold,
            "sampling_period": sampling_period,
            "horizon": horizon,
            "storm_start": storm_start,
            "storm_end": storm_end,
            "base_failure": base_failure,
            "storm_failure": storm_failure,
        },
        handles={"sensors": sensors, "vent_log": vent_log},
    )


# ----------------------------------------------------------------------
# high density: role-window stress under clustered event bursts
# ----------------------------------------------------------------------

def build_high_density(
    seed: int = 0,
    rows: int = 7,
    cols: int = 7,
    spacing: float = 6.0,
    warm_threshold: float = 45.0,
    sampling_period: int = 4,
    source_amplitude: float = 70.0,
    source_sigma: float = 12.0,
    horizon: int = 240,
    pair_window_rounds: int = 5,
    pair_cooldown_rounds: int = 1,
    engine: EngineConfig = EngineConfig(),
) -> Scenario:
    """Clustered warm bursts on a dense grid stress the role windows.

    Plume sources pulse at three spots across the run; each active
    source turns the surrounding patch of the (densely packed) grid
    warm, flooding the sink's pair-condition windows with co-located
    events — the workload shape where distance-mask candidate pruning
    pays and where an unsound mask would instantly diverge from the
    naive engine.

    ``pair_window_rounds`` / ``pair_cooldown_rounds`` size the sink's
    ``warm_pair`` window and cooldown in sampling rounds; the medium
    registry preset cranks the window (and drops the cooldown) so the
    benchmark rows exercise real window pressure instead of the
    cooldown-gated trickle the small conformance preset pins.
    """
    system = CPSSystem(seed=seed, engine=engine)
    width = (cols - 1) * spacing
    height = (rows - 1) * spacing
    third = horizon // 3
    field = GaussianPlumeField(
        base=20.0,
        sources=[
            PlumeSource(
                PointLocation(width * 0.25, height * 0.25),
                amplitude=source_amplitude, sigma=source_sigma,
                start=10, end=third, ramp=8,
            ),
            PlumeSource(
                PointLocation(width * 0.75, height * 0.5),
                amplitude=source_amplitude, sigma=source_sigma,
                start=third + 10, end=2 * third, ramp=8,
            ),
            PlumeSource(
                PointLocation(width * 0.4, height * 0.8),
                amplitude=source_amplitude, sigma=source_sigma,
                start=2 * third + 10, end=horizon, ramp=8,
            ),
        ],
    )
    system.world.add_field("temperature", field)
    shutter_log: list[int] = []
    system.world.on_actuation(
        "shutter", lambda payload, tick: shutter_log.append(tick)
    )

    topology = grid_topology(rows, cols, spacing, UnitDiskRadio(spacing * 1.6))
    sink_name = "MT0_0"
    system.build_sensor_network(topology, sink_names=[sink_name])

    warm = EventSpecification(
        event_id="warm_reading",
        selectors={"x": EntitySelector(kinds={"temperature"})},
        condition=AttributeCondition(
            "last", (AttributeTerm("x", "temperature"),),
            RelationalOp.GT, warm_threshold,
        ),
        window=0,
        cooldown=2 * sampling_period,
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
                    "SRt", "temperature",
                    system.sim.rng.stream(f"{name}.temp"),
                    noise_sigma=1.5,
                )
            ],
            sampling_period=sampling_period,
            specs=[warm],
        )

    warm_pair = EventSpecification(
        event_id="warm_pair",
        selectors={
            "a": EntitySelector(kinds={"warm_reading"}),
            "b": EntitySelector(kinds={"warm_reading"}),
        },
        condition=all_of(
            TemporalCondition(TimeOf("a"), TemporalOp.BEFORE, TimeOf("b")),
            SpatialMeasureCondition(
                "distance", ("a", "b"), RelationalOp.LT, 1.5 * spacing
            ),
        ),
        window=pair_window_rounds * sampling_period,
        cooldown=pair_cooldown_rounds * sampling_period,
        output=OutputPolicy(time="latest", space="centroid", confidence="mean"),
        description="two warm reports from adjacent motes",
    )
    system.add_sink(sink_name, specs=[warm_pair])

    density_alert = EventSpecification(
        event_id="density_alert",
        selectors={"e": EntitySelector(kinds={"warm_pair"})},
        condition=ConfidenceCondition("e", RelationalOp.GE, 0.2),
        window=0,
        cooldown=15 * sampling_period,
        output=OutputPolicy(time="latest", space="centroid"),
    )
    system.add_ccu(
        "CCU1",
        PointLocation(-10.0, -10.0),
        specs=[density_alert],
        rules=[
            _alarm_rule(
                "density_alert", "shutter", ("AR_shutter",),
                {"sector": "all"}, 25 * sampling_period,
            )
        ],
    )
    system.add_dispatch("D1", PointLocation(-10.0, 0.0))
    system.add_actor_mote(
        "AR_shutter",
        [Actuator("shutter_drive", "shutter")],
        location=PointLocation(width / 2.0, height / 2.0),
    )
    system.add_database("DB1")

    return Scenario(
        system=system,
        params={
            "warm_threshold": warm_threshold,
            "sampling_period": sampling_period,
            "horizon": horizon,
            "spacing": spacing,
        },
        handles={"field": field, "shutter_log": shutter_log},
    )


# ----------------------------------------------------------------------
# jittery corridor: a fabric that genuinely delivers out of order
# ----------------------------------------------------------------------

def build_jittery_corridor(
    seed: int = 0,
    rows: int = 3,
    cols: int = 10,
    spacing: float = 10.0,
    detect_range: float = 9.0,
    sampling_period: int = 3,
    drone_speed: float = 0.8,
    jitter_backoff: int = 6,
    horizon: int = 360,
    cluster_window_rounds: int = 8,
    cluster_cooldown_rounds: int = 2,
    engine: EngineConfig = EngineConfig(),
) -> Scenario:
    """A patrol drone on a corridor whose radio reorders deliveries.

    The event-time workload the streaming runtime exists for: every hop
    of the WSN adds a large uniform CSMA backoff (``jitter_backoff``
    ticks per attempt), so two sightings taken one round apart routinely
    arrive at the sink swapped — sensor events reach the observer out
    of *event-time* order even though the simulator's clock (and hence
    every engine submission) stays monotone.  The sink fuses pairs of
    close-by sightings into ``drone_cluster`` composites over a window
    wide enough to absorb the transport jitter; the CCU promotes
    confident clusters to ``corridor_alert`` and lights a beacon.

    The stream-conformance suite captures this scenario's sink/CCU
    feeds, verifies they are genuinely disordered, and replays them —
    with additional seeded jitter — through
    :class:`~repro.stream.runtime.StreamingDetectionRuntime` against
    the golden digest.
    """
    system = CPSSystem(seed=seed, engine=engine)
    width = (cols - 1) * spacing
    mid_y = (rows - 1) * spacing / 2.0
    drone = PhysicalObject(
        "drone",
        PatrolTrajectory(
            [PointLocation(0.0, mid_y), PointLocation(width, mid_y)],
            speed=drone_speed,
        ),
    )
    system.world.add_object(drone)
    beacon_log: list[int] = []
    system.world.on_actuation(
        "beacon", lambda payload, tick: beacon_log.append(tick)
    )

    topology = grid_topology(rows, cols, spacing, UnitDiskRadio(spacing * 1.6))
    sink_name = "MT0_0"
    # The jitter fabric: per-attempt backoff up to ``jitter_backoff``
    # ticks on every hop.  Far motes traverse more hops than near ones
    # and every packet draws its own delays, so delivery order at the
    # sink decorrelates from sampling order — real disorder, not a
    # synthetic shuffle.
    system.build_sensor_network(
        topology,
        sink_names=[sink_name],
        backoff_ticks=jitter_backoff,
    )

    drone_seen = EventSpecification(
        event_id="drone_seen",
        selectors={"x": EntitySelector(kinds={"range:drone"})},
        condition=AttributeCondition(
            "last", (AttributeTerm("x", "range:drone"),),
            RelationalOp.LT, detect_range,
        ),
        window=0,
        cooldown=sampling_period,
        output=OutputPolicy(
            attributes=(
                OutputAttribute(
                    "range:drone", "last",
                    (AttributeTerm("x", "range:drone"),),
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
                    "SRd", "drone",
                    system.sim.rng.stream(f"{name}.drone"),
                    noise_sigma=0.25, max_range=detect_range * 2.0,
                )
            ],
            sampling_period=sampling_period,
            specs=[drone_seen],
        )

    drone_cluster = EventSpecification(
        event_id="drone_cluster",
        selectors={
            "a": EntitySelector(kinds={"drone_seen"}),
            "b": EntitySelector(kinds={"drone_seen"}),
        },
        condition=all_of(
            TemporalCondition(TimeOf("a"), TemporalOp.BEFORE, TimeOf("b")),
            SpatialMeasureCondition(
                "distance", ("a", "b"), RelationalOp.LT, 2.0 * spacing
            ),
        ),
        window=cluster_window_rounds * sampling_period,
        cooldown=cluster_cooldown_rounds * sampling_period,
        output=OutputPolicy(time="latest", space="centroid", confidence="mean"),
        description="two close drone sightings despite a reordering radio",
    )
    system.add_sink(sink_name, specs=[drone_cluster])

    corridor_alert = EventSpecification(
        event_id="corridor_alert",
        selectors={"e": EntitySelector(kinds={"drone_cluster"})},
        condition=ConfidenceCondition("e", RelationalOp.GE, 0.2),
        window=0,
        cooldown=10 * sampling_period,
        output=OutputPolicy(time="latest", space="centroid"),
    )
    system.add_ccu(
        "CCU1",
        PointLocation(-12.0, -12.0),
        specs=[corridor_alert],
        rules=[
            _alarm_rule(
                "corridor_alert", "beacon", ("AR_beacon",),
                {"zone": "corridor"}, 15 * sampling_period,
            )
        ],
    )
    system.add_dispatch("D1", PointLocation(-12.0, 0.0))
    system.add_actor_mote(
        "AR_beacon",
        [Actuator("strobe", "beacon")],
        location=PointLocation(width / 2.0, mid_y),
    )
    system.add_database("DB1")

    return Scenario(
        system=system,
        params={
            "detect_range": detect_range,
            "sampling_period": sampling_period,
            "horizon": horizon,
            "spacing": spacing,
            "jitter_backoff": jitter_backoff,
        },
        handles={"drone": drone, "beacon_log": beacon_log},
    )


# ----------------------------------------------------------------------
# sharded metro: wide-area multi-sink corridor, boundary-crossing load
# ----------------------------------------------------------------------

def build_sharded_metro(
    seed: int = 0,
    rows: int = 3,
    cols: int = 12,
    spacing: float = 10.0,
    detect_range: float = 9.0,
    sampling_period: int = 3,
    tram_a_speed: float = 1.0,
    tram_b_speed: float = 0.6,
    horizon: int = 360,
    crossing_window_rounds: int = 6,
    crossing_cooldown_rounds: int = 2,
    surge_window_rounds: int = 60,
    surge_cooldown_rounds: int = 30,
    engine: EngineConfig = EngineConfig(),
) -> Scenario:
    """Two counter-rotating trams sweep a wide two-sink metro corridor.

    The workload the sharded backend is built for: a wide area served
    by two sinks on one fabric, with mobile entities whose sightings —
    and therefore whose composite ``tram_crossing`` events — repeatedly
    sweep across any spatial partition of the corridor.  Tram A bounces
    along the mid row at ``tram_a_speed``, tram B counter-rotates at a
    different speed, so their meetings (the only moments both are
    inside one detection window *and* one pairing radius) drift along
    the corridor instead of pinning to its center.  Each sink fuses
    ``tram_a_seen``/``tram_b_seen`` mote events into ``tram_crossing``
    composites; the CCU correlates two *distant* crossings into a
    ``metro_surge`` cyber event (its ``distance >`` clause is
    deliberately not halo-boundable, exercising the designated-shard
    fallback) and reroutes traffic via the actor network.

    ``crossing_*_rounds`` size the sinks' pair window/cooldown in
    sampling rounds; the medium registry preset widens the window and
    drops the cooldown for benchmark-scale window pressure.
    """
    system = CPSSystem(seed=seed, engine=engine)
    width = (cols - 1) * spacing
    height = (rows - 1) * spacing
    mid_y = height / 2.0
    tram_a = PhysicalObject(
        "tram_a",
        PatrolTrajectory(
            [PointLocation(0.0, mid_y), PointLocation(width, mid_y)],
            speed=tram_a_speed,
        ),
    )
    tram_b = PhysicalObject(
        "tram_b",
        PatrolTrajectory(
            [PointLocation(width, mid_y), PointLocation(0.0, mid_y)],
            speed=tram_b_speed,
        ),
    )
    system.world.add_object(tram_a)
    system.world.add_object(tram_b)
    reroute_log: list[int] = []
    system.world.on_actuation(
        "reroute", lambda payload, tick: reroute_log.append(tick)
    )

    topology = grid_topology(rows, cols, spacing, UnitDiskRadio(spacing * 1.6))
    west_sink = "MT0_0"
    east_sink = f"MT{rows - 1}_{cols - 1}"
    system.build_sensor_network(topology, sink_names=[west_sink, east_sink])

    def seen_spec(event_id: str, target: str) -> EventSpecification:
        quantity = f"range:{target}"
        return EventSpecification(
            event_id=event_id,
            selectors={"x": EntitySelector(kinds={quantity})},
            condition=AttributeCondition(
                "last", (AttributeTerm("x", quantity),),
                RelationalOp.LT, detect_range,
            ),
            window=0,
            cooldown=sampling_period,
            output=OutputPolicy(
                attributes=(
                    OutputAttribute(
                        quantity, "last", (AttributeTerm("x", quantity),)
                    ),
                )
            ),
        )

    tram_a_seen = seen_spec("tram_a_seen", "tram_a")
    tram_b_seen = seen_spec("tram_b_seen", "tram_b")
    for name in topology.names:
        if name in (west_sink, east_sink):
            continue
        system.add_mote(
            name,
            [
                RangeSensor(
                    "SRa", "tram_a",
                    system.sim.rng.stream(f"{name}.tram_a"),
                    noise_sigma=0.25, max_range=detect_range * 2.0,
                ),
                RangeSensor(
                    "SRb", "tram_b",
                    system.sim.rng.stream(f"{name}.tram_b"),
                    noise_sigma=0.25, max_range=detect_range * 2.0,
                ),
            ],
            sampling_period=sampling_period,
            specs=[tram_a_seen, tram_b_seen],
        )

    def crossing_spec() -> EventSpecification:
        return EventSpecification(
            event_id="tram_crossing",
            selectors={
                "a": EntitySelector(kinds={"tram_a_seen"}),
                "b": EntitySelector(kinds={"tram_b_seen"}),
            },
            condition=all_of(
                TemporalCondition(TimeOf("a"), TemporalOp.BEFORE, TimeOf("b")),
                SpatialMeasureCondition(
                    "distance", ("a", "b"), RelationalOp.LT, 1.2 * spacing
                ),
            ),
            window=crossing_window_rounds * sampling_period,
            cooldown=crossing_cooldown_rounds * sampling_period,
            output=OutputPolicy(
                time="latest", space="centroid", confidence="mean"
            ),
            description="the two trams sighted passing each other",
        )

    # Per-sink spec objects (engines are per-observer, ids must only be
    # unique within one engine — the urban_campus pattern).
    system.add_sink(west_sink, specs=[crossing_spec()])
    system.add_sink(east_sink, specs=[crossing_spec()])

    metro_surge = EventSpecification(
        event_id="metro_surge",
        selectors={
            "w": EntitySelector(kinds={"tram_crossing"}),
            "e": EntitySelector(kinds={"tram_crossing"}),
        },
        condition=all_of(
            TemporalCondition(TimeOf("w"), TemporalOp.BEFORE, TimeOf("e")),
            SpatialMeasureCondition(
                "distance", ("w", "e"), RelationalOp.GT, 3.0 * spacing
            ),
        ),
        window=surge_window_rounds * sampling_period,
        cooldown=surge_cooldown_rounds * sampling_period,
        output=OutputPolicy(time="span", space="hull", confidence="min"),
        description="tram crossings in two distant corridor segments",
    )
    system.add_ccu(
        "CCU1",
        PointLocation(-15.0, -15.0),
        specs=[metro_surge],
        rules=[
            _alarm_rule(
                "metro_surge", "reroute", ("AR_switch",),
                {"line": "metro"}, 40 * sampling_period,
            )
        ],
    )
    system.add_dispatch("D1", PointLocation(-15.0, 0.0))
    system.add_actor_mote(
        "AR_switch",
        [Actuator("track_switch", "reroute")],
        location=PointLocation(width / 2.0, mid_y),
    )
    system.add_database("DB1")

    return Scenario(
        system=system,
        params={
            "detect_range": detect_range,
            "sampling_period": sampling_period,
            "horizon": horizon,
            "spacing": spacing,
            "sinks": (west_sink, east_sink),
        },
        handles={
            "tram_a": tram_a,
            "tram_b": tram_b,
            "reroute_log": reroute_log,
        },
    )


# ----------------------------------------------------------------------
# overload surge: a field-wide burst that saturates bounded ingestion
# ----------------------------------------------------------------------

def build_overload_surge(
    seed: int = 0,
    rows: int = 4,
    cols: int = 6,
    spacing: float = 8.0,
    warm_threshold: float = 40.0,
    sampling_period: int = 3,
    surge_amplitude: float = 85.0,
    surge_start: int = 60,
    surge_end: int = 150,
    jitter_backoff: int = 5,
    horizon: int = 240,
    pair_window_rounds: int = 4,
    pair_cooldown_rounds: int = 2,
    engine: EngineConfig = EngineConfig(),
) -> Scenario:
    """A field-wide heat surge floods the sink through a jittery fabric.

    The admission-control workload: one plume source with a sigma wide
    enough to cover the *entire* grid ramps up mid-run, so for the whole
    surge window every mote fires a ``surge_reading`` each sampling
    round — the sink's ingest rate jumps from a cooldown-gated trickle
    to all-motes-every-round, which is exactly the burst shape that
    saturates a bounded reorder buffer or a per-source token bucket.
    The CSMA backoff fabric (``jitter_backoff`` ticks per hop attempt)
    disorders delivery at the same time, so the burst arrives late,
    swapped and bunched: peak reorder occupancy under the surge is an
    order of magnitude above the quiet phases.

    Replayed through a bounded
    :class:`~repro.stream.runtime.StreamingDetectionRuntime` this
    scenario drives genuine shedding decisions
    (:func:`benchmarks.report.admission_report` quantifies each
    policy's recall cost on it); run unbounded it pins a golden digest
    like every other family, which is what proves the admission layer
    inert when no limit triggers.
    """
    system = CPSSystem(seed=seed, engine=engine)
    width = (cols - 1) * spacing
    height = (rows - 1) * spacing
    field = GaussianPlumeField(
        base=20.0,
        sources=[
            # Sigma spans the whole grid: during the surge window every
            # mote sits deep inside the plume and reads warm.
            PlumeSource(
                PointLocation(width / 2.0, height / 2.0),
                amplitude=surge_amplitude,
                sigma=2.0 * max(width, height),
                start=surge_start, end=surge_end, ramp=6,
            ),
        ],
    )
    system.world.add_field("temperature", field)
    siren_log: list[int] = []
    system.world.on_actuation(
        "siren", lambda payload, tick: siren_log.append(tick)
    )

    topology = grid_topology(rows, cols, spacing, UnitDiskRadio(spacing * 1.6))
    sink_name = "MT0_0"
    # The same jitter fabric as the corridor: per-attempt CSMA backoff
    # decorrelates delivery order from sampling order, so the surge
    # reaches the sink as a disordered pile-up, not a tidy ramp.
    system.build_sensor_network(
        topology,
        sink_names=[sink_name],
        backoff_ticks=jitter_backoff,
    )

    surge_reading = EventSpecification(
        event_id="surge_reading",
        selectors={"x": EntitySelector(kinds={"temperature"})},
        condition=AttributeCondition(
            "last", (AttributeTerm("x", "temperature"),),
            RelationalOp.GT, warm_threshold,
        ),
        window=0,
        # One sampling round of cooldown: during the surge every mote
        # fires every round — the flood is the point.
        cooldown=sampling_period,
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
                    "SRt", "temperature",
                    system.sim.rng.stream(f"{name}.temp"),
                    noise_sigma=1.5,
                )
            ],
            sampling_period=sampling_period,
            specs=[surge_reading],
        )

    surge_pair = EventSpecification(
        event_id="surge_pair",
        selectors={
            "a": EntitySelector(kinds={"surge_reading"}),
            "b": EntitySelector(kinds={"surge_reading"}),
        },
        condition=all_of(
            TemporalCondition(TimeOf("a"), TemporalOp.BEFORE, TimeOf("b")),
            SpatialMeasureCondition(
                "distance", ("a", "b"), RelationalOp.LT, 1.2 * spacing
            ),
        ),
        window=pair_window_rounds * sampling_period,
        cooldown=pair_cooldown_rounds * sampling_period,
        output=OutputPolicy(time="latest", space="centroid", confidence="mean"),
        description="two adjacent surge reports despite the overloaded fabric",
    )
    system.add_sink(sink_name, specs=[surge_pair])

    overload_alert = EventSpecification(
        event_id="overload_alert",
        selectors={"e": EntitySelector(kinds={"surge_pair"})},
        condition=ConfidenceCondition("e", RelationalOp.GE, 0.2),
        window=0,
        cooldown=12 * sampling_period,
        output=OutputPolicy(time="latest", space="centroid"),
    )
    system.add_ccu(
        "CCU1",
        PointLocation(-10.0, -10.0),
        specs=[overload_alert],
        rules=[
            _alarm_rule(
                "overload_alert", "siren", ("AR_siren",),
                {"zone": "field"}, 20 * sampling_period,
            )
        ],
    )
    system.add_dispatch("D1", PointLocation(-10.0, 0.0))
    system.add_actor_mote(
        "AR_siren",
        [Actuator("horn", "siren")],
        location=PointLocation(width / 2.0, height / 2.0),
    )
    system.add_database("DB1")

    return Scenario(
        system=system,
        params={
            "warm_threshold": warm_threshold,
            "sampling_period": sampling_period,
            "horizon": horizon,
            "spacing": spacing,
            "surge_start": surge_start,
            "surge_end": surge_end,
            "jitter_backoff": jitter_backoff,
        },
        handles={"field": field, "siren_log": siren_log},
    )


# ----------------------------------------------------------------------
# flaky uplink: lossy + jittery fabric, the fault-injection workload
# ----------------------------------------------------------------------

def build_flaky_uplink(
    seed: int = 0,
    rows: int = 3,
    cols: int = 8,
    spacing: float = 10.0,
    detect_range: float = 9.0,
    sampling_period: int = 3,
    rover_speed: float = 0.7,
    uplink_backoff: int = 5,
    max_retries: int = 4,
    horizon: int = 320,
    cluster_window_rounds: int = 10,
    cluster_cooldown_rounds: int = 2,
    engine: EngineConfig = EngineConfig(),
) -> Scenario:
    """A survey rover reports over an uplink that drops *and* reorders.

    The resilience workload: the fabric combines the corridor's CSMA
    jitter (``uplink_backoff`` ticks per hop attempt) with the storm's
    log-distance lossy radio, so sightings reach the sink late, swapped
    *and* thinned — retransmissions (``max_retries``) recover most
    losses at the cost of still more disorder.  This is the delivery
    profile the supervised recovery stack is built against: the
    chaos-conformance suite wraps this scenario's captured feeds in a
    :class:`~repro.stream.resilience.faulty.FaultySource` (seeded
    crashes, duplicate bursts, corrupt payloads, stalls) and proves a
    :class:`~repro.stream.resilience.supervisor.SupervisedRuntime`
    replay still reproduces the golden digest byte-for-byte.

    The detection chain mirrors the corridor family: motes emit
    ``rover_seen`` sightings, the sink fuses close pairs into
    ``uplink_cluster`` composites over a window wide enough to absorb
    the transport's jitter *and* its retransmission delays, and the CCU
    promotes confident clusters to ``uplink_alert``, keying a relay.
    """
    system = CPSSystem(seed=seed, engine=engine)
    width = (cols - 1) * spacing
    mid_y = (rows - 1) * spacing / 2.0
    rover = PhysicalObject(
        "rover",
        PatrolTrajectory(
            [PointLocation(0.0, mid_y), PointLocation(width, mid_y)],
            speed=rover_speed,
        ),
    )
    system.world.add_object(rover)
    relay_log: list[int] = []
    system.world.on_actuation(
        "relay", lambda payload, tick: relay_log.append(tick)
    )

    # Lossy *and* jittery: the log-distance radio genuinely drops
    # packets at grid spacing, per-attempt CSMA backoff decorrelates
    # delivery order from sampling order, and retries turn many of the
    # drops into extra-late (re)deliveries instead of losses.
    topology = grid_topology(
        rows, cols, spacing, LogDistanceRadio(d50=spacing * 1.05, width=2.5)
    )
    sink_name = "MT0_0"
    system.build_sensor_network(
        topology,
        sink_names=[sink_name],
        backoff_ticks=uplink_backoff,
        max_retries=max_retries,
    )

    rover_seen = EventSpecification(
        event_id="rover_seen",
        selectors={"x": EntitySelector(kinds={"range:rover"})},
        condition=AttributeCondition(
            "last", (AttributeTerm("x", "range:rover"),),
            RelationalOp.LT, detect_range,
        ),
        window=0,
        cooldown=sampling_period,
        output=OutputPolicy(
            attributes=(
                OutputAttribute(
                    "range:rover", "last",
                    (AttributeTerm("x", "range:rover"),),
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
                    "SRv", "rover",
                    system.sim.rng.stream(f"{name}.rover"),
                    noise_sigma=0.25, max_range=detect_range * 2.0,
                )
            ],
            sampling_period=sampling_period,
            specs=[rover_seen],
        )

    uplink_cluster = EventSpecification(
        event_id="uplink_cluster",
        selectors={
            "a": EntitySelector(kinds={"rover_seen"}),
            "b": EntitySelector(kinds={"rover_seen"}),
        },
        condition=all_of(
            TemporalCondition(TimeOf("a"), TemporalOp.BEFORE, TimeOf("b")),
            SpatialMeasureCondition(
                "distance", ("a", "b"), RelationalOp.LT, 2.0 * spacing
            ),
        ),
        window=cluster_window_rounds * sampling_period,
        cooldown=cluster_cooldown_rounds * sampling_period,
        output=OutputPolicy(time="latest", space="centroid", confidence="mean"),
        description="two close rover sightings despite a lossy, jittery uplink",
    )
    system.add_sink(sink_name, specs=[uplink_cluster])

    uplink_alert = EventSpecification(
        event_id="uplink_alert",
        selectors={"e": EntitySelector(kinds={"uplink_cluster"})},
        condition=ConfidenceCondition("e", RelationalOp.GE, 0.2),
        window=0,
        cooldown=10 * sampling_period,
        output=OutputPolicy(time="latest", space="centroid"),
    )
    system.add_ccu(
        "CCU1",
        PointLocation(-12.0, -12.0),
        specs=[uplink_alert],
        rules=[
            _alarm_rule(
                "uplink_alert", "relay", ("AR_relay",),
                {"channel": "uplink"}, 15 * sampling_period,
            )
        ],
    )
    system.add_dispatch("D1", PointLocation(-12.0, 0.0))
    system.add_actor_mote(
        "AR_relay",
        [Actuator("repeater", "relay")],
        location=PointLocation(width / 2.0, mid_y),
    )
    system.add_database("DB1")

    return Scenario(
        system=system,
        params={
            "detect_range": detect_range,
            "sampling_period": sampling_period,
            "horizon": horizon,
            "spacing": spacing,
            "uplink_backoff": uplink_backoff,
            "max_retries": max_retries,
        },
        handles={"rover": rover, "relay_log": relay_log},
    )
