"""Scenario families: eleven records deployed by one Figure 1 loop.

The paper places every observer in one architecture (Figure 1: motes →
sink → CCU → actuation) and defines every event by one kind of formula
(Eq. 4.5: attribute, temporal and spatial conditions under logical
operators).  A scenario family is therefore *data*:

* a :class:`ScenarioSpec` — name, catalog row, parameter ``defaults``,
  the three size ``presets`` and a ``plan``;
* the plan turns resolved parameters into a :class:`Deployment` — world
  content, the sensors every mote carries, radio and fabric, the event
  specifications of each observer layer **as** :mod:`repro.dsl` **text**,
  and the one :class:`Command` its CCU issues;
* :func:`deploy` wires any deployment the one way Figure 1 is wired.

No family constructs a specification from Python objects: the DSL is
the one specification surface, so every golden digest, conformance leg
and benchmark runs through its lexer, parser and compiler.  What the
DSL cannot say is recorded where it occurs (``smart_building``'s
mote-level :class:`~repro.cps.mote.IntervalEventConfig`).

Adding a family is one ``@family(...)`` record and its plan; the
registry, the golden-trace conformance suite, the scenario benchmarks
and the README catalog pick it up by iteration.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Mapping, NamedTuple, Sequence

from repro.core.errors import ReproError
from repro.core.operators import RelationalOp
from repro.core.space_model import BoundingBox, PointLocation
from repro.cps.actions import ActionRule, ActuatorCommand
from repro.cps.actuator import Actuator
from repro.cps.mote import IntervalEventConfig
from repro.cps.sensor import RangeSensor, Sensor
from repro.cps.system import CPSSystem
from repro.dsl import compile_source
from repro.network.radio import LogDistanceRadio, RadioModel, UnitDiskRadio
from repro.network.topology import grid_topology
from repro.physical.fields import (
    GaussianPlumeField,
    PlumeSource,
    ScalarField,
    UniformField,
)
from repro.physical.fire import FireModel, FireTemperatureField
from repro.physical.mobility import PatrolTrajectory, WaypointTrajectory
from repro.physical.objects import PhysicalObject
from repro.shard.engine import EngineConfig
from repro.sim.rng import RngStreams

__all__ = [
    "SIZE_PRESETS",
    "FAMILIES",
    "Scenario",
    "Command",
    "SensorRow",
    "Deployment",
    "ScenarioSpec",
    "deploy",
]

SIZE_PRESETS = ("small", "medium", "large")
"""The preset names every family provides: ``small`` for CI and
conformance, ``medium`` for benchmarks, ``large`` for scaling studies."""


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


class Command(NamedTuple):
    """The actuation that closes a family's loop (an Event-Action rule).

    When the CCU emits ``trigger`` it sends ``kind`` with ``payload`` to
    the actor mote ``actor``, which stands at ``location`` and carries
    one actuator ``actuator``; ``cooldown`` ticks separate two firings.
    """

    trigger: str
    kind: str
    payload: Mapping[str, object]
    actor: str
    actuator: str
    location: PointLocation
    cooldown: int


class SensorRow(NamedTuple):
    """One sensor every mote of a family carries.

    ``quantity`` names the sampled world field; ``range:<object>`` makes
    it a range sensor on that object, cut off at ``max_range``.  Noise
    is drawn from the random stream ``<mote>.<stream>``.  Sensor ids and
    stream names are behaviour (they reach instance keys and noise
    draws), so each family spells its own.
    """

    sensor_id: str
    quantity: str
    stream: str
    noise_sigma: float
    max_range: float = float("inf")
    failure_probability: float = 0.0

    def build(self, mote: str, rng: RngStreams) -> Sensor:
        stream = rng.stream(f"{mote}.{self.stream}")
        if self.quantity.startswith("range:"):
            return RangeSensor(
                self.sensor_id, self.quantity.removeprefix("range:"), stream,
                self.noise_sigma, self.max_range, self.failure_probability,
            )
        return Sensor(
            self.sensor_id, self.quantity, stream, self.noise_sigma,
            failure_probability=self.failure_probability,
        )


@dataclass(frozen=True)
class Deployment:
    """Everything that differs between two families, for :func:`deploy`.

    Args:
        grid: ``(rows, cols, spacing)`` of the mote grid.
        radio: Radio model of the sensor fabric.
        sensors: The sensors every mote carries.
        sampling_period: Ticks between two samples of every mote.
        sink_specs: DSL text evaluated at every sink.
        ccu_specs: DSL text evaluated at the CCU.
        command: The CCU's Event-Action rule and its actor mote.
        on_command: World-side effect of the command: ``(payload, tick)``.
        hub: The CCU stands at ``(-hub, -hub)`` and its dispatch node at
            ``(-hub, 0)``, outside the sensed field.
        handles: Ground-truth and scoring handles of the scenario.
        objects: Physical objects placed in the world.
        fields: Quantity name -> scalar field sampled by the sensors.
        schedule: World changes planned ahead: ``change(system)`` runs
            at ``tick`` for each ``(tick, change)``.
        fabric: ``build_sensor_network`` keywords (backoff, retries).
        sinks: Grid nodes that are sinks instead of motes.
        mote_specs: DSL text evaluated at every mote.
        interval_events: Mote-level interval trackers — the one thing a
            family configures that the DSL has no form for.
        trilaterate_attribute: Range attribute the sinks trilaterate.
    """

    grid: tuple[int, int, float]
    radio: RadioModel
    sensors: Sequence[SensorRow]
    sampling_period: int
    sink_specs: str
    ccu_specs: str
    command: Command
    on_command: Callable[[Mapping[str, object], int], None]
    hub: float
    handles: dict[str, object]
    objects: Sequence[PhysicalObject] = ()
    fields: Mapping[str, ScalarField] = field(default_factory=dict)
    schedule: Sequence[tuple[int, Callable[[CPSSystem], None]]] = ()
    fabric: Mapping[str, int] = field(default_factory=dict)
    sinks: tuple[str, ...] = ("MT0_0",)
    mote_specs: str = ""
    interval_events: Sequence[IntervalEventConfig] = ()
    trilaterate_attribute: str | None = None


Plan = Callable[[SimpleNamespace, RngStreams], Deployment]
"""Resolved parameters (as attributes) and the system's random streams
in, a :class:`Deployment` out.  A plan builds nothing into a system."""


@dataclass(frozen=True)
class ScenarioSpec:
    """One registered scenario family.

    Args:
        name: Stable registry key.
        description: One-line summary (README catalog row).
        layers: Subsystem layers the scenario exercises (catalog row).
        paper_section: Paper section the workload traces back to
            (``"-"`` for post-paper extensions).
        defaults: Every parameter of the family with its default value;
            these names are the only overrides ``build_scenario`` takes.
        presets: Parameter overrides per size preset; every name in
            :data:`SIZE_PRESETS` must be present (``{}`` = defaults).
        plan: The family's :data:`Plan`.
        default_seed: Seed used when the caller passes none, so
            "the registered scenario" names one deterministic run.
    """

    name: str
    description: str
    layers: tuple[str, ...]
    paper_section: str
    defaults: Mapping[str, object]
    presets: Mapping[str, Mapping[str, object]]
    plan: Plan = field(repr=False)
    default_seed: int = 0

    def __post_init__(self) -> None:
        missing = [p for p in SIZE_PRESETS if p not in self.presets]
        if missing:
            raise ReproError(
                f"scenario {self.name!r} lacks presets {missing}; "
                f"every scenario must define {SIZE_PRESETS}"
            )
        for preset, overrides in self.presets.items():
            self.check_parameters(overrides, f"preset {preset!r}")

    def check_parameters(self, names, where: str) -> None:
        """Refuse any name in ``names`` the family does not declare."""
        unknown = sorted(set(names) - set(self.defaults))
        if unknown:
            raise ReproError(
                f"scenario {self.name!r} has no parameter {unknown} "
                f"({where}); its parameters are {sorted(self.defaults)}"
            )

    def params_for(self, preset: str) -> dict[str, object]:
        """Every parameter's value at one preset (a fresh dict)."""
        try:
            return {**self.defaults, **self.presets[preset]}
        except KeyError:
            raise ReproError(
                f"unknown preset {preset!r} for scenario {self.name!r}; "
                f"choose from {SIZE_PRESETS}"
            ) from None


@functools.lru_cache(maxsize=128)
def _compile(text: str) -> tuple:
    """The ``EventSpecification`` objects of one DSL text, in source order.

    Compiled once per distinct text and process: specifications are
    frozen values (all motes of one system already share theirs), and
    the caches hung on them are pure functions of the specification, so
    two systems may share the objects.  Re-parsing identical text on
    every build instead makes a ``high_density`` build 5-11 % slower.
    """
    return tuple(compile_source(text)) if text else ()


def deploy(
    plan: Plan, params: Mapping[str, object], seed: int, engine: EngineConfig
) -> Scenario:
    """Wire one family's deployment into a runnable Figure 1 loop.

    World → actuation effect → mote grid and fabric → motes → sinks →
    CCU with its rule → dispatch → actor mote → database, in that order
    for every family.
    """
    system = CPSSystem(seed=seed, engine=engine)
    d = plan(SimpleNamespace(**params), system.sim.rng)
    command = d.command
    for obj in d.objects:
        system.world.add_object(obj)
    for quantity, scalar_field in d.fields.items():
        system.world.add_field(quantity, scalar_field)
    for tick, change in d.schedule:
        system.sim.schedule_at(tick, functools.partial(change, system))
    system.world.on_actuation(command.kind, d.on_command)

    rows, cols, spacing = d.grid
    topology = grid_topology(rows, cols, spacing, d.radio)
    system.build_sensor_network(topology, sink_names=d.sinks, **d.fabric)
    mote_specs = _compile(d.mote_specs)
    for name in topology.names:
        if name not in d.sinks:
            system.add_mote(
                name,
                [row.build(name, system.sim.rng) for row in d.sensors],
                sampling_period=d.sampling_period,
                specs=mote_specs,
                interval_events=d.interval_events,
            )
    sink_specs = _compile(d.sink_specs)
    for name in d.sinks:
        system.add_sink(
            name,
            specs=sink_specs,
            trilaterate_attribute=d.trilaterate_attribute,
        )

    def issue(instance, tick: int) -> list[ActuatorCommand]:
        return [
            ActuatorCommand(
                command.kind, command.payload, (command.actor,), tick,
                cause=instance.key,
            )
        ]

    system.add_ccu(
        "CCU1",
        PointLocation(-d.hub, -d.hub),
        specs=_compile(d.ccu_specs),
        rules=[ActionRule(command.trigger, issue, cooldown=command.cooldown)],
    )
    system.add_dispatch("D1", PointLocation(-d.hub, 0.0))
    system.add_actor_mote(
        command.actor,
        [Actuator(command.actuator, command.kind)],
        location=command.location,
    )
    system.add_database("DB1")
    return Scenario(system=system, params=params, handles=d.handles)


FAMILIES: list[ScenarioSpec] = []
"""Every family below, in definition order (the registry's order)."""


def family(**record) -> Callable[[Plan], Plan]:
    """Decorate a plan with the rest of its :class:`ScenarioSpec`."""

    def add(plan: Plan) -> Plan:
        FAMILIES.append(ScenarioSpec(plan=plan, **record))
        return plan

    return add


def _threshold(
    event_id: str, quantity: str, op: str, constant: float, cooldown: int
) -> str:
    """DSL text of a mote event: the latest ``quantity`` reading compares
    ``op`` against ``constant``, and the reading rides on the instance."""
    return f"""
        EVENT {event_id}
          WHEN x: {quantity}
          IF last(x.{quantity}) {op} {constant!r}
          COOLDOWN {cooldown}
          ATTR {quantity} = last(x.{quantity})
    """


def _close_pair(
    event_id: str, roles: Mapping[str, str], radius: float,
    window: int, cooldown: int,
) -> str:
    """DSL text of the paper's condition S1 at a sink: the first role's
    report precedes the second's and they lie closer than ``radius``
    (``roles``: role name -> event kind; the two may share a kind)."""
    first, second = roles
    return f"""
        EVENT {event_id}
          WHEN {first}: {roles[first]}, {second}: {roles[second]}
          IF time({first}) BEFORE time({second})
             AND distance({first}, {second}) < {radius!r}
          WINDOW {window} COOLDOWN {cooldown}
          EMIT time=latest space=centroid confidence=mean
    """


def _gate(
    event_id: str, kind: str, rho: float, cooldown: int, emit: str = ""
) -> str:
    """DSL text of a CCU event: a ``kind`` instance at least ``rho``
    confident, promoted as it is (``emit``: the EMIT settings, if any)."""
    return f"""
        EVENT {event_id}
          WHEN e: {kind}
          IF rho(e) >= {rho!r}
          COOLDOWN {cooldown}
          {emit and "EMIT " + emit}
    """


# ----------------------------------------------------------------------
# the paper's three motivating workloads
# ----------------------------------------------------------------------

@family(
    name="smart_building",
    description="user lingers near a window; long stays adjust the HVAC",
    layers=("mote intervals", "sink", "ccu", "actuation"),
    paper_section="§1, §4.2",
    defaults=dict(
        nearby_radius=8.0, stay_ticks=300, sampling_period=5,
        approach_tick=100, leave_tick=600, horizon=900,
    ),
    presets={
        "small": {"stay_ticks": 120, "approach_tick": 60,
                  "leave_tick": 260, "horizon": 400},
        "medium": {},
        "large": {"stay_ticks": 600, "approach_tick": 200,
                  "leave_tick": 1400, "horizon": 2000},
    },
)
def _smart_building(p, rng):
    """The paper's running example, "user A is nearby window B for the
    last 30 minutes" (Sections 1 and 4.2), as a closed loop.

    The user walks to the window at ``approach_tick``, lingers until
    ``leave_tick``, then leaves.  Motes build ``user_nearby`` *interval*
    events, the sink promotes intervals longer than ``stay_ticks`` to
    ``long_stay``, the CCU adjusts the HVAC.
    """
    window_pos = PointLocation(20.0, 20.0)
    beside = window_pos.translate(1.0, 0.0)
    far = PointLocation(0.0, 0.0)
    user = PhysicalObject(
        "userA",
        WaypointTrajectory(
            [
                (0, far),
                (p.approach_tick, beside),
                (p.leave_tick, beside),
                (p.leave_tick + 60, far),
            ]
        ),
    )
    window = PhysicalObject("windowB", window_pos)
    hvac_commands: list[tuple[int, Mapping[str, object]]] = []
    return Deployment(
        objects=(user, window),
        grid=(3, 3, 10.0),
        radio=UnitDiskRadio(15.0),
        sensors=[SensorRow("SRr", "range:userA", "range", 0.3, 40.0)],
        sampling_period=p.sampling_period,
        # An interval with hysteresis is mote state, not a condition
        # over entities, so it is configured here and not in the DSL.
        interval_events=[
            IntervalEventConfig(
                event_id="user_nearby",
                quantity="range:userA",
                op=RelationalOp.LE,
                threshold=p.nearby_radius,
                min_duration=2 * p.sampling_period,
                gap_tolerance=2 * p.sampling_period,
                noise_sigma=0.5,
            )
        ],
        # the user stayed nearby the window for the full threshold
        sink_specs=f"""
            EVENT long_stay
              WHEN e: user_nearby
              IF duration(e) >= {p.stay_ticks!r}
              COOLDOWN {p.stay_ticks}
              EMIT time=span space=centroid confidence=min
        """,
        ccu_specs=_gate(
            "presence_alert", "long_stay", 0.3, p.stay_ticks,
            "time=span space=centroid",
        ),
        command=Command(
            "presence_alert", "adjust_hvac",
            {"mode": "comfort", "cause": "presence_alert"},
            "AR1", "hvac", window_pos, cooldown=p.stay_ticks,
        ),
        on_command=lambda payload, tick: hvac_commands.append((tick, payload)),
        hub=10.0,
        handles={
            "user": user, "window": window, "hvac_commands": hvac_commands,
        },
    )


@family(
    name="forest_fire",
    description="spreading fire fused into a field event; suppression closes the loop",
    layers=("fire dynamics", "mote", "sink", "ccu", "actuation"),
    paper_section="§4.2",
    defaults=dict(
        rows=5, cols=5, spacing=15.0, hot_threshold=60.0, ignition_tick=100,
        sampling_period=10, suppress=True, spread_probability=0.35,
        horizon=800,
    ),
    presets={
        "small": {"rows": 4, "cols": 4, "ignition_tick": 60, "horizon": 400},
        "medium": {},
        "large": {"rows": 8, "cols": 8, "horizon": 1500},
    },
)
def _forest_fire(p, rng):
    """The canonical field event (Section 4.2) with a real closed loop.

    A cellular fire ignites near the centre at ``ignition_tick``; motes
    flag hot readings; the sink fuses three nearby, ordered reports into
    a ``fire_suspected`` *field* event; the CCU commands suppression,
    which zeroes the spread probability (unless ``suppress`` is off) —
    measurably bounding the burned fraction.
    """
    sp = p.sampling_period
    extent = BoundingBox(
        -p.spacing, -p.spacing,
        p.cols * p.spacing + p.spacing, p.rows * p.spacing + p.spacing,
    )
    fire = FireModel(
        extent, nx=30, ny=30, spread_probability=p.spread_probability,
        burn_duration=120, rng=rng.stream("fire"),
    )
    temperature = FireTemperatureField(
        fire, ambient=20.0, peak=400.0, sigma=8.0
    )
    ignition_point = PointLocation(
        p.cols * p.spacing / 2.0, p.rows * p.spacing / 2.0
    )
    suppress_log: list[int] = []

    def ignite(system: CPSSystem) -> None:
        fire.ignite(ignition_point, p.ignition_tick)

    def on_suppress(payload: Mapping[str, object], tick: int) -> None:
        suppress_log.append(tick)
        if p.suppress:
            fire.suppress(factor=0.0, extinguish=False)

    return Deployment(
        fields={"temperature": temperature},
        schedule=[(p.ignition_tick, ignite)],
        grid=(p.rows, p.cols, p.spacing),
        radio=UnitDiskRadio(p.spacing * 1.6),
        sensors=[SensorRow("SRt", "temperature", "temp", 1.0)],
        sampling_period=sp,
        mote_specs=_threshold(
            "hot_reading", "temperature", ">", p.hot_threshold, 3 * sp
        ),
        # Three ordered nearby hot reports (S1 shape).  Three motes
        # make the output a genuine *field* event: the hull of three
        # non-collinear positions is a polygon (Section 4.2: a field
        # occurrence "is made of at least 2 or more point events").
        sink_specs=f"""
            EVENT fire_suspected
              WHEN a: hot_reading, b: hot_reading, c: hot_reading
              IF time(a) BEFORE time(c)
                 AND diameter(a, b, c) < {3.0 * p.spacing!r}
              WINDOW {6 * sp} COOLDOWN {4 * sp}
              EMIT time=span space=hull confidence=min
              ATTR temperature = max(
                a.temperature, b.temperature, c.temperature)
        """,
        ccu_specs=_gate(
            "fire_alarm", "fire_suspected", 0.2, 10 * sp,
            "time=span space=hull",
        ),
        command=Command(
            "fire_alarm", "suppress", {"area": "sector-1"},
            "AR_fire", "pump", ignition_point, cooldown=20 * sp,
        ),
        on_command=on_suppress,
        hub=20.0,
        handles={
            "fire": fire, "temperature": temperature, "extent": extent,
            "ignition_point": ignition_point, "suppress_log": suppress_log,
        },
    )


@family(
    name="intrusion",
    description="patrolling intruder trilaterated from concurring range detections",
    layers=("mobility", "mote", "sink+trilateration", "ccu", "actuation"),
    paper_section="§4.2 (S1)",
    defaults=dict(
        rows=4, cols=4, spacing=10.0, detect_range=9.0, sampling_period=2,
        patrol_speed=0.8, horizon=600,
    ),
    presets={
        "small": {"rows": 3, "cols": 3, "horizon": 300},
        "medium": {},
        "large": {"rows": 6, "cols": 6, "horizon": 1200},
    },
)
def _intrusion(p, rng):
    """The spatio-temporal composite of condition S1, with trilateration.

    An intruder patrols through the sensed field; motes emit punctual
    ``presence`` events carrying their measured range; the sink needs
    three motes to concur within a window and a diameter (S1 extended
    to three entities), trilaterates the position, and the CCU sounds
    the siren.
    """
    sp = p.sampling_period
    width = (p.cols - 1) * p.spacing
    height = (p.rows - 1) * p.spacing
    intruder = PhysicalObject(
        "intruder",
        PatrolTrajectory(
            [
                PointLocation(-5.0, height / 2.0),
                PointLocation(width / 2.0, height / 2.0),
                PointLocation(width + 5.0, height / 4.0),
                PointLocation(width / 2.0, -5.0),
            ],
            speed=p.patrol_speed,
        ),
    )
    alarm_log: list[int] = []
    return Deployment(
        objects=(intruder,),
        grid=(p.rows, p.cols, p.spacing),
        radio=UnitDiskRadio(p.spacing * 1.6),
        sensors=[
            SensorRow(
                "SRr", "range:intruder", "range", 0.2, p.detect_range * 2.0
            )
        ],
        sampling_period=sp,
        mote_specs=_threshold(
            "presence", "range:intruder", "<", p.detect_range, sp
        ),
        sink_specs=f"""
            EVENT intruder_track
              WHEN a: presence, b: presence, c: presence
              IF time(a) BEFORE time(c)
                 AND diameter(a, b, c) < {3.0 * p.spacing!r}
              WINDOW {6 * sp} COOLDOWN {5 * sp}
              EMIT time=latest space=centroid confidence=mean
              ATTR range:intruder = min(
                a.range:intruder, b.range:intruder, c.range:intruder)
        """,
        trilaterate_attribute="range:intruder",
        ccu_specs=_gate("intruder_alarm", "intruder_track", 0.2, 10 * sp),
        command=Command(
            "intruder_alarm", "sound_alarm", {"zone": "perimeter"},
            "AR_siren", "siren", PointLocation(width / 2.0, height / 2.0),
            cooldown=20 * sp,
        ),
        on_command=lambda payload, tick: alarm_log.append(tick),
        hub=15.0,
        handles={"intruder": intruder, "alarm_log": alarm_log},
    )


# ----------------------------------------------------------------------
# beyond the paper: mobility, several sinks, degraded substrates, density
# ----------------------------------------------------------------------

@family(
    name="convoy_pursuit",
    description="pursuer chases a convoy leader; the composite event moves with the chase",
    layers=("waypoint mobility", "mote", "sink", "ccu", "actuation"),
    paper_section="-",
    defaults=dict(
        rows=3, cols=6, spacing=10.0, detect_range=9.0, sampling_period=3,
        leader_arrival=350, pursuer_start=60, pursuer_arrival=330,
        horizon=420, pursuit_window_rounds=8, pursuit_cooldown_rounds=4,
    ),
    presets={
        "small": {"rows": 3, "cols": 5, "leader_arrival": 240,
                  "pursuer_start": 40, "pursuer_arrival": 220,
                  "horizon": 300},
        # Benchmark scale: a long corridor with a wide pursuit window
        # kept below the pursuer's minimum positional lag (150 ticks),
        # so stale leader sightings along the chase path never pair
        # with the pursuer — the naive engine scans the full window for
        # nothing while the planner prunes it.
        "medium": {"rows": 3, "cols": 20, "detect_range": 6.0,
                   "sampling_period": 2, "leader_arrival": 1000,
                   "pursuer_start": 500, "pursuer_arrival": 1150,
                   "horizon": 1100, "pursuit_window_rounds": 70,
                   "pursuit_cooldown_rounds": 0},
        "large": {"rows": 4, "cols": 10, "leader_arrival": 700,
                  "pursuer_start": 120, "pursuer_arrival": 660,
                  "horizon": 840},
    },
)
def _convoy_pursuit(p, rng):
    """Two mobile objects and a composite event that *moves*.

    A convoy leader and a pursuer (entering at ``pursuer_start`` and
    closing the gap) follow waypoint trajectories along the corridor's
    mid row.  Motes emit per-target sightings; the sink fuses a leader
    sighting followed by a nearby pursuer sighting into ``pursuit``,
    whose centroid tracks the chase; the CCU lights the corridor.
    ``pursuit_*_rounds`` size the sink's window and cooldown in
    sampling rounds.
    """
    sp = p.sampling_period
    width = (p.cols - 1) * p.spacing
    mid_y = (p.rows - 1) * p.spacing / 2.0
    entry = PointLocation(-6.0, mid_y)
    exit_ = PointLocation(width + 6.0, mid_y)
    leader = PhysicalObject(
        "leader", WaypointTrajectory([(0, entry), (p.leader_arrival, exit_)])
    )
    pursuer = PhysicalObject(
        "pursuer",
        WaypointTrajectory(
            [(0, entry), (p.pursuer_start, entry), (p.pursuer_arrival, exit_)]
        ),
    )
    alarm_log: list[int] = []
    max_range = p.detect_range * 2.0
    return Deployment(
        objects=(leader, pursuer),
        grid=(p.rows, p.cols, p.spacing),
        radio=UnitDiskRadio(p.spacing * 1.6),
        sensors=[
            SensorRow("SRl", "range:leader", "leader", 0.25, max_range),
            SensorRow("SRp", "range:pursuer", "pursuer", 0.25, max_range),
        ],
        sampling_period=sp,
        mote_specs="".join(
            _threshold(f"{who}_seen", f"range:{who}", "<", p.detect_range, sp)
            for who in ("leader", "pursuer")
        ),
        # a pursuer sighted close behind the convoy leader
        sink_specs=_close_pair(
            "pursuit", {"l": "leader_seen", "p": "pursuer_seen"},
            1.5 * p.spacing,
            window=p.pursuit_window_rounds * sp,
            cooldown=p.pursuit_cooldown_rounds * sp,
        ),
        ccu_specs=_gate(
            "pursuit_alarm", "pursuit", 0.2, 10 * sp,
            "time=latest space=centroid",
        ),
        command=Command(
            "pursuit_alarm", "illuminate", {"zone": "corridor"},
            "AR_light", "floodlight", PointLocation(width / 2.0, mid_y),
            cooldown=12 * sp,
        ),
        on_command=lambda payload, tick: alarm_log.append(tick),
        hub=12.0,
        handles={"leader": leader, "pursuer": pursuer, "alarm_log": alarm_log},
    )


@family(
    name="urban_campus",
    description="two sinks share one fabric; the CCU fuses cross-sink zone activity",
    layers=("multi-sink WSN", "mote", "sinks", "ccu", "actuation"),
    paper_section="-",
    defaults=dict(
        rows=4, cols=8, spacing=10.0, detect_range=9.0, sampling_period=3,
        patrol_speed=0.9, horizon=500,
    ),
    presets={
        "small": {"rows": 3, "cols": 6, "horizon": 350},
        "medium": {},
        "large": {"rows": 6, "cols": 12, "horizon": 1000},
    },
)
def _urban_campus(p, rng):
    """An event hierarchy no single sink can observe alone.

    One wireless fabric carries two converge-cast roots (``MT0_0`` west,
    the far-corner mote east); every other mote routes to its nearest
    sink.  Both sinks evaluate the same ``zone_activity`` over their own
    subtree's sightings of a patrol vehicle, and the CCU — subscribed to
    both on the shared bus — fuses two *distant* activity instances into
    a campus-wide ``campus_sweep``.
    """
    sp = p.sampling_period
    width = (p.cols - 1) * p.spacing
    height = (p.rows - 1) * p.spacing
    vehicle = PhysicalObject(
        "vehicle",
        PatrolTrajectory(
            [
                PointLocation(0.0, 0.0),
                PointLocation(width, 0.0),
                PointLocation(width, height),
                PointLocation(0.0, height),
            ],
            speed=p.patrol_speed,
        ),
    )
    notice_log: list[int] = []
    return Deployment(
        objects=(vehicle,),
        grid=(p.rows, p.cols, p.spacing),
        radio=UnitDiskRadio(p.spacing * 1.6),
        sinks=("MT0_0", f"MT{p.rows - 1}_{p.cols - 1}"),
        sensors=[
            SensorRow(
                "SRv", "range:vehicle", "vehicle", 0.25, p.detect_range * 2.0
            )
        ],
        sampling_period=sp,
        mote_specs=_threshold(
            "vehicle_seen", "range:vehicle", "<", p.detect_range, sp
        ),
        # two concurring vehicle sightings in one zone
        sink_specs=_close_pair(
            "zone_activity", {"a": "vehicle_seen", "b": "vehicle_seen"},
            2.0 * p.spacing, window=6 * sp, cooldown=3 * sp,
        ),
        # activity in two distant campus zones (cross-sink)
        ccu_specs=f"""
            EVENT campus_sweep
              WHEN w: zone_activity, e: zone_activity
              IF time(w) BEFORE time(e)
                 AND distance(w, e) > {3.0 * p.spacing!r}
              WINDOW {40 * sp} COOLDOWN {20 * sp}
              EMIT time=span space=hull confidence=min
        """,
        command=Command(
            "campus_sweep", "campus_notice", {"channel": "security"},
            "AR_pa", "public_address",
            PointLocation(width / 2.0, height / 2.0), cooldown=30 * sp,
        ),
        on_command=lambda payload, tick: notice_log.append(tick),
        hub=15.0,
        handles={"vehicle": vehicle, "notice_log": notice_log},
    )


@family(
    name="sensor_failure_storm",
    description="sensor failures spike mid-run on a lossy radio; detection degrades and recovers",
    layers=("failure injection", "lossy radio", "mote", "sink", "ccu"),
    paper_section="-",
    defaults=dict(
        rows=4, cols=4, spacing=10.0, hot_threshold=77.0, sampling_period=5,
        base_failure=0.02, storm_failure=0.5, storm_start=150, storm_end=300,
        max_retries=2, horizon=450,
    ),
    presets={
        "small": {"storm_start": 120, "storm_end": 240, "horizon": 360},
        "medium": {},
        "large": {"rows": 6, "cols": 6, "storm_start": 300,
                  "storm_end": 700, "horizon": 1200},
    },
)
def _sensor_failure_storm(p, rng):
    """Detection through degradation, and recovery without corrupt state.

    The world is uniformly hot, so every healthy sample is a potential
    ``hot_reading``; the radio is log-distance lossy (packets genuinely
    drop) and between ``storm_start`` and ``storm_end`` every sensor's
    failure probability spikes to ``storm_failure`` — observations thin
    out, composite detections degrade, and everything must recover
    afterwards.  Exercises confidence fusion under loss.
    """
    sp = p.sampling_period
    vent_log: list[int] = []

    def set_failure(probability: float, system: CPSSystem) -> None:
        for mote in system.motes.values():
            for sensor in mote.sensors:
                sensor.failure_probability = probability

    return Deployment(
        fields={"temperature": UniformField(80.0)},
        schedule=[
            (p.storm_start, functools.partial(set_failure, p.storm_failure)),
            (p.storm_end, functools.partial(set_failure, p.base_failure)),
        ],
        grid=(p.rows, p.cols, p.spacing),
        radio=LogDistanceRadio(d50=p.spacing * 1.05, width=2.5),
        fabric={"max_retries": p.max_retries},
        sensors=[
            SensorRow(
                "SRt", "temperature", "temp", 2.0,
                failure_probability=p.base_failure,
            )
        ],
        sampling_period=sp,
        mote_specs=_threshold(
            "hot_reading", "temperature", ">", p.hot_threshold, 2 * sp
        ),
        # three concurring hot reports despite degradation
        sink_specs=f"""
            EVENT hot_cluster
              WHEN a: hot_reading, b: hot_reading, c: hot_reading
              IF time(a) BEFORE time(c)
                 AND diameter(a, b, c) < {3.0 * p.spacing!r}
              WINDOW {6 * sp} COOLDOWN {4 * sp}
              EMIT time=span space=hull confidence=min
              ATTR temperature = max(
                a.temperature, b.temperature, c.temperature)
        """,
        ccu_specs=_gate(
            "heat_alert", "hot_cluster", 0.3, 10 * sp, "time=span space=hull"
        ),
        command=Command(
            "heat_alert", "ventilate", {"mode": "max"}, "AR_vent", "fan",
            PointLocation(
                (p.cols - 1) * p.spacing / 2.0, (p.rows - 1) * p.spacing / 2.0
            ),
            cooldown=20 * sp,
        ),
        on_command=lambda payload, tick: vent_log.append(tick),
        hub=12.0,
        handles={"vent_log": vent_log},
    )


@family(
    name="sharded_metro",
    description="counter-rotating trams sweep a wide two-sink corridor (sharding stress)",
    layers=("waypoint mobility", "multi-sink WSN", "mote", "sinks", "ccu", "actuation"),
    paper_section="-",
    defaults=dict(
        rows=3, cols=12, spacing=10.0, detect_range=9.0, sampling_period=3,
        tram_a_speed=1.0, tram_b_speed=0.6, horizon=360,
        crossing_window_rounds=6, crossing_cooldown_rounds=2,
        surge_window_rounds=60, surge_cooldown_rounds=30,
    ),
    presets={
        "small": {"rows": 3, "cols": 12, "horizon": 360},
        # Benchmark scale: a longer corridor, denser sampling and a
        # wide uncooled crossing window keep both sinks' pair windows
        # loaded while the load (the tram meeting point) sweeps every
        # spatial partition — the input of the ledger workloads
        # stream_enum and stream_enum_shard4.
        "medium": {"rows": 3, "cols": 20, "sampling_period": 2,
                   "horizon": 900, "crossing_window_rounds": 40,
                   "crossing_cooldown_rounds": 0},
        "large": {"rows": 4, "cols": 28, "sampling_period": 2,
                  "horizon": 1800, "crossing_window_rounds": 50,
                  "crossing_cooldown_rounds": 0},
    },
)
def _sharded_metro(p, rng):
    """The workload the sharded backend is built for.

    A wide corridor served by two sinks on one fabric.  Tram A bounces
    along the mid row, tram B counter-rotates at a different speed, so
    their meetings — the only moments both are inside one window *and*
    one pairing radius — drift along the corridor and sweep every
    spatial partition instead of pinning to its centre.  Each sink fuses
    the two trams' sightings into ``tram_crossing``; the CCU correlates
    two *distant* crossings into ``metro_surge`` (its ``distance >``
    clause is deliberately not halo-boundable: the designated-shard
    fallback) and reroutes traffic.  ``crossing_*_rounds`` /
    ``surge_*_rounds`` size the windows and cooldowns in sampling
    rounds.
    """
    sp = p.sampling_period
    width = (p.cols - 1) * p.spacing
    mid_y = (p.rows - 1) * p.spacing / 2.0
    west, east = PointLocation(0.0, mid_y), PointLocation(width, mid_y)
    tram_a = PhysicalObject(
        "tram_a", PatrolTrajectory([west, east], speed=p.tram_a_speed)
    )
    tram_b = PhysicalObject(
        "tram_b", PatrolTrajectory([east, west], speed=p.tram_b_speed)
    )
    reroute_log: list[int] = []
    max_range = p.detect_range * 2.0
    return Deployment(
        objects=(tram_a, tram_b),
        grid=(p.rows, p.cols, p.spacing),
        radio=UnitDiskRadio(p.spacing * 1.6),
        sinks=("MT0_0", f"MT{p.rows - 1}_{p.cols - 1}"),
        sensors=[
            SensorRow("SRa", "range:tram_a", "tram_a", 0.25, max_range),
            SensorRow("SRb", "range:tram_b", "tram_b", 0.25, max_range),
        ],
        sampling_period=sp,
        mote_specs="".join(
            _threshold(f"{who}_seen", f"range:{who}", "<", p.detect_range, sp)
            for who in ("tram_a", "tram_b")
        ),
        # the two trams sighted passing each other
        sink_specs=_close_pair(
            "tram_crossing", {"a": "tram_a_seen", "b": "tram_b_seen"},
            1.2 * p.spacing,
            window=p.crossing_window_rounds * sp,
            cooldown=p.crossing_cooldown_rounds * sp,
        ),
        # tram crossings in two distant corridor segments
        ccu_specs=f"""
            EVENT metro_surge
              WHEN w: tram_crossing, e: tram_crossing
              IF time(w) BEFORE time(e)
                 AND distance(w, e) > {3.0 * p.spacing!r}
              WINDOW {p.surge_window_rounds * sp}
              COOLDOWN {p.surge_cooldown_rounds * sp}
              EMIT time=span space=hull confidence=min
        """,
        command=Command(
            "metro_surge", "reroute", {"line": "metro"},
            "AR_switch", "track_switch", PointLocation(width / 2.0, mid_y),
            cooldown=40 * sp,
        ),
        on_command=lambda payload, tick: reroute_log.append(tick),
        hub=15.0,
        handles={
            "tram_a": tram_a, "tram_b": tram_b, "reroute_log": reroute_log,
        },
    )


@family(
    name="jittery_corridor",
    description="heavy radio backoff delivers sightings out of event-time order",
    layers=("reordering WSN", "mobility", "mote", "sink", "ccu", "actuation"),
    paper_section="-",
    defaults=dict(
        rows=3, cols=10, spacing=10.0, detect_range=9.0, sampling_period=3,
        drone_speed=0.8, jitter_backoff=6, horizon=360,
        cluster_window_rounds=8, cluster_cooldown_rounds=2,
    ),
    presets={
        "small": {"rows": 3, "cols": 10, "horizon": 360},
        # Benchmark scale: a longer corridor, denser sampling and a
        # wide uncooled pair window keep the sink's windows loaded
        # while the fabric's jitter stays at full strength (the ledger
        # measures streamed throughput on high_density instead, as
        # stream_dense).
        "medium": {"rows": 3, "cols": 16, "sampling_period": 2,
                   "horizon": 720, "cluster_window_rounds": 24,
                   "cluster_cooldown_rounds": 0},
        "large": {"rows": 4, "cols": 24, "sampling_period": 2,
                  "horizon": 1500, "cluster_window_rounds": 30,
                  "cluster_cooldown_rounds": 0},
    },
)
def _jittery_corridor(p, rng):
    """The event-time workload the streaming runtime exists for.

    Every hop of the WSN adds a large uniform CSMA backoff
    (``jitter_backoff`` ticks per attempt).  Far motes traverse more
    hops than near ones and every packet draws its own delays, so two
    sightings of the patrol drone taken one round apart routinely reach
    the sink swapped: real disorder in *event time*, not a synthetic
    shuffle, while the simulator's clock stays monotone.  The sink
    fuses close-by pairs over a window wide enough to absorb the
    jitter.  The stream-conformance suite captures these feeds, checks
    they are genuinely disordered, and replays them with more seeded
    jitter against the golden digest.
    """
    sp = p.sampling_period
    width = (p.cols - 1) * p.spacing
    mid_y = (p.rows - 1) * p.spacing / 2.0
    west, east = PointLocation(0.0, mid_y), PointLocation(width, mid_y)
    drone = PhysicalObject(
        "drone", PatrolTrajectory([west, east], speed=p.drone_speed)
    )
    beacon_log: list[int] = []
    return Deployment(
        objects=(drone,),
        grid=(p.rows, p.cols, p.spacing),
        radio=UnitDiskRadio(p.spacing * 1.6),
        fabric={"backoff_ticks": p.jitter_backoff},
        sensors=[
            SensorRow(
                "SRd", "range:drone", "drone", 0.25, p.detect_range * 2.0
            )
        ],
        sampling_period=sp,
        mote_specs=_threshold(
            "drone_seen", "range:drone", "<", p.detect_range, sp
        ),
        # two close drone sightings despite a reordering radio
        sink_specs=_close_pair(
            "drone_cluster", {"a": "drone_seen", "b": "drone_seen"},
            2.0 * p.spacing,
            window=p.cluster_window_rounds * sp,
            cooldown=p.cluster_cooldown_rounds * sp,
        ),
        ccu_specs=_gate(
            "corridor_alert", "drone_cluster", 0.2, 10 * sp,
            "time=latest space=centroid",
        ),
        command=Command(
            "corridor_alert", "beacon", {"zone": "corridor"},
            "AR_beacon", "strobe", PointLocation(width / 2.0, mid_y),
            cooldown=15 * sp,
        ),
        on_command=lambda payload, tick: beacon_log.append(tick),
        hub=12.0,
        handles={"drone": drone, "beacon_log": beacon_log},
    )


@family(
    name="overload_surge",
    description="field-wide plume burst floods the sink far above steady-state rate",
    layers=("surge plume", "reordering WSN", "mote", "sink", "ccu", "actuation"),
    paper_section="-",
    defaults=dict(
        rows=4, cols=6, spacing=8.0, warm_threshold=40.0, sampling_period=3,
        surge_amplitude=85.0, surge_start=60, surge_end=150,
        jitter_backoff=5, horizon=240, pair_window_rounds=4,
        pair_cooldown_rounds=2,
    ),
    presets={
        "small": {"rows": 4, "cols": 6, "horizon": 240},
        # Benchmark scale: a wider grid, denser sampling and a longer
        # surge window sustain the all-motes-every-round flood; the
        # ledger workload stream_overload replays the large preset.
        "medium": {"rows": 5, "cols": 8, "sampling_period": 2,
                   "horizon": 480, "surge_start": 90, "surge_end": 330},
        "large": {"rows": 6, "cols": 10, "sampling_period": 2,
                  "horizon": 900, "surge_start": 120, "surge_end": 660},
    },
)
def _overload_surge(p, rng):
    """The admission-control workload.

    One plume source whose sigma spans the *entire* grid ramps up
    mid-run, so for the whole surge window every mote sits deep inside
    the plume and fires a ``surge_reading`` each sampling round: the
    sink's ingest rate jumps from a cooldown-gated trickle to
    all-motes-every-round, the burst shape that saturates a bounded
    reorder buffer or a per-source token bucket.  The corridor's CSMA
    backoff fabric (``jitter_backoff``) disorders delivery at the same
    time, so the burst arrives late, swapped and bunched.  Replayed
    through a bounded streaming runtime it drives genuine shedding
    (the overload legs of the stream-conformance suite); run unbounded
    it pins a golden digest like every family, which is what proves
    the admission layer inert when no limit triggers.
    """
    sp = p.sampling_period
    width = (p.cols - 1) * p.spacing
    height = (p.rows - 1) * p.spacing
    center = PointLocation(width / 2.0, height / 2.0)
    plume = GaussianPlumeField(
        base=20.0,
        sources=[
            PlumeSource(
                center, amplitude=p.surge_amplitude,
                sigma=2.0 * max(width, height),
                start=p.surge_start, end=p.surge_end, ramp=6,
            ),
        ],
    )
    siren_log: list[int] = []
    return Deployment(
        fields={"temperature": plume},
        grid=(p.rows, p.cols, p.spacing),
        radio=UnitDiskRadio(p.spacing * 1.6),
        fabric={"backoff_ticks": p.jitter_backoff},
        sensors=[SensorRow("SRt", "temperature", "temp", 1.5)],
        sampling_period=sp,
        # One sampling round of cooldown: during the surge every mote
        # fires every round — the flood is the point.
        mote_specs=_threshold(
            "surge_reading", "temperature", ">", p.warm_threshold, sp
        ),
        # two adjacent surge reports despite the overloaded fabric
        sink_specs=_close_pair(
            "surge_pair", {"a": "surge_reading", "b": "surge_reading"},
            1.2 * p.spacing,
            window=p.pair_window_rounds * sp,
            cooldown=p.pair_cooldown_rounds * sp,
        ),
        ccu_specs=_gate(
            "overload_alert", "surge_pair", 0.2, 12 * sp,
            "time=latest space=centroid",
        ),
        command=Command(
            "overload_alert", "siren", {"zone": "field"},
            "AR_siren", "horn", center, cooldown=20 * sp,
        ),
        on_command=lambda payload, tick: siren_log.append(tick),
        hub=10.0,
        handles={"field": plume, "siren_log": siren_log},
    )


@family(
    name="flaky_uplink",
    description="lossy, jittery uplink thins and reorders rover sightings",
    layers=("lossy WSN", "reordering WSN", "mobility", "mote", "sink",
            "ccu", "actuation"),
    paper_section="-",
    defaults=dict(
        rows=3, cols=8, spacing=10.0, detect_range=9.0, sampling_period=3,
        rover_speed=0.7, uplink_backoff=5, max_retries=4, horizon=320,
        cluster_window_rounds=10, cluster_cooldown_rounds=2,
    ),
    presets={
        "small": {"rows": 3, "cols": 8, "horizon": 320},
        # Benchmark scale: a longer corridor, denser sampling and a
        # wide uncooled pair window keep the sink loaded while the
        # fabric drops and reorders at full strength; the ledger
        # workload stream_faulted replays the large preset.
        "medium": {"rows": 3, "cols": 14, "sampling_period": 2,
                   "horizon": 640, "cluster_window_rounds": 18,
                   "cluster_cooldown_rounds": 0},
        "large": {"rows": 4, "cols": 20, "sampling_period": 2,
                  "horizon": 1280, "cluster_window_rounds": 24,
                  "cluster_cooldown_rounds": 0},
    },
)
def _flaky_uplink(p, rng):
    """The fault-injection workload behind the chaos-conformance suite.

    The fabric combines the corridor's CSMA jitter (``uplink_backoff``
    ticks per hop attempt) with the storm's log-distance lossy radio,
    so a survey rover's sightings reach the sink late, swapped *and*
    thinned; retransmissions (``max_retries``) turn many drops into
    extra-late deliveries instead of losses.  The sink's pair window is
    wide enough to absorb the jitter and the retransmission delays.
    The chaos suite wraps these captured feeds in a crashing,
    duplicating, corrupting source and proves a supervised replay still
    reproduces the golden digest byte-for-byte.
    """
    sp = p.sampling_period
    width = (p.cols - 1) * p.spacing
    mid_y = (p.rows - 1) * p.spacing / 2.0
    west, east = PointLocation(0.0, mid_y), PointLocation(width, mid_y)
    rover = PhysicalObject(
        "rover", PatrolTrajectory([west, east], speed=p.rover_speed)
    )
    relay_log: list[int] = []
    return Deployment(
        objects=(rover,),
        grid=(p.rows, p.cols, p.spacing),
        radio=LogDistanceRadio(d50=p.spacing * 1.05, width=2.5),
        fabric={
            "backoff_ticks": p.uplink_backoff, "max_retries": p.max_retries,
        },
        sensors=[
            SensorRow(
                "SRv", "range:rover", "rover", 0.25, p.detect_range * 2.0
            )
        ],
        sampling_period=sp,
        mote_specs=_threshold(
            "rover_seen", "range:rover", "<", p.detect_range, sp
        ),
        # two close rover sightings despite a lossy, jittery uplink
        sink_specs=_close_pair(
            "uplink_cluster", {"a": "rover_seen", "b": "rover_seen"},
            2.0 * p.spacing,
            window=p.cluster_window_rounds * sp,
            cooldown=p.cluster_cooldown_rounds * sp,
        ),
        ccu_specs=_gate(
            "uplink_alert", "uplink_cluster", 0.2, 10 * sp,
            "time=latest space=centroid",
        ),
        command=Command(
            "uplink_alert", "relay", {"channel": "uplink"},
            "AR_relay", "repeater", PointLocation(width / 2.0, mid_y),
            cooldown=15 * sp,
        ),
        on_command=lambda payload, tick: relay_log.append(tick),
        hub=12.0,
        handles={"rover": rover, "relay_log": relay_log},
    )


@family(
    name="high_density",
    description="pulsing plumes on a dense grid stress the role-window masks",
    layers=("plume field", "dense WSN", "mote", "sink", "ccu"),
    paper_section="-",
    defaults=dict(
        rows=7, cols=7, spacing=6.0, warm_threshold=45.0, sampling_period=4,
        source_amplitude=70.0, source_sigma=12.0, horizon=240,
        pair_window_rounds=5, pair_cooldown_rounds=1,
    ),
    presets={
        "small": {"rows": 6, "cols": 6, "horizon": 210},
        # Benchmark scale: a denser grid, a longer run and a wide
        # uncooled pair window flood the sink with co-located warm
        # readings (real window pressure instead of the cooldown-gated
        # trickle the small preset pins) — the input of the ledger
        # workloads live_dense and stream_dense.
        "medium": {"rows": 10, "cols": 10, "horizon": 360,
                   "sampling_period": 3, "pair_window_rounds": 12,
                   "pair_cooldown_rounds": 0},
        "large": {"rows": 12, "cols": 12, "horizon": 600},
    },
)
def _high_density(p, rng):
    """Clustered warm bursts on a dense grid stress the role windows.

    Plume sources pulse at three spots, one per third of the run; each
    turns the surrounding patch of the densely packed grid warm,
    flooding the sink's pair-condition windows with co-located events —
    the shape where distance-mask pruning pays and where an unsound
    mask would instantly diverge from the naive engine.
    ``pair_*_rounds`` size the sink's window and cooldown in sampling
    rounds.
    """
    sp = p.sampling_period
    width = (p.cols - 1) * p.spacing
    height = (p.rows - 1) * p.spacing
    third = p.horizon // 3
    plume = GaussianPlumeField(
        base=20.0,
        sources=[
            PlumeSource(
                PointLocation(width * fx, height * fy),
                amplitude=p.source_amplitude, sigma=p.source_sigma,
                start=start, end=end, ramp=8,
            )
            for fx, fy, start, end in (
                (0.25, 0.25, 10, third),
                (0.75, 0.5, third + 10, 2 * third),
                (0.4, 0.8, 2 * third + 10, p.horizon),
            )
        ],
    )
    shutter_log: list[int] = []
    return Deployment(
        fields={"temperature": plume},
        grid=(p.rows, p.cols, p.spacing),
        radio=UnitDiskRadio(p.spacing * 1.6),
        sensors=[SensorRow("SRt", "temperature", "temp", 1.5)],
        sampling_period=sp,
        mote_specs=_threshold(
            "warm_reading", "temperature", ">", p.warm_threshold, 2 * sp
        ),
        # two warm reports from adjacent motes
        sink_specs=_close_pair(
            "warm_pair", {"a": "warm_reading", "b": "warm_reading"},
            1.5 * p.spacing,
            window=p.pair_window_rounds * sp,
            cooldown=p.pair_cooldown_rounds * sp,
        ),
        ccu_specs=_gate(
            "density_alert", "warm_pair", 0.2, 15 * sp,
            "time=latest space=centroid",
        ),
        command=Command(
            "density_alert", "shutter", {"sector": "all"},
            "AR_shutter", "shutter_drive",
            PointLocation(width / 2.0, height / 2.0), cooldown=25 * sp,
        ),
        on_command=lambda payload, tick: shutter_log.append(tick),
        hub=10.0,
        handles={"field": plume, "shutter_log": shutter_log},
    )
