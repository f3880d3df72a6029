"""Named, parameterized scenario registry with size presets.

Every end-to-end scenario family the repository ships is registered
here under a stable name with three size presets (``small`` for CI and
conformance, ``medium`` for benchmarks, ``large`` for scaling studies)
and a deterministic default seed.  The registry is what makes the
scenario matrix *enumerable*: the golden-trace conformance suite, the
scenario benchmarks and the README catalog all iterate
:func:`iter_scenarios` instead of hand-maintaining parallel lists, so a
newly registered family is automatically pinned by golden traces,
exercised planner-vs-naive, and benchmarked.

Usage::

    from repro.workloads import build_scenario, scenario_names

    scenario = build_scenario("intrusion", preset="small", seed=7)
    scenario.system.run(until=scenario.params["horizon"])
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.core.errors import ReproError
from repro.workloads.families import (
    build_convoy_pursuit,
    build_flaky_uplink,
    build_high_density,
    build_jittery_corridor,
    build_overload_surge,
    build_sensor_failure_storm,
    build_sharded_metro,
    build_urban_campus,
)
from repro.workloads.scenarios import (
    Scenario,
    build_forest_fire,
    build_intrusion,
    build_smart_building,
)

__all__ = [
    "SIZE_PRESETS",
    "ScenarioSpec",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "iter_scenarios",
    "build_scenario",
]

SIZE_PRESETS = ("small", "medium", "large")
"""The preset names every registered scenario must provide."""


@dataclass(frozen=True)
class ScenarioSpec:
    """One registered scenario family.

    Args:
        name: Stable registry key.
        builder: Scenario factory; must accept ``seed`` and ``engine``
            (an :class:`~repro.shard.engine.EngineConfig`) keywords
            plus the preset parameters.
        description: One-line summary (README catalog row).
        layers: Subsystem layers the scenario exercises (catalog row).
        paper_section: Paper section the workload traces back to
            (``"-"`` for post-paper extensions).
        presets: Builder keyword overrides per size preset; every name
            in :data:`SIZE_PRESETS` must be present (``{}`` = builder
            defaults).
        default_seed: Seed used when the caller passes none, so
            "the registered scenario" names one deterministic run.
    """

    name: str
    builder: Callable[..., Scenario] = field(repr=False)
    description: str
    layers: tuple[str, ...]
    paper_section: str
    presets: Mapping[str, Mapping[str, object]]
    default_seed: int = 0

    def __post_init__(self) -> None:
        missing = [p for p in SIZE_PRESETS if p not in self.presets]
        if missing:
            raise ReproError(
                f"scenario {self.name!r} lacks presets {missing}; "
                f"every scenario must define {SIZE_PRESETS}"
            )

    def params_for(self, preset: str) -> dict[str, object]:
        """The builder keywords of one preset (a fresh dict)."""
        try:
            return dict(self.presets[preset])
        except KeyError:
            raise ReproError(
                f"unknown preset {preset!r} for scenario {self.name!r}; "
                f"choose from {SIZE_PRESETS}"
            ) from None


_REGISTRY: dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Register a scenario family (names must be unique)."""
    if spec.name in _REGISTRY:
        raise ReproError(f"scenario {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up one registered scenario family."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown scenario {name!r}; registered: {scenario_names()}"
        ) from None


def scenario_names() -> tuple[str, ...]:
    """All registered scenario names, in registration order."""
    return tuple(_REGISTRY)


def iter_scenarios() -> tuple[ScenarioSpec, ...]:
    """All registered scenario specs, in registration order."""
    return tuple(_REGISTRY.values())


def build_scenario(
    name: str,
    preset: str = "small",
    seed: int | None = None,
    **overrides: object,
) -> Scenario:
    """Build one registered scenario at a size preset.

    Args:
        name: Registered scenario name.
        preset: Size preset (``small`` / ``medium`` / ``large``).
        seed: Root random seed; defaults to the family's registered
            deterministic seed.
        overrides: Extra builder keywords layered over the preset —
            ``engine=EngineConfig(...)`` picks the detection backend.
    """
    spec = get_scenario(name)
    params = spec.params_for(preset)
    params.update(overrides)
    if seed is None:
        seed = spec.default_seed
    return spec.builder(seed=seed, **params)


# ----------------------------------------------------------------------
# the registered matrix
# ----------------------------------------------------------------------

register_scenario(
    ScenarioSpec(
        name="smart_building",
        builder=build_smart_building,
        description="user lingers near a window; long stays adjust the HVAC",
        layers=("mote intervals", "sink", "ccu", "actuation"),
        paper_section="§1, §4.2",
        presets={
            "small": {"stay_ticks": 120, "approach_tick": 60,
                      "leave_tick": 260, "horizon": 400},
            "medium": {},
            "large": {"stay_ticks": 600, "approach_tick": 200,
                      "leave_tick": 1400, "horizon": 2000},
        },
    )
)

register_scenario(
    ScenarioSpec(
        name="forest_fire",
        builder=build_forest_fire,
        description="spreading fire fused into a field event; suppression closes the loop",
        layers=("fire dynamics", "mote", "sink", "ccu", "actuation"),
        paper_section="§4.2",
        presets={
            "small": {"rows": 4, "cols": 4, "ignition_tick": 60,
                      "horizon": 400},
            "medium": {},
            "large": {"rows": 8, "cols": 8, "horizon": 1500},
        },
    )
)

register_scenario(
    ScenarioSpec(
        name="intrusion",
        builder=build_intrusion,
        description="patrolling intruder trilaterated from concurring range detections",
        layers=("mobility", "mote", "sink+trilateration", "ccu", "actuation"),
        paper_section="§4.2 (S1)",
        presets={
            "small": {"rows": 3, "cols": 3, "horizon": 300},
            "medium": {},
            "large": {"rows": 6, "cols": 6, "horizon": 1200},
        },
    )
)

register_scenario(
    ScenarioSpec(
        name="convoy_pursuit",
        builder=build_convoy_pursuit,
        description="pursuer chases a convoy leader; the composite event moves with the chase",
        layers=("waypoint mobility", "mote", "sink", "ccu", "actuation"),
        paper_section="-",
        presets={
            "small": {"rows": 3, "cols": 5, "leader_arrival": 240,
                      "pursuer_start": 40, "pursuer_arrival": 220,
                      "horizon": 300},
            # Benchmark scale: a long corridor with a wide pursuit
            # window kept below the pursuer's minimum positional lag
            # (150 ticks), so stale leader sightings along the chase
            # path never pair with the pursuer — the naive engine
            # scans the full window for nothing while the planner
            # prunes it, which is exactly the hot-path pressure the
            # BENCH_* reports track.
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
)

register_scenario(
    ScenarioSpec(
        name="urban_campus",
        builder=build_urban_campus,
        description="two sinks share one fabric; the CCU fuses cross-sink zone activity",
        layers=("multi-sink WSN", "mote", "sinks", "ccu", "actuation"),
        paper_section="-",
        presets={
            "small": {"rows": 3, "cols": 6, "horizon": 350},
            "medium": {},
            "large": {"rows": 6, "cols": 12, "horizon": 1000},
        },
    )
)

register_scenario(
    ScenarioSpec(
        name="sensor_failure_storm",
        builder=build_sensor_failure_storm,
        description="sensor failures spike mid-run on a lossy radio; detection degrades and recovers",
        layers=("failure injection", "lossy radio", "mote", "sink", "ccu"),
        paper_section="-",
        presets={
            "small": {"storm_start": 120, "storm_end": 240, "horizon": 360},
            "medium": {},
            "large": {"rows": 6, "cols": 6, "storm_start": 300,
                      "storm_end": 700, "horizon": 1200},
        },
    )
)

register_scenario(
    ScenarioSpec(
        name="sharded_metro",
        builder=build_sharded_metro,
        description="counter-rotating trams sweep a wide two-sink corridor (sharding stress)",
        layers=("waypoint mobility", "multi-sink WSN", "mote", "sinks", "ccu", "actuation"),
        paper_section="-",
        presets={
            "small": {"rows": 3, "cols": 12, "horizon": 360},
            # Benchmark scale: a longer corridor, denser sampling and a
            # wide uncooled crossing window keep both sinks' pair
            # windows loaded while the load (the tram meeting point)
            # sweeps every spatial partition — the input of the ledger
            # workloads stream_enum and stream_enum_shard4.
            "medium": {"rows": 3, "cols": 20, "sampling_period": 2,
                       "horizon": 900, "crossing_window_rounds": 40,
                       "crossing_cooldown_rounds": 0},
            "large": {"rows": 4, "cols": 28, "sampling_period": 2,
                      "horizon": 1800, "crossing_window_rounds": 50,
                      "crossing_cooldown_rounds": 0},
        },
    )
)

register_scenario(
    ScenarioSpec(
        name="jittery_corridor",
        builder=build_jittery_corridor,
        description="heavy radio backoff delivers sightings out of event-time order",
        layers=("reordering WSN", "mobility", "mote", "sink", "ccu", "actuation"),
        paper_section="-",
        presets={
            "small": {"rows": 3, "cols": 10, "horizon": 360},
            # Benchmark scale: a longer corridor, denser sampling and a
            # wide uncooled pair window keep the sink's windows loaded
            # while the fabric's jitter stays at full strength (the
            # ledger measures streamed throughput on high_density
            # instead, as stream_dense).
            "medium": {"rows": 3, "cols": 16, "sampling_period": 2,
                       "horizon": 720, "cluster_window_rounds": 24,
                       "cluster_cooldown_rounds": 0},
            "large": {"rows": 4, "cols": 24, "sampling_period": 2,
                      "horizon": 1500, "cluster_window_rounds": 30,
                      "cluster_cooldown_rounds": 0},
        },
    )
)

register_scenario(
    ScenarioSpec(
        name="overload_surge",
        builder=build_overload_surge,
        description="field-wide plume burst floods the sink far above steady-state rate",
        layers=("surge plume", "reordering WSN", "mote", "sink", "ccu", "actuation"),
        paper_section="-",
        presets={
            "small": {"rows": 4, "cols": 6, "horizon": 240},
            # Benchmark scale: a wider grid, denser sampling and a
            # longer surge window sustain the all-motes-every-round
            # flood; the ledger workload stream_overload replays the
            # large preset.
            "medium": {"rows": 5, "cols": 8, "sampling_period": 2,
                       "horizon": 480, "surge_start": 90,
                       "surge_end": 330},
            "large": {"rows": 6, "cols": 10, "sampling_period": 2,
                      "horizon": 900, "surge_start": 120,
                      "surge_end": 660},
        },
    )
)

register_scenario(
    ScenarioSpec(
        name="flaky_uplink",
        builder=build_flaky_uplink,
        description="lossy, jittery uplink thins and reorders rover sightings",
        layers=("lossy WSN", "reordering WSN", "mobility", "mote", "sink",
                "ccu", "actuation"),
        paper_section="-",
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
)

register_scenario(
    ScenarioSpec(
        name="high_density",
        builder=build_high_density,
        description="pulsing plumes on a dense grid stress the role-window masks",
        layers=("plume field", "dense WSN", "mote", "sink", "ccu"),
        paper_section="-",
        presets={
            "small": {"rows": 6, "cols": 6, "horizon": 210},
            # Benchmark scale: a denser grid, a longer run and a wide
            # uncooled pair window flood the sink with co-located warm
            # readings — the input of the ledger workloads live_dense
            # and stream_dense.
            "medium": {"rows": 10, "cols": 10, "horizon": 360,
                       "sampling_period": 3, "pair_window_rounds": 12,
                       "pair_cooldown_rounds": 0},
            "large": {"rows": 12, "cols": 12, "horizon": 600},
        },
    )
)
