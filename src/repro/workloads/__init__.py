"""Workloads: scenario families, the scenario registry and generators."""

from repro.workloads.families import SIZE_PRESETS, Scenario, ScenarioSpec
from repro.workloads.generators import (
    poisson_ticks,
    synthetic_observations,
)
from repro.workloads.registry import (
    build_scenario,
    get_scenario,
    register_scenario,
    scenario_names,
)

__all__ = [
    "Scenario",
    "SIZE_PRESETS",
    "ScenarioSpec",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "build_scenario",
    "poisson_ticks",
    "synthetic_observations",
]
