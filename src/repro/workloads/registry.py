"""Named scenario registry: look a family up, build it at a size preset.

Every end-to-end scenario family the repository ships
(:mod:`repro.workloads.families`) is registered here under a stable
name with three size presets and a deterministic default seed.  The
registry is what makes the scenario matrix *enumerable*: the
golden-trace conformance suite, the scenario benchmarks and the README
catalog all iterate :func:`scenario_names` instead of hand-maintaining
parallel lists, so a newly registered family is automatically pinned by
golden traces, exercised planner-vs-naive, and benchmarked.

Usage::

    from repro.workloads import build_scenario, scenario_names

    scenario = build_scenario("intrusion", preset="small", seed=7)
    scenario.system.run(until=scenario.params["horizon"])
"""

from __future__ import annotations

from repro.core.errors import ReproError
from repro.workloads.families import FAMILIES, Scenario, ScenarioSpec, deploy

__all__ = [
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "build_scenario",
]

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
        overrides: Parameter values layered over the preset; a name the
            family does not declare is refused before anything is built.
    """
    spec = get_scenario(name)
    params = spec.params_for(preset)
    spec.check_parameters(overrides, "override")
    params.update(overrides)
    if seed is None:
        seed = spec.default_seed
    return deploy(spec.plan, params, seed)


for _spec in FAMILIES:
    register_scenario(_spec)
