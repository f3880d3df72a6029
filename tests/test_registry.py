"""Unit tests for the scenario registry."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from repro.core.errors import ReproError
from repro.cps.ccu import ControlUnit
from repro.cps.component import ObserverComponent
from repro.cps.mote import SensorMote
from repro.cps.sink import SinkNode
from repro.cps.system import CPSSystem
from repro.detect.engine import DetectionEngine
from repro.workloads import (
    SIZE_PRESETS,
    Scenario,
    ScenarioSpec,
    build_scenario,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.workloads.families import deploy


class TestRegistryContents:
    def test_at_least_seven_families(self):
        assert len(scenario_names()) >= 7

    def test_seed_trio_present(self):
        assert {"smart_building", "forest_fire", "intrusion"} <= set(
            scenario_names()
        )

    def test_new_families_present(self):
        assert {
            "convoy_pursuit",
            "urban_campus",
            "sensor_failure_storm",
            "high_density",
        } <= set(scenario_names())

    def test_every_spec_has_all_presets(self):
        for spec in map(get_scenario, scenario_names()):
            for preset in SIZE_PRESETS:
                assert isinstance(spec.params_for(preset), dict)

    def test_catalog_metadata_complete(self):
        for spec in map(get_scenario, scenario_names()):
            assert spec.description
            assert spec.layers
            assert spec.paper_section

    def test_names_are_the_registered_specs(self):
        for name in scenario_names():
            assert get_scenario(name).name == name


class TestLookupAndBuild:
    def test_get_unknown_scenario(self):
        with pytest.raises(ReproError, match="unknown scenario"):
            get_scenario("no_such_scenario")

    def test_unknown_preset(self):
        with pytest.raises(ReproError, match="unknown preset"):
            build_scenario("intrusion", preset="gigantic")

    def test_duplicate_registration_rejected(self):
        spec = get_scenario("intrusion")
        with pytest.raises(ReproError, match="already registered"):
            register_scenario(spec)

    def test_spec_without_all_presets_rejected(self):
        with pytest.raises(ReproError, match="lacks presets"):
            ScenarioSpec(
                name="broken",
                plan=lambda p, rng: None,
                description="x",
                layers=("a",),
                paper_section="-",
                defaults={},
                presets={"small": {}},
            )

    def test_preset_naming_an_undeclared_parameter_rejected(self):
        with pytest.raises(ReproError, match=r"no parameter \['colz'\]"):
            ScenarioSpec(
                name="broken",
                plan=lambda p, rng: None,
                description="x",
                layers=("a",),
                paper_section="-",
                defaults={"cols": 3},
                presets={"small": {}, "medium": {}, "large": {"colz": 9}},
            )

    def test_undeclared_override_refused_before_anything_is_built(
        self, monkeypatch
    ):
        built = []
        monkeypatch.setattr(
            CPSSystem, "__init__", lambda self, **kw: built.append(kw)
        )
        with pytest.raises(ReproError, match=r"no parameter \['rowz'\]") as info:
            build_scenario("intrusion", rowz=3)
        # The refusal names what the family does take.
        for parameter in get_scenario("intrusion").defaults:
            assert parameter in str(info.value)
        assert built == []

    def test_build_returns_runnable_scenario(self):
        scenario = build_scenario("intrusion", preset="small")
        assert isinstance(scenario, Scenario)
        assert scenario.params["horizon"] > 0
        scenario.system.run(until=50)
        assert scenario.system.sim.tick == 50

    def test_default_seed_applied(self):
        spec = get_scenario("intrusion")
        a = build_scenario("intrusion", preset="small")
        b = build_scenario("intrusion", preset="small", seed=spec.default_seed)
        assert a.system.sim.seed == b.system.sim.seed

    def test_overrides_layer_over_preset(self):
        scenario = build_scenario("intrusion", preset="small", horizon=77)
        assert scenario.params["horizon"] == 77

    @pytest.mark.parametrize("preset", SIZE_PRESETS)
    @pytest.mark.parametrize("name", scenario_names())
    def test_every_family_builds_at_every_preset(self, name, preset):
        """Built, not run: every observer holds its layer's specs and the
        layers chain (a sink selects what motes emit, the CCU what sinks
        emit, the rule what the CCU emits)."""
        system = build_scenario(name, preset=preset).system
        motes = list(system.motes.values())
        sinks = list(system.sinks.values())
        (ccu,) = system.ccus.values()
        assert motes and sinks
        shared = [id(spec) for spec in motes[0].engine.specs]
        for mote in motes:
            # The layer's frozen spec objects themselves, not copies.
            assert [id(spec) for spec in mote.engine.specs] == shared
            assert mote.engine.specs or mote.interval_events
        mote_events = {s.event_id for s in motes[0].engine.specs} | {
            config.event_id for config in motes[0].interval_events
        }
        sink_events = set()
        for sink in sinks:
            assert sink.engine.specs
            for spec in sink.engine.specs:
                sink_events.add(spec.event_id)
                for selector in spec.selectors.values():
                    assert selector.kinds <= mote_events
        assert ccu.engine.specs
        for spec in ccu.engine.specs:
            for selector in spec.selectors.values():
                assert selector.kinds <= sink_events
        (rule,) = ccu.rules
        assert rule.event_id in {s.event_id for s in ccu.engine.specs}
        assert len(system.actor_motes) == 1

    @pytest.mark.parametrize(
        "use_planner", [True, False], ids=["default", "naive"]
    )
    def test_engine_config_reaches_every_engine(self, use_planner):
        system = build_scenario(
            "intrusion", preset="small", use_planner=use_planner
        ).system
        motes = list(system.motes.values())
        hubs = [*system.sinks.values(), *system.ccus.values()]
        assert motes and hubs
        for observer in [*motes, *hubs]:
            assert type(observer.engine) is DetectionEngine
            assert observer.engine.use_planner is use_planner


THREADED = ("planner", "shard", "partition", "cell_size")
"""Marks of engine-choice keywords (and of any respelling of them):
only the three entry points below take one, ``use_planner``."""


def test_engine_choice_is_not_threaded_through_signatures():
    plans = [get_scenario(name).plan for name in scenario_names()]
    entry_points = (CPSSystem.__init__, build_scenario, deploy)
    for fn in (
        *entry_points,
        CPSSystem.add_mote,
        CPSSystem.add_sink,
        CPSSystem.add_ccu,
        ObserverComponent.__init__,
        SensorMote.__init__,
        SinkNode.__init__,
        ControlUnit.__init__,
        *plans,
    ):
        threaded = [
            name
            for name in inspect.signature(fn).parameters
            if any(mark in name for mark in THREADED)
        ]
        expected = ["use_planner"] if fn in entry_points else []
        assert threaded == expected, f"{fn.__qualname__} takes {threaded}"
    # A plan describes a deployment; it never sees the engine choice.
    for plan in plans:
        assert list(inspect.signature(plan).parameters) == ["p", "rng"], plan


SPEC_MODULES = (
    "repro.core.spec",
    "repro.core.conditions",
    "repro.core.composite",
)
"""What a scenario would need in order to build a specification from
Python objects again instead of from DSL text."""


def test_workloads_import_no_specification_classes():
    """The DSL stays the one specification surface of `repro.workloads`:
    no module there imports `EventSpecification`, `EntitySelector`,
    `OutputPolicy`, a condition class or a combinator, under any path."""
    import repro.workloads

    banned = set(SPEC_MODULES)
    for module in SPEC_MODULES:
        banned |= set(importlib.import_module(module).__all__)
    for path in sorted(Path(repro.workloads.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                imported = {node.module} | {
                    name
                    for alias in node.names
                    for name in (alias.name, f"{node.module}.{alias.name}")
                }
            elif isinstance(node, ast.Import):
                imported = {alias.name for alias in node.names}
            else:
                continue
            assert not imported & banned, (
                f"{path.name} imports {sorted(imported & banned)}"
            )
