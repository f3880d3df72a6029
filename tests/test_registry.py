"""Unit tests for the scenario registry."""

import inspect

import pytest

from repro.core.errors import ReproError
from repro.cps.ccu import ControlUnit
from repro.cps.component import ObserverComponent
from repro.cps.mote import SensorMote
from repro.cps.sink import SinkNode
from repro.cps.system import CPSSystem
from repro.detect.engine import DetectionEngine
from repro.shard import EngineConfig, ShardedDetectionEngine
from repro.workloads import (
    SIZE_PRESETS,
    Scenario,
    ScenarioSpec,
    build_scenario,
    get_scenario,
    iter_scenarios,
    register_scenario,
    scenario_names,
)


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
        for spec in iter_scenarios():
            for preset in SIZE_PRESETS:
                assert isinstance(spec.params_for(preset), dict)

    def test_catalog_metadata_complete(self):
        for spec in iter_scenarios():
            assert spec.description
            assert spec.layers
            assert spec.paper_section

    def test_iter_matches_names(self):
        assert tuple(s.name for s in iter_scenarios()) == scenario_names()


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
                builder=lambda **kw: None,
                description="x",
                layers=("a",),
                paper_section="-",
                presets={"small": {}},
            )

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

    @pytest.mark.parametrize(
        "engine",
        [
            EngineConfig(),
            EngineConfig(use_planner=False),
            EngineConfig(shards=4, partition="stripes"),
        ],
        ids=["default", "naive", "stripes4"],
    )
    def test_engine_config_reaches_every_engine(self, engine):
        system = build_scenario(
            "intrusion", preset="small", engine=engine
        ).system
        motes = list(system.motes.values())
        hubs = [*system.sinks.values(), *system.ccus.values()]
        assert motes and hubs
        for observer in [*motes, *hubs]:
            assert observer.engine.use_planner is engine.use_planner
        # A mote is itself a spatial shard: always one single engine.
        assert all(type(m.engine) is DetectionEngine for m in motes)
        for hub in hubs:
            if engine.shards == 1:
                assert type(hub.engine) is DetectionEngine
            else:
                assert type(hub.engine) is ShardedDetectionEngine
                assert hub.engine.shard_count == engine.shards
                assert hub.engine.partitioner.strategy == engine.partition
                assert hub.engine.partitioner.bounds == system.detection_bounds()


THREADED = ("planner", "shard", "partition", "cell_size")
"""Marks of the five keywords `EngineConfig` replaced (and of any
respelling of them); none may grow back on the signatures below."""


def test_engine_choice_is_not_threaded_through_signatures():
    builders = [spec.builder for spec in iter_scenarios()]
    for fn in (
        CPSSystem.__init__,
        CPSSystem.add_mote,
        CPSSystem.add_sink,
        CPSSystem.add_ccu,
        ObserverComponent.__init__,
        SensorMote.__init__,
        SinkNode.__init__,
        ControlUnit.__init__,
        build_scenario,
        *builders,
    ):
        threaded = [
            name
            for name in inspect.signature(fn).parameters
            if any(mark in name for mark in THREADED)
        ]
        assert not threaded, f"{fn.__qualname__} takes {threaded}"
    for builder in builders:
        assert "engine" in inspect.signature(builder).parameters, builder
