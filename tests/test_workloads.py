"""Unit tests for workload generators and scenario builders."""

import random

import pytest

from repro.core.space_model import BoundingBox
from repro.workloads import build_scenario
from repro.workloads.generators import (
    poisson_ticks,
    synthetic_observations,
)

BOUNDS = BoundingBox(0, 0, 100, 100)


class TestPoissonTicks:
    def test_strictly_increasing(self):
        gen = poisson_ticks(0.5, random.Random(1))
        ticks = [next(gen) for _ in range(100)]
        assert all(b > a for a, b in zip(ticks, ticks[1:]))

    def test_rate_approximated(self):
        gen = poisson_ticks(0.2, random.Random(2))
        ticks = [next(gen) for _ in range(2000)]
        mean_gap = (ticks[-1] - ticks[0]) / (len(ticks) - 1)
        assert 1 / 0.2 * 0.8 < mean_gap < 1 / 0.2 * 1.2

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            next(poisson_ticks(0.0, random.Random(0)))

    def test_reproducible(self):
        a = [next(poisson_ticks(1.0, random.Random(7))) for _ in range(1)]
        b = [next(poisson_ticks(1.0, random.Random(7))) for _ in range(1)]
        assert a == b


class TestSyntheticObservations:
    def test_count_and_bounds(self):
        observations = synthetic_observations(
            200, rate=1.0, bounds=BOUNDS, rng=random.Random(3)
        )
        assert len(observations) == 200
        for obs in observations:
            assert BOUNDS.contains_point(obs.location)
            assert "value" in obs.attributes

    def test_time_ordered(self):
        observations = synthetic_observations(
            100, rate=0.5, bounds=BOUNDS, rng=random.Random(4)
        )
        ticks = [o.time.tick for o in observations]
        assert ticks == sorted(ticks)

    def test_value_distribution(self):
        observations = synthetic_observations(
            2000, rate=1.0, bounds=BOUNDS, rng=random.Random(5),
            mean=50.0, sigma=5.0,
        )
        values = [o.attributes["value"] for o in observations]
        mean = sum(values) / len(values)
        assert 49.0 < mean < 51.0

    def test_mote_pool_respected(self):
        observations = synthetic_observations(
            300, rate=1.0, bounds=BOUNDS, rng=random.Random(6), mote_pool=5
        )
        motes = {o.mote_id for o in observations}
        assert motes <= {f"MT{i}" for i in range(5)}

    def test_per_mote_seq_increments(self):
        observations = synthetic_observations(
            300, rate=1.0, bounds=BOUNDS, rng=random.Random(7), mote_pool=3
        )
        per_mote: dict[str, list[int]] = {}
        for obs in observations:
            per_mote.setdefault(obs.mote_id, []).append(obs.seq)
        for seqs in per_mote.values():
            assert seqs == list(range(len(seqs)))


class TestScenarioBuilders:
    def test_smart_building_parameters_respected(self):
        scenario = build_scenario(
            "smart_building", "medium",
            seed=1, nearby_radius=5.0, stay_ticks=100,
            approach_tick=50, leave_tick=200, horizon=400,
        )
        assert scenario.params["stay_ticks"] == 100
        assert scenario.system.world.object("userA").name == "userA"
        assert scenario.system.sinks
        assert scenario.system.ccus

    def test_forest_fire_ignites_at_configured_tick(self):
        scenario = build_scenario(
            "forest_fire", "medium", seed=2, ignition_tick=50, horizon=120,
        )
        fire = scenario.handles["fire"]
        scenario.system.run(until=49)
        assert fire.burning_cells() == []
        scenario.system.sim.run(until=60)
        assert fire.burning_cells()

    def test_intrusion_grid_size(self):
        scenario = build_scenario(
            "intrusion", "medium", seed=3, rows=3, cols=3,
        )
        # 9 grid positions: 8 sensing motes + 1 sink.
        assert len(scenario.system.motes) == 8
        assert "MT0_0" in scenario.system.sinks

    def test_scenarios_share_no_state(self):
        a = build_scenario("forest_fire", "medium", seed=4)
        b = build_scenario("forest_fire", "medium", seed=4)
        a.system.run(until=300)
        # b must be unaffected by running a.
        assert b.system.sim.tick == 0
        assert b.handles["fire"].burning_cells() == []
        # Identical DSL text is compiled once per process, so all three
        # systems evaluate the very same specification objects: one built
        # (or first run) after another has run must behave as it did.
        c = build_scenario("forest_fire", "medium", seed=4)
        (spec_a,) = a.system.sinks["MT0_0"].engine.specs
        (spec_c,) = c.system.sinks["MT0_0"].engine.specs
        assert spec_c is spec_a
        for later in (b, c):
            later.system.run(until=300)
            assert later.system.trace.digest() == a.system.trace.digest()
        assert a.system.trace.count("instance.emit") > 0
