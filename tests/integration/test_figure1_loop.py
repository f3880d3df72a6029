"""Integration test: the full Figure 1 control loop.

"Changing Physical World" -> sensing -> sink -> CCU -> actuator
commands -> dispatch -> actor motes -> "Changing / Affecting" the
physical world.  The test verifies the loop *closes*: the actuation
measurably changes the physical world, and the change is reflected in
subsequent sensing.
"""

import pytest

from repro.core.event import EventLayer
from repro.workloads import build_scenario


class TestFireSuppressionLoop:
    def test_suppression_bounds_fire_spread(self):
        """With the loop closed, the burned fraction must be strictly
        smaller than with detection-only (no actuation)."""
        closed = build_scenario(
            "forest_fire", "medium", seed=21, suppress=True,
        )
        closed.system.run(until=closed.params["horizon"])
        open_loop = build_scenario(
            "forest_fire", "medium", seed=21, suppress=False,
        )
        open_loop.system.run(until=open_loop.params["horizon"])

        assert closed.handles["suppress_log"], "no suppression command executed"
        assert open_loop.handles["suppress_log"], (
            "open-loop run should still *receive* commands"
        )
        burned_closed = closed.handles["fire"].burned_fraction
        burned_open = open_loop.handles["fire"].burned_fraction
        assert burned_closed < burned_open

    def test_loop_latency_is_bounded(self):
        scenario = build_scenario("forest_fire", "medium", seed=21)
        scenario.system.run(until=scenario.params["horizon"])
        ignition = scenario.params["ignition_tick"]
        first_command = scenario.handles["suppress_log"][0]
        reaction = first_command - ignition
        assert 0 < reaction < 200, f"loop reaction {reaction} ticks"

    def test_all_stages_traced(self):
        scenario = build_scenario("forest_fire", "medium", seed=21)
        scenario.system.run(until=scenario.params["horizon"])
        trace = scenario.system.trace
        assert trace.count("sample.ok") > 0
        assert trace.count("instance.emit") > 0
        assert trace.count("sink.receive") > 0
        assert trace.count("ccu.receive") > 0
        assert trace.count("ccu.command") > 0
        assert trace.count("command.executed") > 0

    def test_publish_subscribe_fanout(self):
        scenario = build_scenario("forest_fire", "medium", seed=21)
        scenario.system.run(until=scenario.params["horizon"])
        bus = scenario.system.bus
        # CP events fan out to the CCU and the database at least.
        assert bus.published_count > 0
        assert bus.delivered_count >= bus.published_count


class TestBuildingComfortLoop:
    def test_long_stay_triggers_hvac(self):
        scenario = build_scenario("smart_building", "medium", seed=4)
        scenario.system.run(until=scenario.params["horizon"])
        commands = scenario.handles["hvac_commands"]
        assert len(commands) >= 1
        tick, payload = commands[0]
        assert payload["mode"] == "comfort"
        # The command follows the stay, never precedes its threshold.
        assert tick >= scenario.params["approach_tick"] + scenario.params["stay_ticks"]

    def test_short_stay_triggers_nothing(self):
        scenario = build_scenario(
            "smart_building", "medium",
            seed=4, approach_tick=100, leave_tick=180, stay_ticks=300,
            horizon=600,
        )
        scenario.system.run(until=scenario.params["horizon"])
        assert scenario.handles["hvac_commands"] == []

    def test_hierarchy_counts(self):
        scenario = build_scenario("smart_building", "medium", seed=4)
        scenario.system.run(until=scenario.params["horizon"])
        layers = scenario.system.instances_by_layer()
        assert layers.get(EventLayer.SENSOR, 0) >= 1
        assert layers.get(EventLayer.CYBER_PHYSICAL, 0) >= 1
        assert layers.get(EventLayer.CYBER, 0) >= 1
