"""E1 — Figure 1 reproduced behaviorally: the closed CPS control loop.

The paper's Figure 1 is an architecture diagram; this bench runs it:
physical change -> sensing -> sink -> CCU -> actuator command ->
physical effect, and reports the loop's stage counts and reaction time.
The timing row measures one complete closed-loop simulation.
"""

import pytest

from repro.workloads import build_scenario


def run_loop(seed=21, horizon=800, suppress=True):
    scenario = build_scenario(
        "forest_fire", "medium", seed=seed, suppress=suppress, horizon=horizon,
    )
    scenario.system.run(until=horizon)
    return scenario


class TestFigure1ClosedLoop:
    def test_closed_loop_end_to_end(self, benchmark, report):
        scenario = benchmark.pedantic(run_loop, rounds=1, iterations=1)
        system = scenario.system
        trace = system.trace
        ignition = scenario.params["ignition_tick"]
        suppress_log = scenario.handles["suppress_log"]
        assert suppress_log, "loop did not close"
        reaction = suppress_log[0] - ignition

        report(
            "",
            "[E1/Figure 1] closed control loop, forest-fire workload",
            f"  samples taken            : {trace.count('sample.ok')}",
            f"  instances emitted        : {trace.count('instance.emit')}",
            f"  sink ingestions          : {trace.count('sink.receive')}",
            f"  CCU ingestions           : {trace.count('ccu.receive')}",
            f"  commands issued          : {trace.count('ccu.command')}",
            f"  commands executed        : {trace.count('command.executed')}",
            f"  WSN delivered / dropped  : "
            f"{system.sensor_network.delivered_count} / "
            f"{system.sensor_network.dropped_count}",
            f"  occurrence->actuation    : {reaction} ticks",
            f"  burned fraction (closed) : "
            f"{scenario.handles['fire'].burned_fraction:.3f}",
        )
        assert 0 < reaction < 250

    def test_actuation_changes_the_physical_world(self, benchmark, report):
        """The loop's defining property: with actuation the burned area
        is strictly smaller than without."""

        def both():
            closed = run_loop(suppress=True)
            open_loop = run_loop(suppress=False)
            return closed, open_loop

        closed, open_loop = benchmark.pedantic(both, rounds=1, iterations=1)
        burned_closed = closed.handles["fire"].burned_fraction
        burned_open = open_loop.handles["fire"].burned_fraction
        report(
            "",
            "[E1/Figure 1] actuation effect (closed vs open loop)",
            f"  burned fraction closed loop : {burned_closed:.3f}",
            f"  burned fraction open loop   : {burned_open:.3f}",
            f"  reduction                   : "
            f"{(1 - burned_closed / burned_open) * 100:.0f}%",
        )
        assert burned_closed < burned_open

    def test_pub_sub_fanout(self, benchmark, report):
        scenario = benchmark.pedantic(run_loop, rounds=1, iterations=1)
        bus = scenario.system.bus
        report(
            "",
            "[E1/Figure 1] publish/subscribe fabric",
            f"  published instances : {bus.published_count}",
            f"  deliveries          : {bus.delivered_count}",
            f"  subscriptions       : {bus.subscription_count}",
        )
        assert bus.delivered_count >= bus.published_count  # CCU + DB fanout
