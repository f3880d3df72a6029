"""E11 — scenario matrix: every registered family, planner vs naive.

One row per registered scenario: end-to-end instance counts per layer,
actuations, and the indexed engine's binding-evaluation reduction over
the brute-force baseline on the *same* workload (match sets are pinned
equal by the conformance suite; this bench reports the cost side).
The timing row measures the complete plan-driven simulation.

Rows come from :func:`repro.workloads.scenario_names`, so newly
registered families appear here automatically.
"""

import pytest

from repro.shard import EngineConfig
from repro.workloads import build_scenario, scenario_names


def run_scenario(name: str, preset: str, use_planner: bool):
    scenario = build_scenario(
        name, preset=preset, engine=EngineConfig(use_planner=use_planner)
    )
    scenario.system.run(until=scenario.params["horizon"])
    return scenario


def total_bindings(system) -> int:
    observers = [
        *system.motes.values(), *system.sinks.values(), *system.ccus.values()
    ]
    return sum(o.engine.stats.bindings_evaluated for o in observers)


class TestE11ScenarioMatrix:
    @pytest.mark.parametrize("name", scenario_names())
    def test_scenario_row(self, benchmark, report, quick, name):
        preset = "small" if quick else "medium"
        planner = benchmark.pedantic(
            run_scenario, args=(name, preset, True), rounds=1, iterations=1
        )
        naive = run_scenario(name, preset, False)

        system = planner.system
        layers = {
            layer.name: count
            for layer, count in sorted(
                system.instances_by_layer().items(), key=lambda kv: kv[0].value
            )
        }
        planner_bindings = total_bindings(system)
        naive_bindings = total_bindings(naive.system)
        reduction = naive_bindings / max(1, planner_bindings)
        report(
            f"[E11] {name:<22} preset={preset:<6} layers={layers} "
            f"actuations={system.trace.count('command.executed')} "
            f"bindings indexed={planner_bindings} naive={naive_bindings} "
            f"({reduction:.1f}x)"
        )
        # The matrix rows must stay end-to-end alive and semantically
        # aligned across engines; deep equality lives in the
        # conformance suite.
        assert layers.get("CYBER", 0) >= 1
        assert planner_bindings <= naive_bindings
        assert system.trace.count("instance.emit") == naive.system.trace.count(
            "instance.emit"
        )
