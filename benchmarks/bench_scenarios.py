"""E11 — scenario matrix: every registered family, end to end.

One row per registered scenario: end-to-end instance counts per layer,
actuations, and the engines' own pruning counters summed over every
observer: bindings judged, candidates the planner's masks rejected
unevaluated, and the pruned share of all considered (that pruning never
changes a match set is the conformance suite's naive leg; this bench
reports the cost side).  The timing row measures the complete
simulation.

Rows come from :func:`repro.workloads.scenario_names`, so newly
registered families appear here automatically.
"""

import pytest

from repro.detect import EngineStats
from repro.workloads import build_scenario, scenario_names


def run_scenario(name: str, preset: str):
    scenario = build_scenario(name, preset=preset)
    scenario.system.run(until=scenario.params["horizon"])
    return scenario


def total_stats(system) -> EngineStats:
    observers = [
        *system.motes.values(), *system.sinks.values(), *system.ccus.values()
    ]
    return EngineStats.merge(o.engine.stats for o in observers)


class TestE11ScenarioMatrix:
    @pytest.mark.parametrize("name", scenario_names())
    def test_scenario_row(self, benchmark, report, quick, name):
        preset = "small" if quick else "medium"
        scenario = benchmark.pedantic(
            run_scenario, args=(name, preset), rounds=1, iterations=1
        )

        system = scenario.system
        layers = {
            layer.name: count
            for layer, count in sorted(
                system.instances_by_layer().items(), key=lambda kv: kv[0].value
            )
        }
        stats = total_stats(system)
        report(
            f"[E11] {name:<22} preset={preset:<6} layers={layers} "
            f"actuations={system.trace.count('command.executed')} "
            f"bindings={stats.bindings_evaluated} "
            f"pruned={stats.candidates_pruned} "
            f"pruned_ratio={stats.pruned_ratio:.3f}"
        )
        # The matrix rows must stay end-to-end alive; match-set equality
        # with the naive reference lives in the conformance suite.
        assert layers.get("CYBER", 0) >= 1
        assert stats.matches <= stats.bindings_evaluated
