"""Planner compilation and planned-vs-exhaustive equivalence.

The load-bearing property is *semantic transparency*: for any
specification and any workload, the plan-driven engine must produce
exactly the match set of brute-force enumeration — pruning may only
skip bindings that provably cannot match.  The differential tests below
check that on randomized workloads across every clause family the
planner knows how to extract, plus shapes it must refuse to prune
(disjunctions, negations, group roles).
"""

import random
from dataclasses import replace

import pytest

from repro.core.composite import Not, Or, all_of
from repro.core.conditions import (
    AttributeCondition,
    AttributeTerm,
    LocationConst,
    LocationOf,
    SpatialCondition,
    SpatialMeasureCondition,
    TemporalCondition,
    TimeOf,
)
from repro.core.operators import RelationalOp, SpatialOp, TemporalOp
from repro.core.space_model import BoundingBox, PointLocation
from repro.core.spec import EntitySelector, EventSpecification
from repro.detect import engine as engine_module
from repro.detect.compiler import compile_condition
from repro.detect.engine import DetectionEngine, binding_identity
from repro.detect.planner import compile_plan
from repro.workloads import build_scenario, scenario_names, synthetic_observations

BOUNDS = BoundingBox(0, 0, 100, 100)


def distance_cond(a="a", b="b", radius=15.0, op=RelationalOp.LT):
    return SpatialMeasureCondition("distance", (a, b), op, radius)


DISTANCE_OPS = [RelationalOp.LT, RelationalOp.LE, RelationalOp.GT, RelationalOp.GE]


def before_cond(a="a", b="b", offset=0):
    return TemporalCondition(TimeOf(a, offset=offset), TemporalOp.BEFORE, TimeOf(b))


def pair_selectors():
    return {
        "a": EntitySelector(kinds={"value"}),
        "b": EntitySelector(kinds={"value"}),
    }


class TestPlanCompilation:
    def test_conjunctive_clauses_extracted(self):
        spec = EventSpecification(
            event_id="e",
            selectors=pair_selectors(),
            condition=all_of(distance_cond(), before_cond()),
            window=20,
        )
        plan = compile_plan(spec)
        assert plan.prunable
        assert len(plan.distances) == 1
        assert plan.distances[0].radius == 15.0
        assert len(plan.orders) == 1
        assert plan.orders[0].earlier == "a" and plan.orders[0].later == "b"
        assert plan.beyonds == ()

    @pytest.mark.parametrize("op", [RelationalOp.GT, RelationalOp.GE])
    def test_beyond_clause_extracted_printed_and_kept_out_of_reach(self, op):
        spec = EventSpecification(
            event_id="e",
            selectors={
                "w": EntitySelector(kinds={"value"}),
                "e": EntitySelector(kinds={"value"}),
            },
            condition=all_of(
                before_cond("w", "e"), distance_cond("w", "e", 30.0, op)
            ),
            window=20,
        )
        plan = compile_plan(spec)
        assert plan.prunable
        assert plan.distances == ()
        assert [(c.role_a, c.role_b, c.radius) for c in plan.beyonds] == [
            ("w", "e", 30.0)
        ]
        assert plan.peer_roles("w") == {"e"}
        assert "dist(w,e)>=30" in plan.describe()
        # spatial_reach() ignores beyond clauses: a lower bound on a
        # distance connects nothing, so the router must still broadcast.
        assert plan.spatial_reach() is None

    def test_beyond_clause_next_to_within_keeps_the_within_reach(self):
        spec = EventSpecification(
            event_id="e",
            selectors=pair_selectors(),
            condition=all_of(
                distance_cond(radius=15.0),
                distance_cond(radius=5.0, op=RelationalOp.GT),
            ),
            window=20,
        )
        plan = compile_plan(spec)
        assert plan.spatial_reach() == 15.0
        assert plan.describe() == "dist(a,b)<=15 & dist(a,b)>=5"

    def test_after_swaps_order_clause(self):
        spec = EventSpecification(
            event_id="e",
            selectors=pair_selectors(),
            condition=TemporalCondition(
                TimeOf("a"), TemporalOp.AFTER, TimeOf("b")
            ),
            window=20,
        )
        plan = compile_plan(spec)
        assert plan.orders[0].earlier == "b" and plan.orders[0].later == "a"

    def test_clauses_under_or_not_extracted(self):
        spec = EventSpecification(
            event_id="e",
            selectors=pair_selectors(),
            condition=Or((distance_cond(), before_cond())),
            window=20,
        )
        plan = compile_plan(spec)
        assert not plan.prunable

    def test_clauses_under_not_not_extracted(self):
        spec = EventSpecification(
            event_id="e",
            selectors=pair_selectors(),
            condition=Not(distance_cond()),
            window=20,
        )
        assert not compile_plan(spec).prunable

    def test_group_roles_never_pruned(self):
        spec = EventSpecification(
            event_id="e",
            selectors=pair_selectors(),
            condition=distance_cond(),
            window=20,
            group_roles={"a"},
        )
        assert not compile_plan(spec).prunable

    def test_region_clause_from_inside_constant(self):
        region = BoundingBox(0, 0, 30, 30)
        spec = EventSpecification(
            event_id="e",
            selectors={"x": EntitySelector(kinds={"value"})},
            condition=SpatialCondition(
                LocationOf("x"), SpatialOp.INSIDE, LocationConst(region)
            ),
            window=10,
        )
        plan = compile_plan(spec)
        assert len(plan.regions) == 1
        assert plan.regions[0].region is region

    def test_attribute_conditions_not_prunable(self):
        spec = EventSpecification(
            event_id="e",
            selectors={"x": EntitySelector(kinds={"value"})},
            condition=AttributeCondition(
                "last", (AttributeTerm("x", "value"),), RelationalOp.GT, 50.0
            ),
        )
        assert not compile_plan(spec).prunable


def run_engines(specs, observations):
    """Match-key sets and stats for planned vs exhaustive evaluation."""
    results = []
    for use_planner in (True, False):
        engine = DetectionEngine(specs, use_planner=use_planner)
        keys = set()
        for obs in observations:
            for match in engine.submit(obs, obs.time.tick):
                keys.add(
                    (match.spec.event_id, binding_identity(match.spec)(match.binding))
                )
        results.append((keys, engine.stats))
    return results


class TestDifferentialEquivalence:
    """Planner-pruned matches == exhaustive matches, randomized workloads."""

    @pytest.mark.parametrize(
        "seed, op",
        [(seed, RelationalOp.LT) for seed in (0, 1, 2, 3)]
        + [(seed, op) for op in DISTANCE_OPS[1:] for seed in (0, 1)],
    )
    def test_spatial_temporal_pair(self, seed, op):
        observations = synthetic_observations(
            400, rate=1.0, bounds=BOUNDS, rng=random.Random(seed)
        )
        within = op in (RelationalOp.LT, RelationalOp.LE)
        spec = EventSpecification(
            event_id="pair",
            selectors=pair_selectors(),
            condition=all_of(
                distance_cond(radius=18.0 if within else 60.0, op=op),
                before_cond(),
            ),
            window=30,
        )
        (planned, p_stats), (naive, n_stats) = run_engines([spec], observations)
        assert planned == naive
        assert p_stats.matches == n_stats.matches > 0
        assert p_stats.bindings_evaluated * 2 < n_stats.bindings_evaluated

    @pytest.mark.parametrize("seed", [4, 5])
    def test_offset_temporal_orders(self, seed):
        observations = synthetic_observations(
            300, rate=1.0, bounds=BOUNDS, rng=random.Random(seed)
        )
        spec = EventSpecification(
            event_id="ordered",
            selectors=pair_selectors(),
            condition=TemporalCondition(
                TimeOf("a", offset=5), TemporalOp.BEFORE, TimeOf("b")
            ),
            window=25,
        )
        (planned, _), (naive, _) = run_engines([spec], observations)
        assert planned == naive

    @pytest.mark.parametrize("seed", [6, 7])
    def test_region(self, seed):
        observations = synthetic_observations(
            300, rate=1.0, bounds=BOUNDS, rng=random.Random(seed)
        )
        region_spec = EventSpecification(
            event_id="in_region",
            selectors={"x": EntitySelector(kinds={"value"})},
            condition=all_of(
                SpatialCondition(
                    LocationOf("x"),
                    SpatialOp.INSIDE,
                    LocationConst(BoundingBox(10, 10, 45, 45)),
                ),
                AttributeCondition(
                    "last", (AttributeTerm("x", "value"),), RelationalOp.GT, 45.0
                ),
            ),
            window=10,
        )
        (planned, p_stats), (naive, n_stats) = run_engines(
            [region_spec], observations
        )
        assert planned == naive
        assert p_stats.bindings_evaluated < n_stats.bindings_evaluated

    @pytest.mark.parametrize("seed", [8, 9])
    def test_disjunctive_falls_back_identically(self, seed):
        observations = synthetic_observations(
            250, rate=1.0, bounds=BOUNDS, rng=random.Random(seed)
        )
        spec = EventSpecification(
            event_id="either",
            selectors=pair_selectors(),
            condition=Or((distance_cond(radius=10.0), before_cond())),
            window=15,
        )
        (planned, p_stats), (naive, n_stats) = run_engines([spec], observations)
        assert planned == naive
        # No prunable clause: both paths evaluate the same bindings.
        assert p_stats.bindings_evaluated == n_stats.bindings_evaluated

    @pytest.mark.parametrize("seed", [10, 11])
    def test_group_role_with_spatial_pair(self, seed):
        observations = synthetic_observations(
            250, rate=1.0, bounds=BOUNDS, rng=random.Random(seed)
        )
        spec = EventSpecification(
            event_id="grouped",
            selectors={
                "g": EntitySelector(kinds={"value"}),
                "x": EntitySelector(kinds={"value"}),
            },
            condition=all_of(
                AttributeCondition(
                    "average", (AttributeTerm("g", "value"),), RelationalOp.GT, 40.0
                ),
                SpatialCondition(
                    LocationOf("x"),
                    SpatialOp.INSIDE,
                    LocationConst(BoundingBox(15, 15, 85, 85)),
                ),
            ),
            window=12,
            group_roles={"g"},
        )
        (planned, _), (naive, _) = run_engines([spec], observations)
        assert planned == naive

    @pytest.mark.parametrize(
        "op_ab, op_bc",
        [
            (RelationalOp.LT, RelationalOp.LT),
            (RelationalOp.LE, RelationalOp.GT),
            (RelationalOp.GE, RelationalOp.LE),
            (RelationalOp.GT, RelationalOp.GE),
        ],
    )
    def test_three_role_chain(self, op_ab, op_bc):
        observations = synthetic_observations(
            160, rate=1.0, bounds=BOUNDS, rng=random.Random(12)
        )

        def link(a, b, op):
            within = op in (RelationalOp.LT, RelationalOp.LE)
            return distance_cond(a, b, 20.0 if within else 55.0, op)

        spec = EventSpecification(
            event_id="chain",
            selectors={
                "a": EntitySelector(kinds={"value"}),
                "b": EntitySelector(kinds={"value"}),
                "c": EntitySelector(kinds={"value"}),
            },
            condition=all_of(
                link("a", "b", op_ab),
                link("b", "c", op_bc),
                before_cond("a", "c"),
            ),
            window=15,
        )
        (planned, p_stats), (naive, n_stats) = run_engines([spec], observations)
        assert planned == naive
        assert p_stats.matches == n_stats.matches > 0
        assert p_stats.bindings_evaluated < n_stats.bindings_evaluated

    def test_batched_equals_sequential(self):
        from dataclasses import replace

        from repro.core.time_model import TimePoint

        observations = [
            replace(obs, time=TimePoint(obs.time.tick // 3))
            for obs in synthetic_observations(
                300, rate=1.0, bounds=BOUNDS, rng=random.Random(13)
            )
        ]
        spec = EventSpecification(
            event_id="pair",
            selectors=pair_selectors(),
            condition=all_of(distance_cond(radius=18.0), before_cond()),
            window=20,
        )

        sequential = DetectionEngine([spec])
        seq_keys = set()
        for obs in observations:
            for match in sequential.submit(obs, obs.time.tick):
                seq_keys.add(binding_identity(spec)(match.binding))

        import itertools

        batched = DetectionEngine([spec])
        batch_keys = set()
        for tick, group in itertools.groupby(
            observations, key=lambda o: o.time.tick
        ):
            for match in batched.submit_batch(list(group), tick):
                batch_keys.add(binding_identity(spec)(match.binding))

        assert batch_keys == seq_keys
        assert batched.stats.batches_submitted < sequential.stats.batches_submitted


class TestPruningEffectiveness:
    """Acceptance guard: ≥2x fewer bindings on spatially-selective specs."""

    def test_reduction_at_least_2x_on_selective_workload(self):
        observations = synthetic_observations(
            600, rate=1.0, bounds=BOUNDS, rng=random.Random(5)
        )
        spec = EventSpecification(
            event_id="pair",
            selectors=pair_selectors(),
            condition=all_of(
                before_cond(),
                distance_cond(radius=20.0),
            ),
            window=40,
        )
        (planned, p_stats), (naive, n_stats) = run_engines([spec], observations)
        assert planned == naive
        assert p_stats.bindings_evaluated * 2 <= n_stats.bindings_evaluated
        assert p_stats.candidates_pruned > 0


class TestDecisivePlans:
    """Where the masks prove as well as reject: the S1 pair shape."""

    def test_sink_shaped_pair_proves_what_it_can_and_judges_the_rest(
        self, monkeypatch
    ):
        """Cooldown 0 and about 30 matches per reading, as at a dense
        sink.  Every 25th reading and the next one lie exactly the
        radius apart: the proof must leave that binding to the judge."""
        calls = 0

        def counted(node):
            compiled = compile_condition(node)

            def fn(binding):
                nonlocal calls
                calls += 1
                return compiled(binding)

            return fn

        monkeypatch.setattr(engine_module, "compile_condition", counted)
        observations = synthetic_observations(
            300, rate=1.0, bounds=BOUNDS, rng=random.Random(14)
        )
        for index in range(0, len(observations) - 1, 25):
            first, second = observations[index], observations[index + 1]
            observations[index] = replace(first, location=PointLocation(10, 10))
            observations[index + 1] = replace(
                second, location=PointLocation(52, 66)  # 70 away
            )
        spec = EventSpecification(
            event_id="dense_pair",
            selectors=pair_selectors(),
            condition=all_of(before_cond(), distance_cond(radius=70.0)),
            window=60,
        )
        assert compile_plan(spec).decisive
        streams, stats = [], []
        for use_planner in (True, False):
            engine = DetectionEngine([spec], use_planner=use_planner)
            identify = binding_identity(spec)
            streams.append(
                [
                    (match.tick, identify(match.binding))
                    for obs in observations
                    for match in engine.submit(obs, obs.time.tick)
                ]
            )
            stats.append(engine.stats)
        (planned, naive), (p_stats, n_stats) = streams, stats
        assert planned == naive
        assert p_stats.matches >= 25 * len(observations)
        assert n_stats.bindings_proven == 0
        assert 0 < calls < p_stats.bindings_proven
        assert p_stats.bindings_proven + calls == p_stats.bindings_evaluated


# Per registered family, the event ids whose plan is decisive: exactly
# its two-role specs, each an S1 pair of a within or beyond clause and
# an order clause.
DECISIVE = {
    "smart_building": set(),
    "forest_fire": set(),
    "intrusion": set(),
    "convoy_pursuit": {"pursuit"},
    "urban_campus": {"zone_activity", "campus_sweep"},
    "sensor_failure_storm": set(),
    "sharded_metro": {"tram_crossing", "metro_surge"},
    "jittery_corridor": {"drone_cluster"},
    "overload_surge": {"surge_pair"},
    "flaky_uplink": {"uplink_cluster"},
    "high_density": {"warm_pair"},
}


def test_the_decisive_table_covers_the_registry():
    assert list(DECISIVE) == list(scenario_names())


@pytest.mark.parametrize("family", list(DECISIVE))
def test_exactly_the_registered_pair_specs_are_decisive(family):
    system = build_scenario(family, "small").system
    observers = [*system.motes.values(), *system.sinks.values(), *system.ccus.values()]
    specs = {spec.event_id: spec for o in observers for spec in o.engine.specs}
    assert {
        event_id for event_id, spec in specs.items() if compile_plan(spec).decisive
    } == {
        event_id for event_id, spec in specs.items() if len(spec.roles) == 2
    } == DECISIVE[family]
