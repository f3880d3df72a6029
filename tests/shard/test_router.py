"""Halo derivation (EvaluationPlan.spatial_reach) and routing modes."""

import pytest

from repro.core.composite import all_of, any_of
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
from repro.core.instance import PhysicalObservation
from repro.core.operators import RelationalOp, SpatialOp, TemporalOp
from repro.core.space_model import (
    EPS,
    BoundingBox,
    Circle,
    PointLocation,
)
from repro.core.spec import EntitySelector, EventSpecification
from repro.core.time_model import TimePoint
from repro.detect.planner import compile_plan
from repro.shard.partitioner import WorldPartitioner
from repro.shard.router import BROADCAST, DESIGNATED, ObservationRouter

BOUNDS = BoundingBox(0.0, 0.0, 100.0, 100.0)


def obs(i, x, y, tick=0, kind="value"):
    return PhysicalObservation(
        mote_id=f"MT{i}",
        sensor_id="SR0",
        seq=i,
        time=TimePoint(tick),
        location=PointLocation(x, y),
        attributes={kind: 1.0},
    )


def selectors(*roles, kind="value"):
    return {role: EntitySelector(kinds={kind}) for role in roles}


def spec_of(condition, event_id="s", roles=("a", "b"), group=(), window=10):
    return EventSpecification(
        event_id=event_id,
        selectors=selectors(*roles),
        condition=condition,
        window=window,
        group_roles=frozenset(group),
    )


def dist(a, b, radius, op=RelationalOp.LT):
    return SpatialMeasureCondition("distance", (a, b), op, radius)


class TestSpatialReach:
    def test_single_role_reaches_zero(self):
        spec = spec_of(
            AttributeCondition("last", (AttributeTerm("a", "value"),),
                               RelationalOp.GT, 0.0),
            roles=("a",),
        )
        assert compile_plan(spec).spatial_reach() == 0.0

    def test_pair_distance_is_the_radius(self):
        spec = spec_of(dist("a", "b", 12.5))
        assert compile_plan(spec).spatial_reach() == 12.5

    def test_chain_sums_radii(self):
        spec = spec_of(
            all_of(dist("a", "b", 10.0), dist("b", "c", 7.0)),
            roles=("a", "b", "c"),
        )
        assert compile_plan(spec).spatial_reach() == pytest.approx(17.0)

    def test_disconnected_roles_unbounded(self):
        spec = spec_of(
            all_of(
                dist("a", "b", 10.0),
                TemporalCondition(TimeOf("c"), TemporalOp.BEFORE, TimeOf("a")),
            ),
            roles=("a", "b", "c"),
        )
        assert compile_plan(spec).spatial_reach() is None

    def test_disjunction_unbounded(self):
        spec = spec_of(any_of(dist("a", "b", 5.0), dist("a", "b", 50.0)))
        assert compile_plan(spec).spatial_reach() is None

    def test_gt_distance_unbounded(self):
        spec = spec_of(dist("a", "b", 30.0, op=RelationalOp.GT))
        assert compile_plan(spec).spatial_reach() is None

    def test_group_roles_unbounded(self):
        spec = spec_of(
            AttributeCondition("average", (AttributeTerm("g", "value"),),
                               RelationalOp.GE, 0.0),
            roles=("g", "x"),
            group=("g",),
        )
        assert compile_plan(spec).spatial_reach() is None

    def test_anchored_components_use_union_bbox_diagonal(self):
        # Two disconnected roles, each inside a known region: any match
        # fits in the union's bounding box, whose diagonal bounds the
        # pairwise distance.
        west = BoundingBox(0.0, 0.0, 10.0, 10.0)
        east = Circle(PointLocation(90.0, 90.0), 5.0)
        spec = spec_of(
            all_of(
                SpatialCondition(
                    LocationOf("a"), SpatialOp.INSIDE, LocationConst(west)
                ),
                SpatialCondition(
                    LocationOf("b"), SpatialOp.INSIDE, LocationConst(east)
                ),
            ),
        )
        reach = compile_plan(spec).spatial_reach()
        assert reach == pytest.approx((2 * 95.0**2) ** 0.5)

    def test_near_constant_anchor(self):
        spec = spec_of(
            all_of(
                SpatialMeasureCondition(
                    "distance", ("a",), RelationalOp.LE, 4.0,
                    constant_location=PointLocation(10.0, 10.0),
                ),
                SpatialMeasureCondition(
                    "distance", ("b",), RelationalOp.LE, 4.0,
                    constant_location=PointLocation(10.0, 20.0),
                ),
            ),
        )
        reach = compile_plan(spec).spatial_reach()
        # Union bbox spans x in [6,14], y in [6,24].
        assert reach == pytest.approx((8.0**2 + 18.0**2) ** 0.5)


class TestRoutingModes:
    def _router(self, specs, shards=4):
        partitioner = WorldPartitioner(BOUNDS, shards)
        router = ObservationRouter(partitioner)
        for spec in specs:
            router.add_spec(spec, compile_plan(spec))
        return router

    def test_halo_spec_routes_home_plus_neighbors(self):
        spec = spec_of(dist("a", "b", 10.0))
        router = self._router([spec])
        assert router.mode_of("s") == pytest.approx(10.0 + EPS)
        # Interior point: home only, flagged for evaluation.
        interior = router.route(obs(0, 25.0, 25.0))
        assert list(interior) == [(0, True)]
        # Point near the x=50 boundary: mirrored (window-only) east.
        edge = dict(router.route(obs(1, 45.0, 25.0)))
        assert edge == {0: True, 1: False}

    def test_interior_margin_exactly_halo(self):
        spec = spec_of(dist("a", "b", 10.0, op=RelationalOp.LE))
        router = self._router([spec])
        # 10 + EPS from the boundary: still mirrored (halo is padded).
        assert len(router.route(obs(0, 40.0 - EPS, 25.0))) == 2
        assert len(router.route(obs(1, 39.0, 25.0))) == 1

    def test_unselected_entities_dropped(self):
        router = self._router([spec_of(dist("a", "b", 10.0))])
        assert router.route(obs(0, 25.0, 25.0, kind="other")) == ()
        assert router.stats.dropped == 1

    def test_designated_mode_pins_to_shard_zero(self):
        spec = spec_of(dist("a", "b", 30.0, op=RelationalOp.GT))
        router = self._router([spec])
        assert router.mode_of("s") is DESIGNATED
        assert list(router.route(obs(0, 80.0, 80.0))) == [(0, True)]

    def test_group_spec_broadcasts_with_designated_owner(self):
        spec = spec_of(
            AttributeCondition("average", (AttributeTerm("g", "value"),),
                               RelationalOp.GE, 0.0),
            roles=("g", "x"),
            group=("g",),
        )
        router = self._router([spec])
        assert router.mode_of("s") is BROADCAST
        deliveries = dict(router.route(obs(0, 80.0, 80.0)))
        assert set(deliveries) == {0, 1, 2, 3}
        # Owner = designated shard; everything else is window-only.
        assert deliveries[0] is True
        assert deliveries[1] is False and deliveries[2] is False

    def test_field_located_entity_evaluates_everywhere(self):
        spec = spec_of(dist("a", "b", 10.0))
        router = self._router([spec])
        entity = PhysicalObservation(
            mote_id="MTF",
            sensor_id="SR0",
            seq=9,
            time=TimePoint(0),
            location=Circle(PointLocation(50.0, 50.0), 5.0),
            attributes={"value": 1.0},
        )
        assert list(router.route(entity)) == [
            (0, True), (1, True), (2, True), (3, True),
        ]

    def test_union_of_halo_and_designated_specs(self):
        near = spec_of(dist("a", "b", 10.0), event_id="near")
        far = spec_of(dist("a", "b", 30.0, op=RelationalOp.GT), event_id="far")
        router = self._router([near, far])
        deliveries = dict(router.route(obs(0, 80.0, 80.0)))
        # Home shard (3) evaluates; designated shard (0) evaluates too.
        assert deliveries[3] is True and deliveries[0] is True
