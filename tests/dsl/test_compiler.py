"""Unit tests for the DSL compiler (AST -> EventSpecification)."""

import pytest

from repro.core.conditions import (
    AttributeCondition,
    ConfidenceCondition,
    SpatialCondition,
    SpatialMeasureCondition,
    TemporalCondition,
    TemporalMeasureCondition,
)
from repro.core.errors import DslSyntaxError
from repro.core.instance import PhysicalObservation
from repro.core.operators import SpatialOp, TemporalOp
from repro.core.space_model import Circle, PointLocation
from repro.core.time_model import TimePoint
from repro.detect.compiler import compile_condition
from repro.dsl.compiler import compile_source

ZONE = Circle(PointLocation(0, 0), 10.0)


def compile_one(source, env=None):
    specs = compile_source(source, env=env)
    assert len(specs) == 1
    return specs[0]


def obs(mote="MT1", seq=0, tick=0, x=0.0, y=0.0, **attrs):
    return PhysicalObservation(
        mote, "SR1", seq, TimePoint(tick), PointLocation(x, y),
        attrs or {"v": 1.0},
    )


class TestPredicateFamilies:
    def test_attribute_condition(self):
        spec = compile_one("EVENT e WHEN x: v IF avg(x.v) > 5")
        leaf = spec.condition.condition
        assert isinstance(leaf, AttributeCondition)
        assert leaf.lower()({"x": obs(v=6.0)})
        assert not leaf.lower()({"x": obs(v=4.0)})

    def test_spatial_measure_condition(self):
        spec = compile_one("EVENT e WHEN x: v, y: v IF distance(x, y) < 5")
        leaf = spec.condition.condition
        assert isinstance(leaf, SpatialMeasureCondition)

    def test_temporal_measure_condition(self):
        spec = compile_one("EVENT e WHEN x: v IF duration(x) >= 100")
        leaf = spec.condition.condition
        assert isinstance(leaf, TemporalMeasureCondition)

    def test_confidence_condition(self):
        spec = compile_one("EVENT e WHEN x: v IF rho(x) >= 0.8")
        leaf = spec.condition.condition
        assert isinstance(leaf, ConfidenceCondition)

    def test_temporal_relation(self):
        spec = compile_one(
            "EVENT e WHEN x: v, y: v IF time(x) + 5 BEFORE time(y)"
        )
        leaf = spec.condition.condition
        assert isinstance(leaf, TemporalCondition)
        assert leaf.op is TemporalOp.BEFORE
        assert leaf.lower()({"x": obs(tick=0), "y": obs(mote="M2", tick=9)})
        assert not leaf.lower()({"x": obs(tick=0), "y": obs(mote="M2", tick=3)})

    def test_temporal_constants(self):
        spec = compile_one(
            "EVENT e WHEN x: v IF time(x) WITHIN interval(10, 20)"
        )
        leaf = spec.condition.condition
        assert leaf.lower()({"x": obs(tick=15)})
        assert not leaf.lower()({"x": obs(tick=25)})

    def test_spatial_relation_with_region(self):
        spec = compile_one(
            "EVENT e WHEN x: v IF location(x) INSIDE region(zone)",
            env={"zone": ZONE},
        )
        leaf = spec.condition.condition
        assert isinstance(leaf, SpatialCondition)
        assert leaf.op is SpatialOp.INSIDE
        assert leaf.lower()({"x": obs(x=1, y=1)})
        assert not leaf.lower()({"x": obs(x=50, y=50)})

    def test_point_literal(self):
        spec = compile_one(
            "EVENT e WHEN x: v IF location(x) EQUAL_TO point(3, 4)"
        )
        leaf = spec.condition.condition
        assert leaf.lower()({"x": obs(x=3, y=4)})

    def test_centroid_aggregate(self):
        spec = compile_one(
            "EVENT e WHEN a: v, b: v IF centroid(a, b) INSIDE region(zone)",
            env={"zone": ZONE},
        )
        binding = {"a": obs(x=-5), "b": obs(mote="M2", x=5)}
        assert compile_condition(spec.condition)(binding)

    def test_contains_disambiguated_by_family(self):
        temporal = compile_one(
            "EVENT e WHEN x: v, y: v IF time(x) CONTAINS time(y)"
        )
        assert isinstance(temporal.condition.condition, TemporalCondition)
        spatial = compile_one(
            "EVENT e WHEN x: v, y: v IF location(x) CONTAINS location(y)"
        )
        assert isinstance(spatial.condition.condition, SpatialCondition)


class TestSpecAssembly:
    def test_selectors_from_roles(self):
        spec = compile_one(
            "EVENT e WHEN x: hot IN region(zone) RHO >= 0.4 IF rho(x) >= 0",
            env={"zone": ZONE},
        )
        selector = spec.selectors["x"]
        assert selector.kinds == frozenset({"hot"})
        assert selector.region is ZONE
        assert selector.min_confidence == 0.4

    def test_group_roles(self):
        spec = compile_one(
            "EVENT e WHEN GROUP g: v IF count(g) >= 3"
        )
        assert spec.group_roles == frozenset({"g"})

    def test_window_cooldown_emit(self):
        spec = compile_one(
            "EVENT e WHEN x: v IF avg(x.v) > 0 "
            "WINDOW 30 COOLDOWN 10 EMIT time=span space=hull confidence=product"
        )
        assert spec.window == 30
        assert spec.cooldown == 10
        assert spec.output.time == "span"
        assert spec.output.space == "hull"
        assert spec.output.confidence == "product"

    def test_attr_recipes(self):
        spec = compile_one(
            "EVENT e WHEN a: v, b: v IF avg(a.v, b.v) > 0 "
            "ATTR peak = max(a.v, b.v) ATTR low = min(a.v)"
        )
        names = [a.name for a in spec.output.attributes]
        assert names == ["peak", "low"]


class TestCompileErrors:
    def test_undeclared_role(self):
        with pytest.raises(DslSyntaxError, match="not declared"):
            compile_one("EVENT e WHEN x: v IF avg(y.v) > 0")

    def test_unknown_region(self):
        with pytest.raises(DslSyntaxError, match="region"):
            compile_one("EVENT e WHEN x: v IF location(x) INSIDE region(mars)")

    def test_unknown_function(self):
        with pytest.raises(DslSyntaxError, match="unknown function"):
            compile_one("EVENT e WHEN x: v IF teleport(x) > 0")

    def test_family_mismatch(self):
        with pytest.raises(DslSyntaxError, match="cannot relate"):
            compile_one("EVENT e WHEN x: v IF time(x) BEFORE location(x)")

    def test_spatial_keyword_on_times(self):
        with pytest.raises(DslSyntaxError, match="not a temporal operator"):
            compile_one("EVENT e WHEN x: v, y: v IF time(x) INSIDE time(y)")

    def test_value_aggregate_without_attributes(self):
        with pytest.raises(DslSyntaxError, match="role.attribute"):
            compile_one("EVENT e WHEN x: v IF avg(x) > 0")

    def test_unknown_emit_setting(self):
        with pytest.raises(DslSyntaxError, match="EMIT"):
            compile_one("EVENT e WHEN x: v IF avg(x.v) > 0 EMIT colour=red")

    def test_attr_with_undeclared_role(self):
        with pytest.raises(DslSyntaxError, match="undeclared role"):
            compile_one(
                "EVENT e WHEN x: v IF avg(x.v) > 0 ATTR a = max(z.v)"
            )

    def test_offset_on_spatial_rejected(self):
        with pytest.raises(DslSyntaxError):
            compile_one(
                "EVENT e WHEN x: v, y: v IF location(x) + 3 INSIDE location(y)"
            )


class TestEndToEnd:
    def test_compiled_spec_drives_engine(self):
        from repro.detect.engine import DetectionEngine

        spec = compile_one(
            "EVENT close_pair WHEN a: v, b: v "
            "IF time(a) BEFORE time(b) AND distance(a, b) < 10 "
            "WINDOW 20"
        )
        engine = DetectionEngine([spec])
        engine.submit(obs("MT1", tick=1), now=1)
        matches = engine.submit(obs("MT2", tick=3, x=5.0), now=3)
        assert len(matches) == 1
        assert matches[0].spec.event_id == "close_pair"
