"""Unit tests for event conditions (Eqs. 4.2-4.4) and their expressions."""

import pytest

from repro.core.conditions import (
    AttributeCondition,
    AttributeTerm,
    ConfidenceCondition,
    LocationConst,
    LocationOf,
    SpaceAgg,
    SpatialCondition,
    SpatialMeasureCondition,
    TemporalCondition,
    TemporalMeasureCondition,
    TimeAgg,
    TimeConst,
    TimeOf,
    entities_for,
)
from repro.core.errors import BindingError, ConditionError
from repro.core.instance import (
    EventInstance,
    ObserverId,
    ObserverKind,
    PhysicalObservation,
)
from repro.core.event import EventLayer
from repro.core.operators import RelationalOp, SpatialOp, TemporalOp
from repro.core.space_model import Circle, PointLocation
from repro.core.time_model import TimeInterval, TimePoint


def obs(mote="MT1", seq=0, tick=10, x=0.0, y=0.0, **attrs):
    return PhysicalObservation(
        mote, "SR1", seq, TimePoint(tick), PointLocation(x, y), attrs or {"v": 1.0}
    )


def interval_instance(event_id="stay", start=5, end=25, x=3.0, y=3.0, rho=0.8):
    return EventInstance(
        observer=ObserverId(ObserverKind.SENSOR_MOTE, "MT1"),
        event_id=event_id,
        seq=0,
        generated_time=TimePoint(end + 1),
        generated_location=PointLocation(x, y),
        estimated_time=TimeInterval(TimePoint(start), TimePoint(end)),
        estimated_location=PointLocation(x, y),
        confidence=rho,
        layer=EventLayer.SENSOR,
    )


class TestBindingAccess:
    def test_single_entity(self):
        entity = obs()
        assert entities_for("x", {"x": entity}) == [entity]

    def test_group_binding(self):
        group = (obs(seq=0), obs(seq=1))
        assert entities_for("g", {"g": group}) == list(group)

    def test_missing_role(self):
        with pytest.raises(BindingError, match="not bound"):
            entities_for("x", {})

    def test_empty_group(self):
        with pytest.raises(BindingError, match="empty group"):
            entities_for("g", {"g": ()})


class TestAttributeCondition:
    def test_paper_average_example(self):
        # "Average(Vx, Vy) > C"
        cond = AttributeCondition(
            "average",
            (AttributeTerm("x", "v"), AttributeTerm("y", "v")),
            RelationalOp.GT,
            5.0,
        )
        binding = {"x": obs(v=4.0), "y": obs(mote="MT2", v=8.0)}
        assert cond.lower()(binding)       # avg 6 > 5
        binding = {"x": obs(v=1.0), "y": obs(mote="MT2", v=2.0)}
        assert not cond.lower()(binding)

    def test_group_terms_flatten(self):
        cond = AttributeCondition(
            "count", (AttributeTerm("g", "v"),), RelationalOp.GE, 3
        )
        assert cond.lower()({"g": tuple(obs(seq=i) for i in range(3))})
        assert not cond.lower()({"g": tuple(obs(seq=i) for i in range(2))})

    def test_missing_attribute_raises_binding_error(self):
        cond = AttributeCondition(
            "max", (AttributeTerm("x", "humidity"),), RelationalOp.GT, 0
        )
        with pytest.raises(BindingError):
            cond.lower()({"x": obs(v=1.0)})

    def test_non_numeric_attribute_rejected(self):
        cond = AttributeCondition(
            "max", (AttributeTerm("x", "label"),), RelationalOp.GT, 0
        )
        with pytest.raises(BindingError):
            cond.lower()({"x": obs(label="hot")})

    def test_unknown_aggregate_fails_eagerly(self):
        with pytest.raises(ConditionError):
            AttributeCondition(
                "p99", (AttributeTerm("x", "v"),), RelationalOp.GT, 0
            )

    def test_empty_terms_rejected(self):
        with pytest.raises(ConditionError):
            AttributeCondition("avg", (), RelationalOp.GT, 0)

    def test_roles(self):
        cond = AttributeCondition(
            "avg",
            (AttributeTerm("x", "v"), AttributeTerm("y", "v")),
            RelationalOp.GT,
            5.0,
        )
        assert cond.roles == {"x", "y"}


class TestTemporalCondition:
    def test_paper_offset_example(self):
        # "t_x + 5 Before t_y"
        cond = TemporalCondition(
            TimeOf("x", offset=5), TemporalOp.BEFORE, TimeOf("y")
        )
        assert cond.lower()({"x": obs(tick=1), "y": obs(mote="MT2", tick=10)})
        assert not cond.lower()({"x": obs(tick=1), "y": obs(mote="MT2", tick=6)})

    def test_negative_offset(self):
        cond = TemporalCondition(
            TimeOf("x", offset=-5), TemporalOp.AFTER, TimeOf("y")
        )
        assert cond.lower()({"x": obs(tick=20), "y": obs(mote="MT2", tick=10)})

    def test_against_constant_interval(self):
        window = TimeConst(TimeInterval(TimePoint(10), TimePoint(20)))
        cond = TemporalCondition(TimeOf("x"), TemporalOp.DURING, window)
        assert cond.lower()({"x": obs(tick=15)})
        assert not cond.lower()({"x": obs(tick=25)})

    def test_interval_entity_offset_shifts_whole_interval(self):
        cond = TemporalCondition(
            TimeOf("e", offset=10), TemporalOp.AFTER, TimeConst(TimePoint(30))
        )
        assert cond.lower()({"e": interval_instance(start=25, end=28)})

    def test_group_role_resolves_to_span(self):
        cond = TemporalCondition(
            TimeOf("g"), TemporalOp.EQUALS,
            TimeConst(TimeInterval(TimePoint(2), TimePoint(8))),
        )
        group = (obs(tick=2), obs(seq=1, tick=8))
        assert cond.lower()({"g": group})

    def test_time_agg_expression(self):
        cond = TemporalCondition(
            TimeAgg("earliest", ("x", "y")),
            TemporalOp.BEFORE,
            TimeConst(TimePoint(5)),
        )
        assert cond.lower()({"x": obs(tick=3), "y": obs(mote="MT2", tick=9)})
        assert cond.roles == {"x", "y"}


class TestTemporalMeasureCondition:
    def test_duration_threshold(self):
        # "the interval event lasted at least 15 ticks"
        cond = TemporalMeasureCondition(
            "duration", ("e",), RelationalOp.GE, 15
        )
        assert cond.lower()({"e": interval_instance(start=5, end=25)})
        assert not cond.lower()({"e": interval_instance(start=5, end=10)})

    def test_spread_over_two_roles(self):
        cond = TemporalMeasureCondition(
            "spread", ("x", "y"), RelationalOp.LE, 10
        )
        assert cond.lower()({"x": obs(tick=5), "y": obs(mote="MT2", tick=12)})
        assert not cond.lower()({"x": obs(tick=5), "y": obs(mote="MT2", tick=30)})

    def test_validation(self):
        with pytest.raises(ConditionError):
            TemporalMeasureCondition("velocity", ("x",), RelationalOp.GT, 1)
        with pytest.raises(ConditionError):
            TemporalMeasureCondition("duration", (), RelationalOp.GT, 1)


class TestSpatialCondition:
    def test_paper_inside_example(self):
        # "l_x Inside l_y" where y is a field event instance
        field_instance = EventInstance(
            observer=ObserverId(ObserverKind.SINK_NODE, "S1"),
            event_id="zone",
            seq=0,
            generated_time=TimePoint(1),
            generated_location=PointLocation(0, 0),
            estimated_time=TimePoint(1),
            estimated_location=Circle(PointLocation(0, 0), 10),
            layer=EventLayer.CYBER_PHYSICAL,
        )
        cond = SpatialCondition(
            LocationOf("x"), SpatialOp.INSIDE, LocationOf("y")
        )
        assert cond.lower()({"x": obs(x=3, y=3), "y": field_instance})
        assert not cond.lower()({"x": obs(x=30, y=3), "y": field_instance})

    def test_against_constant_region(self):
        cond = SpatialCondition(
            LocationOf("x"),
            SpatialOp.INSIDE,
            LocationConst(Circle(PointLocation(0, 0), 5)),
        )
        assert cond.lower()({"x": obs(x=1, y=1)})
        assert not cond.lower()({"x": obs(x=9, y=9)})

    def test_space_agg_centroid(self):
        cond = SpatialCondition(
            SpaceAgg("centroid", ("a", "b")),
            SpatialOp.INSIDE,
            LocationConst(Circle(PointLocation(2, 0), 1)),
        )
        binding = {"a": obs(x=0, y=0), "b": obs(mote="MT2", x=4, y=0)}
        assert cond.lower()(binding)

    def test_group_resolves_to_hull(self):
        cond = SpatialCondition(
            LocationOf("g"),
            SpatialOp.INSIDE,
            LocationConst(Circle(PointLocation(2, 2), 10)),
        )
        group = (obs(x=0, y=0), obs(seq=1, x=4, y=0), obs(seq=2, x=2, y=4))
        assert cond.lower()({"g": group})


class TestSpatialMeasureCondition:
    def test_paper_s1_distance_clause(self):
        # "the distance between location of x and location of y < 5"
        cond = SpatialMeasureCondition(
            "distance", ("x", "y"), RelationalOp.LT, 5.0
        )
        assert cond.lower()({"x": obs(x=0, y=0), "y": obs(mote="MT2", x=3, y=0)})
        assert not cond.lower()({"x": obs(x=0, y=0), "y": obs(mote="MT2", x=9, y=0)})

    def test_diameter_three_roles(self):
        cond = SpatialMeasureCondition(
            "diameter", ("a", "b", "c"), RelationalOp.LT, 10.0
        )
        binding = {
            "a": obs(x=0, y=0),
            "b": obs(mote="MT2", x=3, y=0),
            "c": obs(mote="MT3", x=0, y=4),
        }
        assert cond.lower()(binding)


class TestConfidenceCondition:
    def test_single_entity(self):
        cond = ConfidenceCondition("e", RelationalOp.GE, 0.5)
        assert cond.lower()({"e": interval_instance(rho=0.8)})
        assert not cond.lower()({"e": interval_instance(rho=0.2)})

    def test_group_uses_weakest_link(self):
        cond = ConfidenceCondition("g", RelationalOp.GE, 0.5)
        group = (interval_instance(rho=0.9), interval_instance(rho=0.3))
        assert not cond.lower()({"g": group})

    def test_observations_have_full_confidence(self):
        cond = ConfidenceCondition("x", RelationalOp.GE, 1.0)
        assert cond.lower()({"x": obs()})
