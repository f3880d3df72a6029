"""E10 — operator micro-costs: the primitive relation/aggregate layer.

Times the building blocks every condition evaluation rests on: the
temporal relation function over all operand class pairs, the spatial
relation function over point/field and field/field pairs, aggregation
functions, and one full composite-condition evaluation.  These numbers
bound what a real observer (mote MCU) would spend per entity.
"""

import pytest

from repro.core.aggregates import space_measure, value_aggregate
from repro.core.composite import all_of
from repro.core.conditions import (
    AttributeCondition,
    AttributeTerm,
    SpatialMeasureCondition,
    TemporalCondition,
    TimeOf,
)
from repro.core.instance import PhysicalObservation
from repro.core.operators import RelationalOp, TemporalOp
from repro.core.space_model import (
    Circle,
    PointLocation,
    Polygon,
    spatial_relation,
)
from repro.core.time_model import TimeInterval, TimePoint, temporal_relation
from repro.detect import compile_condition

POINT_A = TimePoint(100)
POINT_B = TimePoint(205)
INTERVAL_A = TimeInterval(TimePoint(100), TimePoint(200))
INTERVAL_B = TimeInterval(TimePoint(150), TimePoint(260))

LOCATION_A = PointLocation(3.0, 4.0)
LOCATION_B = PointLocation(30.0, 40.0)
CIRCLE = Circle(PointLocation(10.0, 10.0), 25.0)
POLYGON = Polygon(
    [
        PointLocation(0, 0), PointLocation(40, 0), PointLocation(50, 30),
        PointLocation(20, 45), PointLocation(-5, 25),
    ]
)


class TestE10TemporalOperators:
    def test_point_point(self, benchmark):
        assert benchmark(temporal_relation, POINT_A, POINT_B).value == "before"

    def test_point_interval(self, benchmark):
        assert benchmark(temporal_relation, POINT_B, INTERVAL_B).value == "during"

    def test_interval_interval(self, benchmark):
        assert benchmark(temporal_relation, INTERVAL_A, INTERVAL_B).value == "overlaps"


class TestE10SpatialOperators:
    def test_point_point(self, benchmark):
        assert benchmark(spatial_relation, LOCATION_A, LOCATION_B).value == "distinct"

    def test_point_polygon(self, benchmark):
        assert benchmark(spatial_relation, LOCATION_A, POLYGON).value == "inside"

    def test_circle_polygon(self, benchmark):
        assert benchmark(spatial_relation, CIRCLE, POLYGON).value == "joint"

    def test_point_circle_distance(self, benchmark):
        distance = space_measure("distance")
        result = benchmark(distance, [LOCATION_B, CIRCLE])
        assert result > 0


class TestE10Aggregates:
    VALUES = [float(v % 97) for v in range(64)]

    @pytest.mark.parametrize("name", ["average", "max", "median", "std"])
    def test_value_aggregate(self, benchmark, name):
        func = value_aggregate(name)
        result = benchmark(func, self.VALUES)
        assert result >= 0


class TestE10FullCondition:
    def test_s1_single_evaluation(self, benchmark):
        condition = all_of(
            TemporalCondition(TimeOf("x"), TemporalOp.BEFORE, TimeOf("y")),
            SpatialMeasureCondition("distance", ("x", "y"), RelationalOp.LT, 5.0),
            AttributeCondition(
                "average",
                (AttributeTerm("x", "v"), AttributeTerm("y", "v")),
                RelationalOp.GT, 10.0,
            ),
        )
        binding = {
            "x": PhysicalObservation(
                "MT1", "SR", 0, TimePoint(1), PointLocation(0, 0), {"v": 12.0}
            ),
            "y": PhysicalObservation(
                "MT2", "SR", 0, TimePoint(3), PointLocation(2, 0), {"v": 14.0}
            ),
        }
        assert benchmark(compile_condition(condition), binding)
