"""Unit tests for the aggregation functions g_v, g_t, g_s (Def. 4.2)."""

import pytest

from repro.core.aggregates import (
    SPACE_AGGREGATES,
    SPACE_MEASURES,
    TIME_AGGREGATES,
    TIME_MEASURES,
    VALUE_AGGREGATES,
    space_aggregate,
    space_measure,
    time_aggregate,
    time_measure,
    value_aggregate,
)
from repro.core.errors import ConditionError
from repro.core.space_model import (
    BoundingBox,
    Circle,
    PointLocation,
    Polygon,
)
from repro.core.time_model import TimeInterval, TimePoint


def iv(a, b):
    return TimeInterval(TimePoint(a), TimePoint(b))


class TestValueAggregates:
    @pytest.mark.parametrize(
        "name, values, expected",
        [
            ("average", [1, 2, 3], 2.0),
            ("avg", [4, 6], 5.0),
            ("mean", [5], 5.0),
            ("max", [3, 9, 1], 9),
            ("min", [3, 9, 1], 1),
            ("add", [1, 2, 3], 6),
            ("sum", [1.5, 2.5], 4.0),
            ("count", [7, 8, 9], 3.0),
            ("median", [1, 9, 5], 5),
            ("range", [2, 10, 4], 8),
            ("first", [4, 5, 6], 4),
            ("last", [4, 5, 6], 6),
        ],
    )
    def test_each(self, name, values, expected):
        assert value_aggregate(name)(values) == pytest.approx(expected)

    def test_std(self):
        assert value_aggregate("std")([2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(2.0)
        assert value_aggregate("std")([5]) == 0.0

    def test_empty_rejected_for_all_but_count(self):
        for name in VALUE_AGGREGATES:
            if name == "count":
                assert value_aggregate(name)([]) == 0.0
            else:
                with pytest.raises(ConditionError):
                    value_aggregate(name)([])

    def test_unknown_name(self):
        with pytest.raises(ConditionError, match="unknown value aggregate"):
            value_aggregate("p99")


class TestTimeAggregates:
    def test_earliest_latest_mixed(self):
        times = [TimePoint(5), iv(2, 9), TimePoint(7)]
        assert time_aggregate("earliest")(times) == TimePoint(2)
        assert time_aggregate("latest")(times) == TimePoint(9)

    def test_span_is_hull(self):
        assert time_aggregate("span")([TimePoint(3), iv(5, 8)]) == iv(3, 8)

    def test_identity_requires_single(self):
        assert time_aggregate("time")([TimePoint(4)]) == TimePoint(4)
        with pytest.raises(ConditionError):
            time_aggregate("time")([TimePoint(4), TimePoint(5)])

    def test_start_end(self):
        assert time_aggregate("start")([iv(3, 9)]) == TimePoint(3)
        assert time_aggregate("end")([iv(3, 9)]) == TimePoint(9)
        assert time_aggregate("start")([TimePoint(5)]) == TimePoint(5)

    def test_end_of_open_interval_rejected(self):
        open_iv = TimeInterval(TimePoint(3), None)
        with pytest.raises(ConditionError):
            time_aggregate("end")([open_iv])

    def test_empty_rejected(self):
        for name in ("earliest", "latest", "span"):
            with pytest.raises(ConditionError):
                time_aggregate(name)([])

    def test_registry_lookup_error(self):
        with pytest.raises(ConditionError):
            time_aggregate("nope")
        assert set(TIME_AGGREGATES) >= {"earliest", "latest", "span"}


class TestTimeMeasures:
    def test_duration_sums_intervals_only(self):
        assert time_measure("duration")([iv(2, 9), TimePoint(4)]) == 7.0
        assert time_measure("duration")([TimePoint(4)]) == 0.0

    def test_spread(self):
        assert time_measure("spread")([TimePoint(2), iv(5, 9)]) == 7.0

    def test_count(self):
        assert time_measure("count")([TimePoint(1), TimePoint(2)]) == 2.0

    def test_unknown(self):
        with pytest.raises(ConditionError):
            time_measure("velocity")
        assert set(TIME_MEASURES) >= {"duration", "spread", "count"}


class TestSpaceAggregates:
    def test_centroid_of_points_and_fields(self):
        result = space_aggregate("centroid")(
            [PointLocation(0, 0), Circle(PointLocation(4, 4), 1)]
        )
        assert result == PointLocation(2, 2)

    def test_hull_returns_polygon(self):
        result = space_aggregate("hull")(
            [PointLocation(0, 0), PointLocation(4, 0), PointLocation(2, 5)]
        )
        assert isinstance(result, Polygon)
        assert result.contains_point(PointLocation(2, 1))

    def test_hull_degenerates_to_point(self):
        assert space_aggregate("hull")([PointLocation(1, 1)]) == PointLocation(1, 1)

    def test_hull_collinear_degenerates_to_centroid(self):
        result = space_aggregate("hull")(
            [PointLocation(0, 0), PointLocation(2, 0), PointLocation(4, 0)]
        )
        assert isinstance(result, PointLocation)

    def test_box_covers_fields(self):
        result = space_aggregate("box")(
            [PointLocation(0, 0), Circle(PointLocation(5, 5), 1)]
        )
        assert result == BoundingBox(0, 0, 6, 6)

    def test_location_identity(self):
        assert space_aggregate("location")([PointLocation(3, 3)]) == PointLocation(3, 3)
        with pytest.raises(ConditionError):
            space_aggregate("location")([PointLocation(1, 1), PointLocation(2, 2)])

    def test_registry(self):
        assert set(SPACE_AGGREGATES) >= {"centroid", "hull", "box", "location"}


class TestSpaceMeasures:
    def test_distance_point_point(self):
        assert space_measure("distance")(
            [PointLocation(0, 0), PointLocation(3, 4)]
        ) == 5.0

    def test_distance_point_field_zero_inside(self):
        circle = Circle(PointLocation(0, 0), 5)
        assert space_measure("distance")([PointLocation(1, 1), circle]) == 0.0
        assert space_measure("distance")(
            [PointLocation(8, 0), circle]
        ) == pytest.approx(3.0)

    def test_distance_arity(self):
        with pytest.raises(ConditionError):
            space_measure("distance")([PointLocation(0, 0)])

    def test_diameter(self):
        points = [PointLocation(0, 0), PointLocation(3, 4), PointLocation(1, 0)]
        assert space_measure("diameter")(points) == 5.0
        assert space_measure("diameter")([PointLocation(1, 1)]) == 0.0

    def test_area_sums_fields_only(self):
        result = space_measure("area")(
            [PointLocation(0, 0), BoundingBox(0, 0, 2, 3)]
        )
        assert result == 6.0

    def test_registry(self):
        assert set(SPACE_MEASURES) >= {"distance", "diameter", "area", "count"}
