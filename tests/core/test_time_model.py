"""Unit tests for the discrete time model (Section 4, "Time Model")."""

import pytest

from repro.core.errors import TemporalError
from repro.core.time_model import (
    EPOCH,
    Clock,
    TemporalRelation,
    TimeInterval,
    TimePoint,
    allen_relation,
    hull,
    intersect,
    point_interval_relation,
    point_point_relation,
    temporal_relation,
)

R = TemporalRelation


def iv(a, b):
    return TimeInterval(TimePoint(a), TimePoint(b))


class TestTimePoint:
    def test_ordering(self):
        assert TimePoint(1) < TimePoint(2)
        assert TimePoint(3) >= TimePoint(3)
        assert sorted([TimePoint(5), TimePoint(1)])[0] == TimePoint(1)

    def test_addition_shifts(self):
        assert TimePoint(4) + 3 == TimePoint(7)
        assert 3 + TimePoint(4) == TimePoint(7)

    def test_subtracting_points_gives_tick_distance(self):
        assert TimePoint(10) - TimePoint(4) == 6
        assert TimePoint(4) - TimePoint(10) == -6

    def test_subtracting_int_shifts_back(self):
        assert TimePoint(10) - 4 == TimePoint(6)

    def test_non_int_tick_rejected(self):
        with pytest.raises(TemporalError):
            TimePoint(1.5)

    def test_epoch_is_zero(self):
        assert EPOCH.tick == 0

    def test_hashable_and_equal(self):
        assert len({TimePoint(3), TimePoint(3), TimePoint(4)}) == 2


class TestTimeInterval:
    def test_end_before_start_rejected(self):
        with pytest.raises(TemporalError):
            iv(5, 4)

    def test_duration(self):
        assert iv(3, 9).duration == 6

    def test_open_interval_has_no_duration(self):
        open_iv = TimeInterval(TimePoint(3), None)
        with pytest.raises(TemporalError):
            _ = open_iv.duration

    def test_contains_point_closed(self):
        assert iv(2, 5).contains_point(TimePoint(2))
        assert iv(2, 5).contains_point(TimePoint(5))
        assert not iv(2, 5).contains_point(TimePoint(6))

    def test_contains_point_open_uses_now(self):
        open_iv = TimeInterval(TimePoint(3), None)
        assert open_iv.contains_point(TimePoint(10))
        assert open_iv.contains_point(TimePoint(10), now=TimePoint(12))
        assert not open_iv.contains_point(TimePoint(10), now=TimePoint(8))

    def test_shift(self):
        assert iv(2, 5).shift(3) == iv(5, 8)
        open_shifted = TimeInterval(TimePoint(2), None).shift(3)
        assert open_shifted.start == TimePoint(5) and open_shifted.end is None

    def test_non_point_operands_rejected(self):
        with pytest.raises(TemporalError):
            TimeInterval(3, TimePoint(5))
        with pytest.raises(TemporalError):
            TimeInterval(TimePoint(3), 5)


class TestPointPointRelations:
    def test_before_after_simultaneous(self):
        assert point_point_relation(TimePoint(1), TimePoint(2)) is R.BEFORE
        assert point_point_relation(TimePoint(2), TimePoint(1)) is R.AFTER
        assert point_point_relation(TimePoint(2), TimePoint(2)) is R.SIMULTANEOUS


class TestPointIntervalRelations:
    def test_all_positions(self):
        interval = iv(10, 20)
        assert point_interval_relation(TimePoint(5), interval) is R.BEFORE
        assert point_interval_relation(TimePoint(10), interval) is R.BEGINS
        assert point_interval_relation(TimePoint(15), interval) is R.DURING
        assert point_interval_relation(TimePoint(20), interval) is R.ENDS
        assert point_interval_relation(TimePoint(25), interval) is R.AFTER

    def test_degenerate_interval_yields_begins(self):
        assert point_interval_relation(TimePoint(5), iv(5, 5)) is R.BEGINS

    def test_open_interval_rejected(self):
        with pytest.raises(TemporalError):
            point_interval_relation(TimePoint(5), TimeInterval(TimePoint(1), None))


class TestAllenRelations:
    CASES = [
        (iv(1, 2), iv(4, 6), R.BEFORE),
        (iv(4, 6), iv(1, 2), R.AFTER),
        (iv(1, 4), iv(4, 6), R.MEETS),
        (iv(4, 6), iv(1, 4), R.MET_BY),
        (iv(1, 5), iv(3, 8), R.OVERLAPS),
        (iv(3, 8), iv(1, 5), R.OVERLAPPED_BY),
        (iv(2, 4), iv(2, 9), R.STARTS),
        (iv(2, 9), iv(2, 4), R.STARTED_BY),
        (iv(3, 5), iv(1, 9), R.DURING),
        (iv(1, 9), iv(3, 5), R.CONTAINS),
        (iv(5, 9), iv(1, 9), R.FINISHES),
        (iv(1, 9), iv(5, 9), R.FINISHED_BY),
        (iv(2, 7), iv(2, 7), R.EQUALS),
    ]

    @pytest.mark.parametrize("a, b, expected", CASES)
    def test_each_relation(self, a, b, expected):
        assert allen_relation(a, b) is expected

    @pytest.mark.parametrize("a, b, expected", CASES)
    def test_inverse_symmetry(self, a, b, expected):
        assert allen_relation(b, a) is expected.inverse

    def test_open_interval_rejected(self):
        with pytest.raises(TemporalError):
            allen_relation(TimeInterval(TimePoint(1), None), iv(2, 3))


class TestTemporalRelationDispatch:
    def test_point_point(self):
        assert temporal_relation(TimePoint(1), TimePoint(5)) is R.BEFORE

    def test_point_interval(self):
        assert temporal_relation(TimePoint(15), iv(10, 20)) is R.DURING

    def test_interval_point_inverse(self):
        assert temporal_relation(iv(10, 20), TimePoint(15)) is R.CONTAINS
        assert temporal_relation(iv(10, 20), TimePoint(10)) is R.BEGUN_BY
        assert temporal_relation(iv(10, 20), TimePoint(20)) is R.ENDED_BY

    def test_interval_interval(self):
        assert temporal_relation(iv(1, 5), iv(3, 8)) is R.OVERLAPS


class TestHullAndIntersect:
    def test_hull_mixed_entities(self):
        result = hull(TimePoint(3), iv(5, 9), TimePoint(1))
        assert result == iv(1, 9)

    def test_hull_empty_rejected(self):
        with pytest.raises(TemporalError):
            hull()

    def test_hull_open_interval_rejected(self):
        with pytest.raises(TemporalError):
            hull(TimeInterval(TimePoint(1), None))

    def test_intersect_overlapping(self):
        assert intersect(iv(1, 5), iv(3, 8)) == iv(3, 5)

    def test_intersect_touching(self):
        assert intersect(iv(1, 4), iv(4, 8)) == iv(4, 4)

    def test_intersect_disjoint_is_none(self):
        assert intersect(iv(1, 2), iv(5, 8)) is None


class TestClock:
    def test_tick_conversion(self):
        clock = Clock(tick_seconds=0.5)
        assert clock.ticks(10.0) == 20
        assert clock.seconds(20) == 10.0

    def test_negative_seconds_clamped(self):
        assert Clock().ticks(-5.0) == 0

    def test_invalid_resolution(self):
        with pytest.raises(TemporalError):
            Clock(0.0)
