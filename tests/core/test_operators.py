"""Unit tests for the operator families of Definition 4.2.

A temporal or spatial operator is judged as it ships: lowered inside a
condition between two constants (``OP_L`` is the condition tree, see
``test_composite.py``)."""

import pytest

from repro.core.conditions import (
    LocationConst,
    SpatialCondition,
    TemporalCondition,
    TimeConst,
)
from repro.core.errors import ConditionError
from repro.core.operators import RelationalOp, SpatialOp, TemporalOp
from repro.core.space_model import Circle, PointLocation, Polygon
from repro.core.time_model import TimeInterval, TimePoint


def holds(op, a, b):
    """Whether ``a op b``, through the lowered condition."""
    if isinstance(op, TemporalOp):
        condition = TemporalCondition(TimeConst(a), op, TimeConst(b))
    else:
        condition = SpatialCondition(LocationConst(a), op, LocationConst(b))
    return condition.lower()({})


def iv(a, b):
    return TimeInterval(TimePoint(a), TimePoint(b))


def square(x0=0.0, y0=0.0, side=4.0):
    return Polygon(
        [
            PointLocation(x0, y0),
            PointLocation(x0 + side, y0),
            PointLocation(x0 + side, y0 + side),
            PointLocation(x0, y0 + side),
        ]
    )


class TestRelationalOp:
    @pytest.mark.parametrize(
        "op, lhs, rhs, expected",
        [
            (RelationalOp.GT, 2.0, 1.0, True),
            (RelationalOp.GT, 1.0, 1.0, False),
            (RelationalOp.GE, 1.0, 1.0, True),
            (RelationalOp.LT, 1.0, 2.0, True),
            (RelationalOp.LE, 2.0, 2.0, True),
            (RelationalOp.EQ, 3.0, 3.0, True),
            (RelationalOp.NE, 3.0, 4.0, True),
        ],
    )
    def test_truth_table(self, op, lhs, rhs, expected):
        assert op.apply(lhs, rhs) is expected

    def test_eq_is_float_tolerant(self):
        assert RelationalOp.EQ.apply(0.1 + 0.2, 0.3)
        assert not RelationalOp.NE.apply(0.1 + 0.2, 0.3)

    def test_from_symbol(self):
        assert RelationalOp.from_symbol(">=") is RelationalOp.GE
        with pytest.raises(ConditionError):
            RelationalOp.from_symbol("~")


class TestTemporalOp:
    def test_before_after_points(self):
        assert holds(TemporalOp.BEFORE, TimePoint(1), TimePoint(2))
        assert holds(TemporalOp.AFTER, TimePoint(2), TimePoint(1))
        assert not holds(TemporalOp.BEFORE, TimePoint(2), TimePoint(2))

    def test_paper_begin_end_operators(self):
        interval = iv(10, 20)
        assert holds(TemporalOp.BEGINS, TimePoint(10), interval)
        assert holds(TemporalOp.ENDS, TimePoint(20), interval)
        assert not holds(TemporalOp.BEGINS, TimePoint(11), interval)

    def test_during_strict(self):
        assert holds(TemporalOp.DURING, TimePoint(15), iv(10, 20))
        assert not holds(TemporalOp.DURING, TimePoint(10), iv(10, 20))
        assert holds(TemporalOp.DURING, iv(12, 14), iv(10, 20))

    def test_within_includes_boundaries(self):
        assert holds(TemporalOp.WITHIN, TimePoint(10), iv(10, 20))
        assert holds(TemporalOp.WITHIN, TimePoint(20), iv(10, 20))
        assert holds(TemporalOp.WITHIN, iv(10, 15), iv(10, 20))
        assert not holds(TemporalOp.WITHIN, TimePoint(21), iv(10, 20))

    def test_overlaps(self):
        assert holds(TemporalOp.OVERLAPS, iv(1, 5), iv(3, 8))
        assert holds(TemporalOp.OVERLAPPED_BY, iv(3, 8), iv(1, 5))
        assert not holds(TemporalOp.OVERLAPS, iv(1, 2), iv(5, 8))

    def test_intersects_excludes_only_disjoint(self):
        assert holds(TemporalOp.INTERSECTS, iv(1, 4), iv(4, 8))   # touching
        assert holds(TemporalOp.INTERSECTS, iv(1, 9), iv(3, 5))
        assert not holds(TemporalOp.INTERSECTS, iv(1, 2), iv(5, 8))

    def test_simultaneous_covers_equal_intervals(self):
        assert holds(TemporalOp.SIMULTANEOUS, TimePoint(3), TimePoint(3))
        assert holds(TemporalOp.EQUALS, iv(1, 5), iv(1, 5))

    def test_admits_sets_are_disjoint_for_strict_ops(self):
        strict = [
            TemporalOp.BEFORE, TemporalOp.AFTER, TemporalOp.DURING,
            TemporalOp.CONTAINS, TemporalOp.MEETS, TemporalOp.MET_BY,
            TemporalOp.OVERLAPS, TemporalOp.OVERLAPPED_BY,
        ]
        for i, a in enumerate(strict):
            for b in strict[i + 1:]:
                assert not (a.admits & b.admits), f"{a} and {b} overlap"


class TestSpatialOp:
    def test_inside_outside_point_field(self):
        region = square()
        assert holds(SpatialOp.INSIDE, PointLocation(2, 2), region)
        assert holds(SpatialOp.OUTSIDE, PointLocation(9, 9), region)
        assert not holds(SpatialOp.INSIDE, PointLocation(9, 9), region)

    def test_inside_field_field(self):
        assert holds(SpatialOp.INSIDE, square(1, 1, 2), square(0, 0, 10))
        assert holds(SpatialOp.CONTAINS, square(0, 0, 10), square(1, 1, 2))

    def test_joint_includes_containment_and_equality(self):
        assert holds(SpatialOp.JOINT, square(), square(2, 2))
        assert holds(SpatialOp.JOINT, square(1, 1, 2), square(0, 0, 10))
        assert holds(SpatialOp.JOINT, square(), square())

    def test_disjoint(self):
        assert holds(SpatialOp.DISJOINT, square(), square(10, 10))
        assert holds(SpatialOp.DISJOINT, PointLocation(9, 9), square())
        assert not holds(SpatialOp.DISJOINT, square(), square(2, 2))

    def test_equal_to_points(self):
        assert holds(SpatialOp.EQUAL_TO, PointLocation(1, 1), PointLocation(1, 1))
        assert not holds(SpatialOp.EQUAL_TO, 
            PointLocation(1, 1), PointLocation(2, 2)
        )

    def test_outside_point_cases(self):
        circle = Circle(PointLocation(0, 0), 2)
        assert holds(SpatialOp.OUTSIDE, PointLocation(5, 5), circle)
        assert holds(SpatialOp.OUTSIDE, PointLocation(1, 1), PointLocation(2, 2))

