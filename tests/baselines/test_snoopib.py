"""Unit tests for the SnoopIB (interval semantics) baseline."""

import pytest

from repro.baselines.snoopib import (
    IntervalPrimitive,
    IntervalRelation,
    SnoopIBEngine,
)
from repro.core.errors import ConditionError
from repro.core.time_model import TemporalRelation, TimeInterval, TimePoint


def iv(a, b):
    return TimeInterval(TimePoint(a), TimePoint(b))


class TestIntervalPrimitive:
    def test_point_and_interval_submission(self):
        engine = SnoopIBEngine(IntervalPrimitive("a"))
        point = engine.submit("a", 5)[0]
        assert point.interval == iv(5, 5)
        spanning = engine.submit("a", 10, 20)[0]
        assert spanning.interval == iv(10, 20)


def relation(*relations):
    return SnoopIBEngine(
        IntervalRelation(
            IntervalPrimitive("a"), IntervalPrimitive("b"), set(relations)
        )
    )


class TestCompositeInterval:
    def test_completion_spans_the_hull(self):
        engine = relation(TemporalRelation.OVERLAPS)
        engine.submit("a", 1, 3)
        completions = engine.submit("b", 2, 8)
        assert completions[0].interval == iv(1, 8)

    def test_fixes_point_semantics_anomaly(self):
        """The composite's interval [1, 9] correctly CONTAINS a point
        event at 5 — impossible to express under point semantics."""
        engine = relation(TemporalRelation.BEFORE)
        engine.submit("a", 1)
        composite = engine.submit("b", 9)[0]
        from repro.core.time_model import temporal_relation

        assert (
            temporal_relation(TimePoint(5), composite.interval)
            is TemporalRelation.DURING
        )


class TestIntervalRelation:
    def test_during_detection(self):
        # "a During b" — the paper's example of an interval relation
        # point-based models cannot address.
        engine = SnoopIBEngine(
            IntervalRelation(
                IntervalPrimitive("a"),
                IntervalPrimitive("b"),
                {TemporalRelation.DURING},
            )
        )
        engine.submit("b", 0, 100)
        completions = engine.submit("a", 20, 30)
        assert len(completions) == 1

    def test_during_rejects_non_contained(self):
        engine = SnoopIBEngine(
            IntervalRelation(
                IntervalPrimitive("a"),
                IntervalPrimitive("b"),
                {TemporalRelation.DURING},
            )
        )
        engine.submit("b", 0, 10)
        assert engine.submit("a", 5, 20) == []

    def test_overlap_detection(self):
        engine = SnoopIBEngine(
            IntervalRelation(
                IntervalPrimitive("a"),
                IntervalPrimitive("b"),
                {TemporalRelation.OVERLAPS},
            )
        )
        engine.submit("b", 5, 15)
        completions = engine.submit("a", 1, 8)
        assert len(completions) == 1

    def test_order_of_arrival_irrelevant(self):
        engine = SnoopIBEngine(
            IntervalRelation(
                IntervalPrimitive("a"),
                IntervalPrimitive("b"),
                {TemporalRelation.DURING},
            )
        )
        engine.submit("a", 20, 30)   # a arrives before its container
        completions = engine.submit("b", 0, 100)
        assert len(completions) == 1

    def test_empty_relations_rejected(self):
        with pytest.raises(ConditionError):
            IntervalRelation(
                IntervalPrimitive("a"), IntervalPrimitive("b"), set()
            )

