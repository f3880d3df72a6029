"""Unit tests for the Snoop (point semantics) baseline."""

import pytest

from repro.baselines.snoop import Conj, Primitive, SnoopEngine
from repro.core.errors import ConditionError
from repro.core.time_model import TimePoint


class TestPrimitive:
    def test_matches_by_name(self):
        engine = SnoopEngine(Primitive("a"))
        assert len(engine.submit("a", 1)) == 1
        assert engine.submit("b", 2) == []

    def test_occurrence_time_is_detection_point(self):
        engine = SnoopEngine(Primitive("a"))
        occurrence = engine.submit("a", 7)[0]
        assert occurrence.time == TimePoint(7)

    def test_unnamed_primitive_rejected(self):
        with pytest.raises(ConditionError, match="name"):
            Primitive("")


class TestConj:
    def test_conjunction_any_order(self):
        engine = SnoopEngine(Conj(Primitive("a"), Primitive("b")))
        engine.submit("b", 1)
        completions = engine.submit("a", 4)
        assert len(completions) == 1
        assert completions[0].time == TimePoint(4)

    def test_unrestricted_pairs_all_initiators(self):
        engine = SnoopEngine(Conj(Primitive("a"), Primitive("b")))
        engine.submit("a", 1)
        engine.submit("a", 2)
        assert len(engine.submit("b", 5)) == 2

    def test_recent_context_uses_latest_initiator(self):
        engine = SnoopEngine(
            Conj(Primitive("a"), Primitive("b")), context="recent"
        )
        engine.submit("a", 1)
        engine.submit("a", 2)
        completions = engine.submit("b", 5)
        assert len(completions) == 1
        assert ("a", TimePoint(2)) in completions[0].constituents

    def test_chronicle_context_consumes_oldest(self):
        engine = SnoopEngine(
            Conj(Primitive("a"), Primitive("b")), context="chronicle"
        )
        engine.submit("a", 1)
        engine.submit("a", 2)
        first = engine.submit("b", 5)
        assert ("a", TimePoint(1)) in first[0].constituents
        second = engine.submit("b", 6)
        assert ("a", TimePoint(2)) in second[0].constituents
        assert engine.submit("b", 7) == []  # both initiators consumed

    def test_simultaneous_constituents_complete_at_that_point(self):
        engine = SnoopEngine(Conj(Primitive("a"), Primitive("b")))
        assert engine.submit("a", 3) == []
        completions = engine.submit("b", 3)
        assert [c.time for c in completions] == [TimePoint(3)]

    def test_nested_expression(self):
        # Conj(Conj(a, b), c): the outer node completes once all three
        # occurred, at the point of the last one.
        engine = SnoopEngine(
            Conj(Conj(Primitive("a"), Primitive("b")), Primitive("c"))
        )
        engine.submit("c", 1)
        assert engine.submit("a", 2) == []
        completions = engine.submit("b", 6)
        assert len(completions) == 1
        assert completions[0].time == TimePoint(6)
        assert sorted(completions[0].constituents) == [
            ("a", TimePoint(2)), ("b", TimePoint(6)), ("c", TimePoint(1)),
        ]


class TestEngineHousekeeping:
    def test_detections_accumulate(self):
        engine = SnoopEngine(Primitive("a"))
        engine.submit("a", 1)
        engine.submit("a", 2)
        assert len(engine.detections) == 2

    def test_unknown_context_rejected(self):
        with pytest.raises(ConditionError):
            SnoopEngine(Primitive("a"), context="psychic")


class TestPointSemanticsAnomaly:
    def test_composite_time_collapses_to_terminator(self):
        """The classic Snoop anomaly SnoopIB fixes: a composite spanning
        [1, 9] is reported as occurring *at* 9, so a later point event at
        5 appears to come 'before' the composite even though it happened
        in the middle of it."""
        engine = SnoopEngine(Conj(Primitive("a"), Primitive("b")))
        engine.submit("a", 1)
        composite = engine.submit("b", 9)[0]
        middle = TimePoint(5)
        assert middle < composite.time  # looks "before" — wrongly
