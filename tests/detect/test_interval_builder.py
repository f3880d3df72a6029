"""Unit tests for interval event construction (Section 4.2 semantics)."""

import pytest

from repro.core.errors import ConditionError
from repro.core.time_model import TimeInterval, TimePoint
from repro.detect.interval_builder import IntervalBuilder, TransitionKind


def feed(builder, key, states, start=0):
    """Feed a boolean string like '0011100' tick by tick."""
    transitions = []
    for offset, ch in enumerate(states):
        transitions.extend(builder.update(key, ch == "1", start + offset))
    return transitions


class TestBasicLifecycle:
    def test_open_then_close(self):
        builder = IntervalBuilder()
        transitions = feed(builder, "k", "0011100")
        kinds = [t.kind for t in transitions]
        assert kinds == [TransitionKind.OPENED, TransitionKind.CLOSED]
        closed = transitions[1].interval
        assert closed == TimeInterval(TimePoint(2), TimePoint(4))

    def test_open_transition_has_open_interval(self):
        builder = IntervalBuilder()
        transitions = feed(builder, "k", "001")
        assert transitions[0].kind is TransitionKind.OPENED
        assert transitions[0].interval.end is None
        assert transitions[0].interval.start == TimePoint(2)

    def test_multiple_intervals(self):
        builder = IntervalBuilder()
        transitions = feed(builder, "k", "0110011000")
        closed = [t.interval for t in transitions if t.kind is TransitionKind.CLOSED]
        assert closed == [
            TimeInterval(TimePoint(1), TimePoint(2)),
            TimeInterval(TimePoint(5), TimePoint(6)),
        ]

    def test_keys_tracked_independently(self):
        builder = IntervalBuilder()
        (opened,) = builder.update("a", True, 0)
        assert opened.key == "a" and opened.interval.start == TimePoint(0)
        assert builder.update("b", False, 0) == []
        (closed,) = builder.update("a", False, 1)
        assert closed.key == "a" and closed.kind is TransitionKind.CLOSED


class TestMinDuration:
    def test_short_interval_discarded(self):
        builder = IntervalBuilder(min_duration=5)
        transitions = feed(builder, "k", "011100000")
        kinds = [t.kind for t in transitions]
        assert kinds == [TransitionKind.OPENED, TransitionKind.DISCARDED]

    def test_long_interval_kept(self):
        builder = IntervalBuilder(min_duration=3)
        transitions = feed(builder, "k", "0111110")
        assert transitions[-1].kind is TransitionKind.CLOSED
        assert transitions[-1].interval.duration == 4


class TestGapTolerance:
    def test_short_dropout_bridged(self):
        builder = IntervalBuilder(gap_tolerance=2)
        transitions = feed(builder, "k", "0110110")
        # One open; the single-tick dropout at tick 3 must not close it.
        kinds = [t.kind for t in transitions]
        assert kinds.count(TransitionKind.OPENED) == 1
        assert kinds.count(TransitionKind.CLOSED) == 0

    def test_long_dropout_closes(self):
        builder = IntervalBuilder(gap_tolerance=2)
        transitions = feed(builder, "k", "011000001")
        closed = [t for t in transitions if t.kind is TransitionKind.CLOSED]
        assert len(closed) == 1
        # Interval ends at the last true tick, not when the gap expired.
        assert closed[0].interval == TimeInterval(TimePoint(1), TimePoint(2))

    def test_zero_tolerance_closes_immediately(self):
        builder = IntervalBuilder(gap_tolerance=0)
        transitions = feed(builder, "k", "0110")
        assert transitions[-1].kind is TransitionKind.CLOSED


class TestValidation:
    def test_validation(self):
        with pytest.raises(ConditionError):
            IntervalBuilder(min_duration=-1)
        with pytest.raises(ConditionError):
            IntervalBuilder(gap_tolerance=-1)
