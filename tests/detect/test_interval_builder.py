"""Unit tests for interval event construction (Section 4.2 semantics)."""

import pytest

from repro.core.errors import ConditionError
from repro.core.time_model import TimeInterval, TimePoint
from repro.detect.interval_builder import IntervalBuilder


def feed(builder, states, start=0):
    """Feed a boolean string like '0011100' tick by tick; return the
    intervals the builder reports."""
    closed = []
    for offset, ch in enumerate(states):
        interval = builder.update(ch == "1", start + offset)
        if interval is not None:
            closed.append(interval)
    return closed


class TestBasicLifecycle:
    def test_open_then_close(self):
        builder = IntervalBuilder()
        assert feed(builder, "0011100") == [
            TimeInterval(TimePoint(2), TimePoint(4))
        ]

    def test_an_open_interval_is_not_reported(self):
        builder = IntervalBuilder()
        assert feed(builder, "0011") == []
        assert builder.update(False, 4) == TimeInterval(
            TimePoint(2), TimePoint(3)
        )

    def test_multiple_intervals(self):
        builder = IntervalBuilder()
        assert feed(builder, "0110011000") == [
            TimeInterval(TimePoint(1), TimePoint(2)),
            TimeInterval(TimePoint(5), TimePoint(6)),
        ]


class TestMinDuration:
    def test_short_interval_discarded(self):
        builder = IntervalBuilder(min_duration=5)
        assert feed(builder, "011100000") == []

    def test_long_interval_kept(self):
        builder = IntervalBuilder(min_duration=3)
        (closed,) = feed(builder, "0111110")
        assert closed.duration == 4


class TestGapTolerance:
    def test_short_dropout_bridged(self):
        builder = IntervalBuilder(gap_tolerance=2)
        # The single-tick dropout at tick 3 must not close the interval.
        assert feed(builder, "0110110") == []
        assert feed(builder, "00", start=7) == [
            TimeInterval(TimePoint(1), TimePoint(5))
        ]

    def test_long_dropout_closes(self):
        builder = IntervalBuilder(gap_tolerance=2)
        # Interval ends at the last true tick, not when the gap expired.
        assert feed(builder, "011000001") == [
            TimeInterval(TimePoint(1), TimePoint(2))
        ]

    def test_zero_tolerance_closes_immediately(self):
        builder = IntervalBuilder(gap_tolerance=0)
        assert feed(builder, "0110") == [
            TimeInterval(TimePoint(1), TimePoint(2))
        ]


class TestValidation:
    def test_validation(self):
        with pytest.raises(ConditionError):
            IntervalBuilder(min_duration=-1)
        with pytest.raises(ConditionError):
            IntervalBuilder(gap_tolerance=-1)
