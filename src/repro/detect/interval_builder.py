"""Construction of interval events from punctual state streams.

Section 4.2 defines an interval event as starting "once the user is
detected entering into the area" and ending "once the user is detected
leaving this area".  The :class:`IntervalBuilder` implements exactly
that state machine over one boolean condition stream:

* a rising edge opens an interval;
* a falling edge closes it, *unless* the condition comes back within
  ``gap_tolerance`` ticks — short dropouts (one lost sample) do not
  split an ongoing interval;
* intervals shorter than ``min_duration`` at close time are discarded,
  filtering sensor glitches.

The interval event is emitted once it has closed, so :meth:`update`
reports an interval only then: an open interval has no end yet and is
nobody's output.
"""

from __future__ import annotations

from repro.core.errors import ConditionError
from repro.core.time_model import TimeInterval, TimePoint

__all__ = ["IntervalBuilder"]


class IntervalBuilder:
    """One boolean stream -> the intervals it closes.

    Args:
        min_duration: Minimum closed-interval length (ticks) to report;
            shorter intervals are dropped at close.
        gap_tolerance: Maximum run of ``False`` updates (in ticks)
            bridged without closing the interval.
    """

    def __init__(self, min_duration: int = 0, gap_tolerance: int = 0):
        if min_duration < 0 or gap_tolerance < 0:
            raise ConditionError("durations cannot be negative")
        self.min_duration = min_duration
        self.gap_tolerance = gap_tolerance
        self._open_start: int | None = None
        self._last_true: int | None = None
        self._gap_since: int | None = None

    def update(self, active: bool, tick: int) -> TimeInterval | None:
        """Feed the condition state at ``tick``; return the interval this
        update closes, if it lasted at least ``min_duration``."""
        if active:
            if self._open_start is None:
                self._open_start = tick
            self._last_true = tick
            self._gap_since = None
            return None
        if self._open_start is None:
            return None
        if self._gap_since is None:
            self._gap_since = tick
        if tick - self._gap_since < self.gap_tolerance:
            return None
        interval = TimeInterval(
            TimePoint(self._open_start), TimePoint(self._last_true)
        )
        self._open_start = self._last_true = self._gap_since = None
        return interval if interval.duration >= self.min_duration else None
