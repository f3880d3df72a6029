"""Construction of interval events from punctual state streams.

Section 4.2 defines an interval event as starting "once the user is
detected entering into the area" and ending "once the user is detected
leaving this area".  The :class:`IntervalBuilder` implements exactly
that state machine over a boolean condition stream, per tracked key:

* a rising edge opens an interval (an ``OPENED`` transition);
* a falling edge closes it (``CLOSED``), *unless* the condition comes
  back within ``gap_tolerance`` ticks — short dropouts (one lost sample)
  do not split an ongoing interval;
* intervals shorter than ``min_duration`` at close time are discarded
  (``DISCARDED``), filtering sensor glitches.

An ``OPENED`` transition carries the open interval ``[start, ...]``,
which is what conditions of the form "... for the last 30 minutes"
evaluate against: the event has started, has not ended, and its elapsed
duration is checked against the threshold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.errors import ConditionError
from repro.core.time_model import TimeInterval, TimePoint

__all__ = ["Transition", "TransitionKind", "IntervalBuilder"]


class TransitionKind(enum.Enum):
    """What happened to a tracked interval on an update."""

    OPENED = "opened"
    CLOSED = "closed"
    DISCARDED = "discarded"   # closed but shorter than min_duration


@dataclass(frozen=True)
class Transition:
    """One interval lifecycle change for a tracked key."""

    key: str
    kind: TransitionKind
    interval: TimeInterval


@dataclass
class _TrackState:
    open_start: int | None = None
    last_true: int | None = None
    pending_gap_since: int | None = None


class IntervalBuilder:
    """Per-key boolean stream -> interval event stream.

    Args:
        min_duration: Minimum closed-interval length (ticks) to report;
            shorter intervals yield ``DISCARDED`` transitions.
        gap_tolerance: Maximum run of ``False`` updates (in ticks)
            bridged without closing the interval.
    """

    def __init__(self, min_duration: int = 0, gap_tolerance: int = 0):
        if min_duration < 0 or gap_tolerance < 0:
            raise ConditionError("durations cannot be negative")
        self.min_duration = min_duration
        self.gap_tolerance = gap_tolerance
        self._tracks: dict[str, _TrackState] = {}

    def update(self, key: str, active: bool, tick: int) -> list[Transition]:
        """Feed the condition state for ``key`` at ``tick``.

        Returns:
            Lifecycle transitions triggered by this update (possibly
            empty; at most one OPENED plus one CLOSED/DISCARDED).
        """
        state = self._tracks.setdefault(key, _TrackState())
        transitions: list[Transition] = []
        if active:
            if state.open_start is None:
                state.open_start = tick
                transitions.append(
                    Transition(
                        key,
                        TransitionKind.OPENED,
                        TimeInterval(TimePoint(tick), None),
                    )
                )
            state.last_true = tick
            state.pending_gap_since = None
        elif state.open_start is not None:
            if state.pending_gap_since is None:
                state.pending_gap_since = tick
            gap = tick - state.pending_gap_since
            if gap >= self.gap_tolerance:
                transitions.append(self._close(key, state))
        return transitions

    def _close(self, key: str, state: _TrackState) -> Transition:
        assert state.open_start is not None and state.last_true is not None
        interval = TimeInterval(
            TimePoint(state.open_start), TimePoint(state.last_true)
        )
        kind = (
            TransitionKind.CLOSED
            if interval.duration >= self.min_duration
            else TransitionKind.DISCARDED
        )
        self._tracks[key] = _TrackState()
        return Transition(key, kind, interval)
