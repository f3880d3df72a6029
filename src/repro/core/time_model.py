"""Discrete time model: time points, time intervals and their relations.

The paper (Section 4, "Time Model") adopts the discrete time model of the
Snoop event language: time is a discrete, linearly ordered collection of
*time points* with limited precision.  We represent a time point as an
integer *tick* count of the global simulation clock and a time interval
as a closed span ``[start, end]`` of ticks.

Two temporal classes of events follow (Section 4.2):

* a *punctual* event occurs at a :class:`TimePoint`;
* an *interval* event occurs over a :class:`TimeInterval` marked by its
  starting and ending time points.

This module also implements the complete set of temporal relations the
paper requires ("the temporal relationships between two events can be
extended to 3 types"):

* point / point     -- ``Before``, ``Simultaneous``, ``After``;
* point / interval  -- ``Before``, ``Begins``, ``During``, ``Ends``,
  ``After`` (the paper's "During, Meet" family);
* interval / interval -- the thirteen Allen relations (``Before``,
  ``Meets``, ``Overlaps``, ``Starts``, ``During``, ``Finishes``,
  ``Equals`` and the six inverses).

All relations are computed by :func:`temporal_relation`, which dispatches
on the operand classes, and tested exhaustively (including the
mutual-exclusivity and inverse-symmetry properties) in the test suite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from repro.core.errors import TemporalError

__all__ = [
    "TimePoint",
    "TimeInterval",
    "TemporalEntity",
    "TemporalRelation",
    "temporal_relation",
    "allen_relation",
    "point_point_relation",
    "point_interval_relation",
    "hull",
    "intersect",
    "Clock",
    "EPOCH",
]


@dataclass(frozen=True, order=True, slots=True)
class TimePoint:
    """A single discrete instant: the ``tick``-th step of the global clock.

    Time points are totally ordered, hashable and support the small
    amount of arithmetic event conditions need: adding or subtracting an
    integer number of ticks yields a shifted point, and subtracting two
    points yields the signed tick distance between them (used by
    conditions such as ``t_x + 5 Before t_y`` from Section 4.1).
    """

    tick: int

    def __post_init__(self) -> None:
        if not isinstance(self.tick, int):
            raise TemporalError(f"tick must be an int, got {type(self.tick).__name__}")

    def __add__(self, ticks: int) -> "TimePoint":
        if not isinstance(ticks, int):
            return NotImplemented
        return TimePoint(self.tick + ticks)

    __radd__ = __add__

    def __sub__(self, other: Union["TimePoint", int]) -> Union["TimePoint", int]:
        if isinstance(other, TimePoint):
            return self.tick - other.tick
        if isinstance(other, int):
            return TimePoint(self.tick - other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"t{self.tick}"


EPOCH = TimePoint(0)


@dataclass(frozen=True)
class TimeInterval:
    """A closed span of ticks ``[start, end]`` with ``start <= end``.

    An *open* (still ongoing) interval is modelled by ``end=None``; such
    intervals arise while an interval event has been detected as started
    but not yet ended (Section 4.2: the event "ends once the user is
    detected leaving this area").  Open intervals support containment
    checks and hulls but not the Allen relations, which require both
    endpoints.
    """

    start: TimePoint
    end: TimePoint | None

    def __post_init__(self) -> None:
        if not isinstance(self.start, TimePoint):
            raise TemporalError("interval start must be a TimePoint")
        if self.end is not None:
            if not isinstance(self.end, TimePoint):
                raise TemporalError("interval end must be a TimePoint or None")
            if self.end < self.start:
                raise TemporalError(
                    f"interval end {self.end} precedes start {self.start}"
                )

    # -- basic queries ---------------------------------------------------

    @property
    def duration(self) -> int:
        """Number of ticks spanned (0 for a degenerate point interval)."""
        if self.end is None:
            raise TemporalError("an open interval has no duration yet")
        return self.end.tick - self.start.tick

    def contains_point(self, point: TimePoint, now: TimePoint | None = None) -> bool:
        """Whether ``point`` lies inside the interval.

        For an open interval the upper bound is ``now`` when provided,
        otherwise the interval is treated as unbounded above.
        """
        if point < self.start:
            return False
        if self.end is not None:
            return point <= self.end
        return now is None or point <= now

    def shift(self, ticks: int) -> "TimeInterval":
        """Interval translated by a signed number of ticks."""
        end = None if self.end is None else self.end + ticks
        return TimeInterval(self.start + ticks, end)

    def __repr__(self) -> str:
        end = "..." if self.end is None else f"t{self.end.tick}"
        return f"[t{self.start.tick}, {end}]"


TemporalEntity = Union[TimePoint, TimeInterval]


class TemporalRelation(enum.Enum):
    """Every temporal relation the model distinguishes.

    The names follow the paper's operator vocabulary ("Before, After,
    During, Begin, End, Meet, Overlap") extended to the full Allen
    algebra so that every pair of temporal entities maps to exactly one
    relation.
    """

    BEFORE = "before"
    AFTER = "after"
    SIMULTANEOUS = "simultaneous"  # point / point equality
    BEGINS = "begins"              # point at interval start (paper: Begin)
    BEGUN_BY = "begun_by"          # interval whose start is the point
    ENDS = "ends"                  # point at interval end (paper: End)
    ENDED_BY = "ended_by"          # interval whose end is the point
    DURING = "during"
    CONTAINS = "contains"
    MEETS = "meets"
    MET_BY = "met_by"
    OVERLAPS = "overlaps"
    OVERLAPPED_BY = "overlapped_by"
    STARTS = "starts"
    STARTED_BY = "started_by"
    FINISHES = "finishes"
    FINISHED_BY = "finished_by"
    EQUALS = "equals"

    @property
    def inverse(self) -> "TemporalRelation":
        """The relation that holds with the operands swapped.

        The inverse mapping is an involution: ``r.inverse.inverse is r``
        for every relation, which the property-based tests verify.
        """
        return _INVERSES[self]


_INVERSES = {
    TemporalRelation.BEFORE: TemporalRelation.AFTER,
    TemporalRelation.AFTER: TemporalRelation.BEFORE,
    TemporalRelation.SIMULTANEOUS: TemporalRelation.SIMULTANEOUS,
    TemporalRelation.BEGINS: TemporalRelation.BEGUN_BY,
    TemporalRelation.BEGUN_BY: TemporalRelation.BEGINS,
    TemporalRelation.ENDS: TemporalRelation.ENDED_BY,
    TemporalRelation.ENDED_BY: TemporalRelation.ENDS,
    TemporalRelation.DURING: TemporalRelation.CONTAINS,
    TemporalRelation.CONTAINS: TemporalRelation.DURING,
    TemporalRelation.MEETS: TemporalRelation.MET_BY,
    TemporalRelation.MET_BY: TemporalRelation.MEETS,
    TemporalRelation.OVERLAPS: TemporalRelation.OVERLAPPED_BY,
    TemporalRelation.OVERLAPPED_BY: TemporalRelation.OVERLAPS,
    TemporalRelation.STARTS: TemporalRelation.STARTED_BY,
    TemporalRelation.STARTED_BY: TemporalRelation.STARTS,
    TemporalRelation.FINISHES: TemporalRelation.FINISHED_BY,
    TemporalRelation.FINISHED_BY: TemporalRelation.FINISHES,
    TemporalRelation.EQUALS: TemporalRelation.EQUALS,
}


def point_point_relation(a: TimePoint, b: TimePoint) -> TemporalRelation:
    """Relation between two punctual occurrence times."""
    if a < b:
        return TemporalRelation.BEFORE
    if a > b:
        return TemporalRelation.AFTER
    return TemporalRelation.SIMULTANEOUS


def point_interval_relation(p: TimePoint, i: TimeInterval) -> TemporalRelation:
    """Relation between a punctual and an interval occurrence time.

    A degenerate interval (``start == end``) equal to the point yields
    ``BEGINS`` (the point both begins and ends it; ``BEGINS`` is chosen
    deterministically so the mapping stays a function).
    """
    if i.end is None:
        raise TemporalError("cannot relate a point to an open interval")
    if p < i.start:
        return TemporalRelation.BEFORE
    if p == i.start:
        return TemporalRelation.BEGINS
    if p < i.end:
        return TemporalRelation.DURING
    if p == i.end:
        return TemporalRelation.ENDS
    return TemporalRelation.AFTER


def allen_relation(a: TimeInterval, b: TimeInterval) -> TemporalRelation:
    """One of the thirteen Allen relations between two closed intervals.

    Closed discrete intervals touch when ``a.end == b.start``; that case
    is ``MEETS`` (sharing exactly the boundary tick).  The thirteen
    relations are mutually exclusive and jointly exhaustive, which the
    property-based tests verify over random interval pairs.
    """
    if a.end is None or b.end is None:
        raise TemporalError("Allen relations require closed intervals")
    if a.start == b.start and a.end == b.end:
        return TemporalRelation.EQUALS
    if a.end < b.start:
        return TemporalRelation.BEFORE
    if b.end < a.start:
        return TemporalRelation.AFTER
    if a.end == b.start:
        return TemporalRelation.MEETS
    if b.end == a.start:
        return TemporalRelation.MET_BY
    if a.start == b.start:
        return (
            TemporalRelation.STARTS if a.end < b.end else TemporalRelation.STARTED_BY
        )
    if a.end == b.end:
        return (
            TemporalRelation.FINISHES
            if a.start > b.start
            else TemporalRelation.FINISHED_BY
        )
    if b.start < a.start and a.end < b.end:
        return TemporalRelation.DURING
    if a.start < b.start and b.end < a.end:
        return TemporalRelation.CONTAINS
    if a.start < b.start:
        return TemporalRelation.OVERLAPS
    return TemporalRelation.OVERLAPPED_BY


def temporal_relation(a: TemporalEntity, b: TemporalEntity) -> TemporalRelation:
    """Relation between any two temporal entities (point or interval).

    This is the single entry point used by temporal event conditions;
    it dispatches to the point/point, point/interval or Allen case and
    always returns exactly one :class:`TemporalRelation`.
    """
    a_point = isinstance(a, TimePoint)
    b_point = isinstance(b, TimePoint)
    if a_point and b_point:
        return point_point_relation(a, b)
    if a_point:
        return point_interval_relation(a, b)
    if b_point:
        return point_interval_relation(b, a).inverse
    return allen_relation(a, b)


def hull(*entities: TemporalEntity) -> TimeInterval:
    """Smallest closed interval covering every given point/interval.

    Used by temporal aggregation functions (``g_t``) to summarize the
    occurrence times of several entities, e.g. when a sink node fuses
    sensor events into one cyber-physical event.
    """
    if not entities:
        raise TemporalError("hull() of no temporal entities")
    starts: list[TimePoint] = []
    ends: list[TimePoint] = []
    for entity in entities:
        if isinstance(entity, TimePoint):
            starts.append(entity)
            ends.append(entity)
        else:
            if entity.end is None:
                raise TemporalError("hull() requires closed intervals")
            starts.append(entity.start)
            ends.append(entity.end)
    return TimeInterval(min(starts), max(ends))


def intersect(a: TimeInterval, b: TimeInterval) -> TimeInterval | None:
    """Overlap of two closed intervals, or ``None`` when disjoint."""
    if a.end is None or b.end is None:
        raise TemporalError("intersect() requires closed intervals")
    start = max(a.start, b.start)
    end = min(a.end, b.end)
    if start > end:
        return None
    return TimeInterval(start, end)


class Clock:
    """Conversion between wall-clock seconds and discrete ticks.

    The simulation kernel advances time in integer ticks; scenario code
    is more naturally written in seconds or minutes.  A ``Clock`` fixes
    the tick resolution for a run so the two stay consistent.

    Args:
        tick_seconds: Real-time duration of one tick (default 1 s).
    """

    def __init__(self, tick_seconds: float = 1.0):
        if tick_seconds <= 0:
            raise TemporalError("tick_seconds must be positive")
        self.tick_seconds = float(tick_seconds)

    def ticks(self, seconds: float) -> int:
        """Number of whole ticks closest to ``seconds`` (at least 0)."""
        return max(0, round(seconds / self.tick_seconds))

    def seconds(self, ticks: int) -> float:
        """Wall-clock seconds represented by ``ticks``."""
        return ticks * self.tick_seconds

    def point(self, seconds: float) -> TimePoint:
        """Time point at ``seconds`` from the epoch."""
        return TimePoint(self.ticks(seconds))

    def interval(self, start_seconds: float, end_seconds: float) -> TimeInterval:
        """Closed interval between two wall-clock offsets."""
        return TimeInterval(self.point(start_seconds), self.point(end_seconds))
