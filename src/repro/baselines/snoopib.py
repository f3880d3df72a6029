"""Baseline: SnoopIB — interval-based composite event semantics (ref [6]).

Adaikkalavan & Chakravarthy extend Snoop so an occurrence carries a
*time interval* ``[start of the initiating constituent, end of the
terminating constituent]`` instead of a single detection point.  This
fixes the classic point-semantics anomaly (a sequence detected inside
another event appearing to "happen after" it) and makes interval
relations between detected events expressible.  The E8 comparison
builds :class:`IntervalRelation`, an explicit Allen-relation constraint
between two sides (During, Overlaps, ...), the capability the CPS event
model inherits.

What SnoopIB still lacks — and the E8 benchmark shows it — is any
*spatial* dimension: two fires overlapping in time but kilometres apart
are indistinguishable from one spreading fire.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.errors import ConditionError
from repro.core.time_model import (
    TemporalRelation,
    TimeInterval,
    TimePoint,
    allen_relation,
    hull,
)

__all__ = [
    "IntervalOccurrence",
    "IntervalNode",
    "IntervalPrimitive",
    "IntervalRelation",
    "SnoopIBEngine",
]


@dataclass(frozen=True)
class IntervalOccurrence:
    """A composite occurrence over a closed time interval."""

    interval: TimeInterval
    constituents: tuple[tuple[str, TimeInterval], ...]

    @staticmethod
    def primitive(name: str, interval: TimeInterval) -> "IntervalOccurrence":
        return IntervalOccurrence(interval, ((name, interval),))

    def merge(self, other: "IntervalOccurrence") -> "IntervalOccurrence":
        """Union occurrence spanning both constituents' intervals."""
        return IntervalOccurrence(
            hull(self.interval, other.interval),
            self.constituents + other.constituents,
        )


class IntervalNode(ABC):
    """A node of the SnoopIB operator tree."""

    @abstractmethod
    def feed(
        self, occurrence: IntervalOccurrence, name: str
    ) -> list[IntervalOccurrence]:
        """Propagate a primitive occurrence; return completions here."""


class IntervalPrimitive(IntervalNode):
    """Leaf: matches primitive interval occurrences by name."""

    def __init__(self, name: str):
        if not name:
            raise ConditionError("primitive event needs a name")
        self.name = name

    def feed(self, occurrence, name):
        return [occurrence] if name == self.name else []


class IntervalRelation(IntervalNode):
    """Explicit Allen-relation constraint between the two sides.

    ``IntervalRelation(a, b, {DURING})`` fires when an occurrence of
    ``a`` happens *during* an occurrence of ``b`` — the "During,
    Overlap" relationships Section 2 says point-based models miss.
    """

    def __init__(self, left, right, relations: set[TemporalRelation]):
        if not relations:
            raise ConditionError("IntervalRelation needs at least one relation")
        self.left = left
        self.right = right
        self.relations = frozenset(relations)
        self._left_buffer: list[IntervalOccurrence] = []
        self._right_buffer: list[IntervalOccurrence] = []

    def feed(self, occurrence, name):
        completions: list[IntervalOccurrence] = []
        for left_occ in self.left.feed(occurrence, name):
            for right_occ in self._right_buffer:
                if allen_relation(left_occ.interval, right_occ.interval) in self.relations:
                    completions.append(left_occ.merge(right_occ))
            self._left_buffer.append(left_occ)
        for right_occ in self.right.feed(occurrence, name):
            for left_occ in self._left_buffer:
                if left_occ is right_occ:
                    continue
                if allen_relation(left_occ.interval, right_occ.interval) in self.relations:
                    completions.append(left_occ.merge(right_occ))
            self._right_buffer.append(right_occ)
        return completions


class SnoopIBEngine:
    """Drives one interval operator tree over a primitive stream."""

    def __init__(self, root: IntervalNode):
        self.root = root
        self.detections: list[IntervalOccurrence] = []

    def submit(
        self, name: str, start: int, end: int | None = None
    ) -> list[IntervalOccurrence]:
        """Feed a primitive occurrence over ``[start, end]`` (or a point)."""
        interval = TimeInterval(
            TimePoint(start), TimePoint(end if end is not None else start)
        )
        occurrence = IntervalOccurrence.primitive(name, interval)
        completions = self.root.feed(occurrence, name)
        self.detections.extend(completions)
        return completions
