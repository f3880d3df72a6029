"""Baseline: Snoop-style composite events with *point* semantics.

Snoop (Chakravarthy & Mishra, paper ref [21]) composes primitive events
with operators — sequence, conjunction, disjunction, non-occurrence —
under *detection-based point semantics*: a composite event "occurs" at
the time point its terminating constituent is detected.  Section 2
notes the consequence this reproduction demonstrates: because composite
occurrences collapse to points, interval relationships such as
"During" or "Overlap" between composite events are not expressible.

The operators the E8 comparison builds:

* :class:`Primitive` — a named primitive event;
* :class:`Conj` ("AND") — both occur, any order: the closest Snoop gets
  to "motion during a door-open interval".

Parameter contexts (how initiators pair with terminators):

* ``unrestricted`` — every valid combination fires;
* ``recent`` — only the most recent initiator pairs;
* ``chronicle`` — the oldest unconsumed initiator pairs and is consumed.

No spatial constraints exist anywhere in the language — the second gap
the CPS event model fills.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from repro.core.errors import ConditionError
from repro.core.time_model import TimePoint

__all__ = [
    "Occurrence",
    "EventNode",
    "Primitive",
    "Conj",
    "SnoopEngine",
    "CONTEXTS",
]

CONTEXTS = ("unrestricted", "recent", "chronicle")


@dataclass(frozen=True)
class Occurrence:
    """A (possibly composite) event occurrence at a time *point*.

    ``constituents`` records the primitive (name, time) pairs folded in,
    preserving provenance for assertions in tests.
    """

    time: TimePoint
    constituents: tuple[tuple[str, TimePoint], ...]

    @staticmethod
    def primitive(name: str, time: TimePoint) -> "Occurrence":
        return Occurrence(time, ((name, time),))

    def merge(self, other: "Occurrence", at: TimePoint) -> "Occurrence":
        """Composite occurrence at ``at`` from two sub-occurrences."""
        return Occurrence(at, self.constituents + other.constituents)


class EventNode(ABC):
    """A node of the Snoop operator tree."""

    @abstractmethod
    def feed(self, occurrence: Occurrence, name: str, context: str) -> list[Occurrence]:
        """Propagate a primitive occurrence; return completions here."""


class Primitive(EventNode):
    """Leaf: matches primitive occurrences by name."""

    def __init__(self, name: str):
        if not name:
            raise ConditionError("primitive event needs a name")
        self.name = name

    def feed(self, occurrence: Occurrence, name: str, context: str) -> list[Occurrence]:
        return [occurrence] if name == self.name else []


class Conj(EventNode):
    """Conjunction: both sides occur, in any order."""

    def __init__(self, left: EventNode, right: EventNode):
        self.left = left
        self.right = right
        self._left_buffer: list[Occurrence] = []
        self._right_buffer: list[Occurrence] = []

    @staticmethod
    def _select(buffer: list[Occurrence], context: str) -> list[Occurrence]:
        """Initiators to pair with, per parameter context."""
        if not buffer:
            return []
        if context == "recent":
            return [buffer[-1]]
        if context == "chronicle":
            return [buffer[0]]
        return list(buffer)

    @staticmethod
    def _consume(buffer: list[Occurrence], used: Sequence[Occurrence], context: str) -> None:
        if context == "chronicle":
            for occurrence in used:
                try:
                    buffer.remove(occurrence)
                except ValueError:
                    pass

    def feed(self, occurrence: Occurrence, name: str, context: str) -> list[Occurrence]:
        completions: list[Occurrence] = []
        lefts = self.left.feed(occurrence, name, context)
        rights = self.right.feed(occurrence, name, context)
        for left_occ in lefts:
            partners = self._select(self._right_buffer, context)
            for right_occ in partners:
                completions.append(
                    left_occ.merge(right_occ, max(left_occ.time, right_occ.time))
                )
            self._consume(self._right_buffer, partners, context)
            self._left_buffer.append(left_occ)
        for right_occ in rights:
            partners = self._select(self._left_buffer, context)
            for left_occ in partners:
                # Skip self-pairing when one primitive feeds both sides.
                if left_occ is right_occ:
                    continue
                completions.append(
                    left_occ.merge(right_occ, max(left_occ.time, right_occ.time))
                )
            self._consume(self._left_buffer, partners, context)
            self._right_buffer.append(right_occ)
        return completions


class SnoopEngine:
    """Drives one operator tree over a primitive event stream.

    Args:
        root: The composite event expression.
        context: Parameter context (see module docstring).
    """

    def __init__(self, root: EventNode, context: str = "unrestricted"):
        if context not in CONTEXTS:
            raise ConditionError(
                f"unknown context {context!r}; choose from {CONTEXTS}"
            )
        self.root = root
        self.context = context
        self.detections: list[Occurrence] = []

    def submit(self, name: str, tick: int) -> list[Occurrence]:
        """Feed one primitive occurrence; return new composite detections."""
        occurrence = Occurrence.primitive(name, TimePoint(tick))
        completions = self.root.feed(occurrence, name, self.context)
        self.detections.extend(completions)
        return completions
