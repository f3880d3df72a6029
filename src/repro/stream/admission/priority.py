"""Priority classes for admitted observations.

Monitoring workloads are not all equal: a spec that trips a fire
suppression loop must keep its inputs under overload while an
analytics-only aggregate can tolerate gaps.  The admission layer
attaches a :class:`Priority` to every :class:`~repro.stream.source.StreamItem`
via a :class:`PriorityMap` — resolved from an optional per-item
classifier (specs/kinds), then the source name, then a default — and
the priority-aware shedding policy guarantees a higher class is never
shed while a strictly lower class occupies the buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Mapping

from repro.stream.source import StreamItem

__all__ = ["Priority", "PriorityMap"]


class Priority(IntEnum):
    """Admission classes, strongest first (lower value = keep longer)."""

    SAFETY_CRITICAL = 0
    OPERATIONAL = 1
    ANALYTICS = 2


@dataclass(frozen=True)
class PriorityMap:
    """Resolve an item's admission class.

    An item's class is fixed when it is offered to the reorder buffer:
    the buffer files it under the class this map gave it then, and
    class-aware shedding compares buffered items by that filed class.  A
    ``classify`` whose answer for one item changes over time therefore
    affects only items offered afterwards (and a checkpoint restore,
    which files every pending item afresh).

    Args:
        default: Class of anything not otherwise classified.
        sources: Per-source-name overrides (a whole feed's class).
        classify: Optional per-item classifier — e.g. keyed off the
            entity's kind so observations feeding a safety-critical
            spec outrank co-sourced analytics traffic.  Returning
            ``None`` falls through to the source map / default.
    """

    default: Priority = Priority.OPERATIONAL
    sources: Mapping[str, Priority] = field(default_factory=dict)
    classify: Callable[[StreamItem], Priority | None] | None = None

    def of(self, item: StreamItem) -> Priority:
        """The admission class of one stream item."""
        if self.classify is not None:
            got = self.classify(item)
            if got is not None:
                return got
        return self.sources.get(item.source, self.default)
