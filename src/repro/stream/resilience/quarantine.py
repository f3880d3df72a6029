"""Quarantine: validation hook plus a bounded dead-letter queue.

A corrupt observation must never reach the watermark tracker (it would
move the release frontier), the dedup record (it would shadow the
intact retransmission of the same ``(source, seq)``) or the engine (it
is not an entity).  The :class:`Quarantine` intercepts it at the very
front of the ingest path: :func:`default_validator` decides, and
rejected items land in a bounded dead-letter queue — the newest
:data:`QUARANTINE_RETENTION` retained for inspection, *every* rejection
counted exactly (the retained sample may be smaller than the count,
mirroring the reorder buffer's late-retention contract).

The quarantine extends the streaming conservation invariant to::

    released + late + shed + duplicates_dropped + quarantined == offered

so poisoned deliveries are measured losses, never silent ones.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from repro.core.checkpoint import COUNT, Restorable, check, declared
from repro.core.errors import ObserverError
from repro.stream.resilience.faults import CorruptObservation
from repro.stream.source import STREAM_ITEMS, StreamItem

__all__ = [
    "Quarantine",
    "QuarantineSnapshot",
    "default_validator",
    "QUARANTINE_RETENTION",
]

QUARANTINE_RETENTION = 64
"""Dead-letter items retained for inspection (the exact rejection count
is never capped)."""


def default_validator(item: StreamItem) -> bool:
    """Structural validity: a payload the engine could actually consume.

    Rejects items with no payload at all and items whose payload is a
    :class:`~repro.stream.resilience.faults.CorruptObservation` (the
    fault model's bit-flipped frame).
    """
    entity = item.entity
    return entity is not None and not isinstance(entity, CorruptObservation)


@dataclass(frozen=True)
class QuarantineSnapshot:
    """Checkpoint of the dead-letter queue and its exact count."""

    items: tuple[StreamItem, ...] = declared(STREAM_ITEMS)
    count: int = declared(COUNT)


class Quarantine(Restorable):
    """Validation gate (:func:`default_validator`) with bounded
    dead-letter retention (:data:`QUARANTINE_RETENTION`)."""

    def __init__(self) -> None:
        self._items: deque[StreamItem] = deque(maxlen=QUARANTINE_RETENTION)
        self.count = 0
        """Exact rejections so far (never capped by retention)."""

    def intake(self, items: Sequence[StreamItem]) -> list[StreamItem]:
        """One delivery step's valid items, in order (see :meth:`admit`)."""
        return list(filter(self.admit, items))

    def admit(self, item: StreamItem) -> bool:
        """``True`` for a valid item; otherwise record and reject."""
        if default_validator(item):
            return True
        self.count += 1
        self._items.append(item)
        return False

    @property
    def items(self) -> list[StreamItem]:
        """The retained dead letters, oldest first."""
        return list(self._items)

    # -- checkpoint / restore ------------------------------------------

    def snapshot(self) -> QuarantineSnapshot:
        """Capture the dead-letter queue and exact count."""
        return QuarantineSnapshot(items=tuple(self._items), count=self.count)

    def ensure_restorable(self, snapshot: QuarantineSnapshot) -> None:
        """Refuse a count below the retained dead letters'."""
        check(snapshot, QuarantineSnapshot)
        if snapshot.count < len(snapshot.items):
            raise ObserverError(
                f"QuarantineSnapshot.count is {snapshot.count}, below its "
                f"{len(snapshot.items)} retained dead letters"
            )

    def install(self, snapshot: QuarantineSnapshot) -> None:
        """Reload the dead-letter queue from an accepted snapshot."""
        self._items = deque(snapshot.items, maxlen=QUARANTINE_RETENTION)
        self.count = snapshot.count
