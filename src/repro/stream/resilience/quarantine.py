"""Quarantine: validation hook plus a bounded dead-letter queue.

A corrupt observation must never reach the watermark tracker (it would
move the release frontier), the dedup record (it would shadow the
intact retransmission of the same ``(source, seq)``) or the engine (it
is not an entity).  The :class:`Quarantine` intercepts it at the very
front of the ingest path: a pluggable validator decides, and rejected
items land in a bounded dead-letter queue — newest retained for
inspection, *every* rejection counted exactly (the retained sample may
be smaller than the count, mirroring the reorder buffer's
late-retention contract).

The quarantine extends the streaming conservation invariant to::

    released + late + shed + duplicates_dropped + quarantined == offered

so poisoned deliveries are measured losses, never silent ones.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.errors import ObserverError
from repro.stream.resilience.faults import CorruptObservation
from repro.stream.source import StreamItem

__all__ = [
    "Quarantine",
    "QuarantineSnapshot",
    "default_validator",
    "DEFAULT_QUARANTINE_RETENTION",
]

DEFAULT_QUARANTINE_RETENTION = 64
"""Dead-letter items retained for inspection (the exact rejection count
is never capped)."""

Validator = Callable[[StreamItem], bool]


def default_validator(item: StreamItem) -> bool:
    """Structural validity: a payload the engine could actually consume.

    Rejects items with no payload at all and items whose payload is a
    :class:`~repro.stream.resilience.faults.CorruptObservation` (the
    fault model's bit-flipped frame).  Domain-specific checks plug in by
    passing any ``StreamItem -> bool`` callable to :class:`Quarantine`.
    """
    entity = item.entity
    return entity is not None and not isinstance(entity, CorruptObservation)


@dataclass(frozen=True)
class QuarantineSnapshot:
    """Checkpoint of the dead-letter queue and its exact count."""

    items: tuple[StreamItem, ...]
    count: int


class Quarantine:
    """Validation gate with bounded dead-letter retention.

    Args:
        validator: ``StreamItem -> bool``; ``False`` quarantines.
        retention: Dead-letter items retained (``None`` = unbounded,
            ``0`` = count only).
    """

    def __init__(
        self,
        validator: Validator = default_validator,
        *,
        retention: int | None = DEFAULT_QUARANTINE_RETENTION,
    ):
        if not callable(validator):
            raise ObserverError("quarantine validator must be callable")
        if retention is not None and (type(retention) is not int or retention < 0):
            raise ObserverError(
                f"quarantine retention must be a non-negative int or None: "
                f"{retention!r}"
            )
        self.validator = validator
        self.retention = retention
        self._items: deque[StreamItem] = deque(maxlen=retention)
        self.count = 0
        """Exact rejections so far (never capped by retention)."""

    def intake(self, items: Sequence[StreamItem]) -> list[StreamItem]:
        """One delivery step's valid items, in order (see :meth:`admit`)."""
        return list(filter(self.admit, items))

    def admit(self, item: StreamItem) -> bool:
        """``True`` for a valid item; otherwise record and reject."""
        if self.validator(item):
            return True
        self.count += 1
        if self.retention != 0:
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

    def restore(self, snapshot: QuarantineSnapshot) -> None:
        """Reload the dead-letter queue from a checkpoint."""
        self._items = deque(snapshot.items, maxlen=self.retention)
        self.count = snapshot.count
