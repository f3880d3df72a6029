"""Redelivery dedup: per-source sequence high-water plus in-flight set.

At-least-once transports (crash redelivery, retransmit storms, acks
lost in flight) deliver the same observation more than once.  Since a
:class:`~repro.stream.source.StreamItem`'s ``(source, seq)`` pair is a
durable identity — ``seq`` is the item's position in the original
in-order stream — duplicates are exactly detectable, no payload
hashing required.

Per source the deduper keeps the classic two-part acceptance record:

* ``high_water`` — every sequence number up to and including it has
  been accepted (a single integer covers the common in-order prefix);
* an **in-flight set** of accepted sequence numbers *above* the high
  water (bounded by the stream's disorder: once the gap fills, the
  prefix compacts into the high water and the set drains).

:meth:`RedeliveryDeduper.admit` is the whole decision (``intake`` runs
it over a step): ``True`` once per identity, ``False`` after.  The state is
checkpointable (:meth:`snapshot` / :meth:`restore`) and travels inside
:class:`~repro.stream.runtime.RuntimeCheckpoint`, so a restored runtime
re-accepts exactly the deliveries its checkpoint had not seen — which
is what makes supervised crash recovery effectively exactly-once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.checkpoint import (
    COUNT,
    TICK,
    Domain,
    Restorable,
    by_name,
    check,
    declared,
    tuple_of,
)
from repro.stream.source import StreamItem

__all__ = ["RedeliveryDeduper", "DedupSnapshot"]


_HIGH_WATER = Domain("an int >= -1", lambda v: TICK.test(v) and v >= -1)


@dataclass(frozen=True)
class DedupSnapshot:
    """Checkpoint of the acceptance record (per-source high waters and
    the accepted sequence numbers above them) and its exact count."""

    high_water: Mapping[str, int] = declared(by_name(_HIGH_WATER))
    in_flight: Mapping[str, tuple[int, ...]] = declared(
        by_name(tuple_of(COUNT))
    )
    duplicates_dropped: int = declared(COUNT)


class RedeliveryDeduper(Restorable):
    """First-delivery filter over ``(source, seq)`` identities."""

    def __init__(self) -> None:
        self._high: dict[str, int] = {}
        self._seen: dict[str, set[int]] = {}
        self.duplicates_dropped = 0
        """Redeliveries rejected so far.  Checkpointed with the
        acceptance record, so a rollback also forgets the rejections of
        the rolled-back steps."""

    def is_duplicate(self, item: StreamItem) -> bool:
        """Whether ``item`` was already accepted (no state change)."""
        if item.seq <= self._high.get(item.source, -1):
            return True
        return item.seq in self._seen.get(item.source, ())

    def intake(self, items: Sequence[StreamItem]) -> list[StreamItem]:
        """A delivery step's first deliveries, in order (see :meth:`admit`)."""
        return list(filter(self.admit, items))

    def admit(self, item: StreamItem) -> bool:
        """Accept a first delivery (``True``) or reject a redelivery.

        Accepting compacts: contiguous accepted prefixes fold into the
        per-source high water so the in-flight set stays bounded by the
        stream's instantaneous disorder, not its length.
        """
        if self.is_duplicate(item):
            self.duplicates_dropped += 1
            return False
        high = self._high.get(item.source, -1)
        seen = self._seen.setdefault(item.source, set())
        seen.add(item.seq)
        while high + 1 in seen:
            high += 1
            seen.discard(high)
        self._high[item.source] = high
        return True

    # -- checkpoint / restore ------------------------------------------

    def snapshot(self) -> DedupSnapshot:
        """Capture the acceptance record and the rejection count."""
        return DedupSnapshot(
            high_water=dict(self._high),
            in_flight={
                source: tuple(sorted(seen))
                for source, seen in self._seen.items()
                if seen
            },
            duplicates_dropped=self.duplicates_dropped,
        )

    def ensure_restorable(self, snapshot: DedupSnapshot) -> None:
        """Refuse a snapshot :func:`~repro.core.checkpoint.check` does."""
        check(snapshot, DedupSnapshot)

    def install(self, snapshot: DedupSnapshot) -> None:
        """Reload the acceptance record from an accepted snapshot."""
        self._high = dict(snapshot.high_water)
        self._seen = {
            source: set(seqs) for source, seqs in snapshot.in_flight.items()
        }
        self.duplicates_dropped = snapshot.duplicates_dropped
