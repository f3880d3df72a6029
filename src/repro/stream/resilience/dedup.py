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

from repro.core.errors import ObserverError
from repro.stream.source import StreamItem, is_count

__all__ = ["RedeliveryDeduper", "DedupSnapshot"]


@dataclass(frozen=True)
class DedupSnapshot:
    """Checkpoint of the acceptance record (per-source high waters and
    the accepted sequence numbers above them) and its exact count."""

    high_water: Mapping[str, int]
    in_flight: Mapping[str, tuple[int, ...]]
    duplicates_dropped: int


class RedeliveryDeduper:
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

    def in_flight(self, source: str) -> int:
        """Accepted sequence numbers above the source's high water."""
        return len(self._seen.get(source, ()))

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

    def restore(self, snapshot: DedupSnapshot) -> None:
        """Reload the acceptance record from a checkpoint.

        High waters must be ints >= -1, in-flight sequence numbers and
        the rejection count ints >= 0; anything else is refused with
        :class:`~repro.core.errors.ObserverError` and changes nothing.
        """
        try:
            high = dict(snapshot.high_water)
            seen = {
                source: set(seqs)
                for source, seqs in snapshot.in_flight.items()
            }
        except (AttributeError, TypeError, ValueError):
            raise ObserverError(
                f"not a dedup snapshot: {snapshot!r}"
            ) from None
        if not (
            all(type(mark) is int and mark >= -1 for mark in high.values())
            and all(map(is_count, set().union(*seen.values())))
            and is_count(snapshot.duplicates_dropped)
        ):
            raise ObserverError(
                f"dedup snapshot holds a high water below -1, a negative "
                f"or non-int seq or rejection count: {snapshot!r}"
            )
        self._high = high
        self._seen = seen
        self.duplicates_dropped = snapshot.duplicates_dropped
