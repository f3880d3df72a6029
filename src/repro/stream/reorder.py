"""Bounded-lateness reorder buffer: disorder in, event-time order out.

The buffer accepts :class:`~repro.stream.source.StreamItem` in any
order and releases them in ``(event_tick, seq)`` order whenever the
caller advances the release frontier (the merged watermark).  An item
whose event tick is at or below the already-released frontier can no
longer be slotted into the ordered stream: it is a **late** item,
counted exactly in :attr:`ReorderBuffer.late_count` and retained in
:attr:`ReorderBuffer.late` up to a bounded retention window — the count
is never lost, but the *retained sample* is capped so a lossy transport
cannot grow the buffer (or any checkpoint copied from it) without
bound.  Callers decide whether to surface, re-route or discard the
retained lates.

Occupancy is tracked with a high-water mark
(:attr:`ReorderBuffer.peak_occupancy`), the backpressure number the
performance ledger reports as ``stream.reorder.peak``: it bounds the
state a consumer must hold to absorb a transport's disorder.  The
admission layer (:mod:`repro.stream.admission`) additionally caps live
occupancy via the eviction hook (:meth:`ReorderBuffer.evict_oldest`).

Buffered items sit in one arrival-order bucket per event tick, beside a
heap of their ticks.  An offer is one append (one push for a new tick);
a release pops whole ticks and stably sorts each bucket by ``seq``, so
ties leave in arrival order; an eviction pops the lowest bucket, put in
eviction order on its first eviction — so shedding stays O(1) amortised
exactly when the buffer is full.  ``pending`` / ``snapshot`` /
``restore`` sort or rebuild everything, O(n log n): the checkpoint path.
"""

from __future__ import annotations

import heapq
from bisect import insort_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

from repro.core.checkpoint import (
    COUNT,
    TICK_OR_NONE,
    Restorable,
    check,
    declared,
)
from repro.core.errors import ObserverError
from repro.stream.source import STREAM_ITEMS, StreamItem

__all__ = ["ReorderBuffer", "ReorderSnapshot", "DEFAULT_LATE_RETENTION"]

DEFAULT_LATE_RETENTION = 256
"""Default cap on *retained* late items.  The exact count is always
kept in :attr:`ReorderBuffer.late_count`; only the sample of concrete
items in :attr:`ReorderBuffer.late` is bounded (newest retained)."""


@dataclass(frozen=True)
class ReorderSnapshot:
    """Checkpoint of a :class:`ReorderBuffer`: the buffered items in
    release order, the retained lates with their exact count (which may
    exceed ``len(late)`` once the retention window has dropped old
    ones), the release frontier, the end-of-stream frontier and the
    occupancy high-water mark."""

    pending: tuple[StreamItem, ...] = declared(STREAM_ITEMS)
    late: tuple[StreamItem, ...] = declared(STREAM_ITEMS)
    late_count: int = declared(COUNT)
    released_through: int | None = declared(TICK_OR_NONE)
    highest_offered: int | None = declared(TICK_OR_NONE)
    peak_occupancy: int = declared(COUNT)


class ReorderBuffer(Restorable):
    """Tick buckets over a heap of their ticks, with a release frontier.

    Every removal takes the lowest tick: :meth:`release` pops ticks up
    to the watermark, :meth:`evict_oldest` takes from the lowest one.
    """

    late_retention = DEFAULT_LATE_RETENTION
    """How many late items to *retain* for inspection (the newest ones).
    The exact late count is tracked separately and is never capped."""

    def __init__(self):
        # A bucket in ``_evicting`` is in eviction order (descending
        # ``seq``, ties latest arrival first): ``pop()`` takes the oldest
        # item and, of one object buffered twice, the earliest copy.
        self._buckets: dict[int, list[StreamItem]] = {}
        self._ticks: list[int] = []
        self._evicting: set[int] = set()
        self._occupancy = 0
        self._released_through: int | None = None
        self._highest_offered: int | None = None
        self._late_count = 0
        self.late: list[StreamItem] = []
        self.peak_occupancy = 0

    @property
    def occupancy(self) -> int:
        """Items currently buffered (excluding lates)."""
        return self._occupancy

    @property
    def late_count(self) -> int:
        """Exact count of observations beyond the lateness bound.

        Always exact, even when the retained sample in :attr:`late` has
        been capped by the retention window.
        """
        return self._late_count

    def metrics_view(self) -> dict[str, int | None]:
        """The buffer's state as a flat metric mapping (read-only).

        Reading never touches the buckets or the counters.
        """
        return {
            "occupancy": self.occupancy,
            "peak_occupancy": self.peak_occupancy,
            "late_count": self._late_count,
            "late_retained": len(self.late),
            "released_through": self._released_through,
            "highest_offered": self._highest_offered,
        }

    def is_late(self, item: StreamItem) -> bool:
        """Whether offering ``item`` now would classify it late."""
        return (
            self._released_through is not None
            and item.event_tick <= self._released_through
        )

    def offer(self, item: StreamItem) -> bool:
        """Buffer one arrival; ``False`` if it is late."""
        return not self.offer_many((item,))

    def offer_many(self, items: Sequence[StreamItem]) -> list[StreamItem]:
        """Buffer a run of arrivals, in order; return the late ones.

        An item is late when its event tick falls at or below the
        frontier already released — emitting it now would regress the
        consumer's clock.  Late items are counted exactly and retained
        (newest first to go stale) up to the retention window;
        everything else is bucketed for release.  The frontier does
        not move while a run is offered, so the run is classified
        exactly as offering its items one by one would classify them.
        """
        frontier = self._released_through
        buckets, evicting = self._buckets, self._evicting
        late: list[StreamItem] = []
        for item in items:
            tick = item.event_tick
            if self._highest_offered is None or tick > self._highest_offered:
                self._highest_offered = tick
            if frontier is not None and tick <= frontier:
                late.append(item)
                continue
            bucket = buckets.get(tick)
            if bucket is None:
                buckets[tick] = [item]
                heapq.heappush(self._ticks, tick)
            elif evicting and tick in evicting:
                insort_left(bucket, item, key=lambda held: -held.seq)
            else:
                bucket.append(item)
        self._occupancy += len(items) - len(late)
        # Nothing leaves during a run: its last occupancy is its peak.
        self.peak_occupancy = max(self.peak_occupancy, self._occupancy)
        if late:
            self._late_count += len(late)
            self.late.extend(late)
            if len(self.late) > self.late_retention:
                # Drop-oldest-late retention: the most recent lates are
                # the ones worth inspecting or re-routing.
                del self.late[: len(self.late) - self.late_retention]
        return late

    def evict_oldest(self) -> StreamItem | None:
        """Remove and return the event-time-oldest buffered item.

        Load-shedding hook: the evicted item leaves the ordered stream
        entirely (it will never be released and is *not* recorded
        late); the caller owns counting it as shed.
        """
        if not self._ticks:
            return None
        tick = self._ticks[0]
        bucket = self._buckets[tick]
        if tick not in self._evicting:  # once: reversed, then stably sorted
            bucket.reverse()
            bucket.sort(key=attrgetter("seq"), reverse=True)
            self._evicting.add(tick)
        victim = bucket.pop()
        self._occupancy -= 1
        if not bucket:
            heapq.heappop(self._ticks)
            del self._buckets[tick]
            self._evicting.discard(tick)
        return victim

    def _ordered(self, tick: int) -> list[StreamItem]:
        """Tick ``tick``'s bucket in ``(seq, arrival)`` order."""
        bucket = self._buckets[tick]
        if tick in self._evicting:
            return bucket[::-1]
        bucket.sort(key=attrgetter("seq"))  # stable: harmless in place
        return bucket

    def release(self, watermark: int) -> list[StreamItem]:
        """Remove and return every item with ``event_tick <= watermark``.

        Returned in ``(event_tick, seq)`` order — the exact original
        in-order stream restricted to the released window.  The frontier
        is monotone: a watermark below a previous release is a no-op.
        """
        frontier = self._released_through
        if frontier is not None and watermark <= frontier:
            return []
        self._released_through = watermark
        released: list[StreamItem] = []
        while self._ticks and self._ticks[0] <= watermark:
            tick = heapq.heappop(self._ticks)
            released += self._ordered(tick)
            del self._buckets[tick]
            self._evicting.discard(tick)
        self._occupancy -= len(released)
        return released

    def release_all(self) -> list[StreamItem]:
        """Flush everything still buffered, in event-time order.

        End-of-stream release: the frontier advances to the highest
        event tick ever offered — whether or not anything is still
        buffered — so any *subsequent* offer of an older item is
        correctly classified late.  (Advancing only to the highest
        *buffered* tick would leave an empty buffer's frontier behind,
        silently accepting post-finish stragglers as in-order.)
        """
        if self._highest_offered is None:
            return []
        return self.release(self._highest_offered)

    def pending(self) -> list[StreamItem]:
        """Buffered items in event-time order (checkpoint view)."""
        return [i for tick in sorted(self._ticks) for i in self._ordered(tick)]

    # -- checkpoint / restore ------------------------------------------

    def snapshot(self) -> ReorderSnapshot:
        """Capture the buffered items, the lates and both frontiers."""
        return ReorderSnapshot(
            pending=tuple(self.pending()),
            late=tuple(self.late),
            late_count=self._late_count,
            released_through=self._released_through,
            highest_offered=self._highest_offered,
            peak_occupancy=self.peak_occupancy,
        )

    def ensure_restorable(self, snapshot: ReorderSnapshot) -> None:
        """Refuse a ``late_count`` below the retained lates'."""
        check(snapshot, ReorderSnapshot)
        if snapshot.late_count < len(snapshot.late):
            raise ObserverError(
                f"ReorderSnapshot.late_count is {snapshot.late_count}, "
                f"below its {len(snapshot.late)} retained lates"
            )

    def install(self, snapshot: ReorderSnapshot) -> None:
        """Replace everything with an accepted snapshot, bucketed in the
        order :meth:`pending` produced: ties keep their arrival order."""
        self._buckets, self._ticks, self._evicting = {}, [], set()
        self._occupancy, self._released_through = 0, None
        self.offer_many(snapshot.pending)  # no frontier: none is late
        self.late = list(snapshot.late)
        self._late_count = snapshot.late_count
        self._released_through = snapshot.released_through
        self._highest_offered = snapshot.highest_offered
        self.peak_occupancy = snapshot.peak_occupancy
