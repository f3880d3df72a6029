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
occupancy via the eviction hooks (:meth:`ReorderBuffer.evict_oldest` /
:meth:`ReorderBuffer.evict_item`) and, for class-aware shedding, asks
:meth:`ReorderBuffer.weakest` who would lose.

What each operation costs, with ``n`` items buffered — none of it grows
with the cap the admission layer enforces, so shedding stays cheap
exactly when the buffer is full:

* ``offer_many`` — one heap push per item, O(log n); a second push into
  the item's class heap when the buffer was built with ``rank``
  (``offer`` is a run of one);
* ``release`` — O(log n) per released item;
* ``evict_item`` / ``evict_oldest`` — O(1): the victim's liveness record
  is dropped and its heap entries stay behind as **tombstones**, skipped
  (O(log n) each, once) when they surface at the top of a heap;
* ``oldest_pending`` / ``weakest`` — O(1) plus the tombstones they skip;
* ``pending`` / ``snapshot`` / ``restore`` — O(n log n), the checkpoint
  path;
* compaction — a heap is rebuilt, O(n), only once its tombstones
  outnumber its live entries, i.e. amortized O(1) per removal.  Neither
  a stream that only ever evicts nor one that only ever releases can
  pin more than a small multiple of the live items.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.errors import ObserverError
from repro.stream.source import StreamItem

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

    pending: tuple[StreamItem, ...]
    late: tuple[StreamItem, ...]
    late_count: int
    released_through: int | None
    highest_offered: int | None
    peak_occupancy: int


class ReorderBuffer:
    """Min-heap over ``(event_tick, seq)`` with a release frontier.

    Removal is lazy.  An item is buffered exactly while the liveness
    table carries the insertion counter of its heap entry; releasing or
    evicting it drops that record, and whatever entry a heap still holds
    for it is from then on a tombstone — skipped when it surfaces,
    swept out when tombstones outnumber live entries.  Occupancy, the
    high-water mark, :meth:`metrics_view` and :meth:`pending` count live
    items only.

    Args:
        late_retention: How many late items to *retain* for inspection
            (the newest ones; ``None`` retains everything).  The exact
            late count is tracked separately and is never capped.
        rank: Optional classifier ``item -> class`` (any orderable,
            hashable value; larger = weaker, shed first).  With one, the
            buffer also keeps a per-class index behind :meth:`weakest`.
            It is called once per item, when the item is offered (and
            once more per pending item on :meth:`restore`): an item's
            class is fixed from then on.
    """

    _COMPACT_SLACK = 64
    """Tombstones a heap may carry beyond its live entries before it is
    rebuilt: keeps a nearly empty buffer from compacting on every
    release."""

    def __init__(
        self,
        late_retention: int | None = DEFAULT_LATE_RETENTION,
        rank: Callable[[StreamItem], object] | None = None,
    ):
        if late_retention is not None and (
            type(late_retention) is not int or late_retention < 0
        ):
            raise ObserverError(
                f"late_retention must be a non-negative int or None: "
                f"{late_retention!r}"
            )
        # Heap entries carry an insertion counter after the order key:
        # ``seq`` is only unique per source, so two sources' items can
        # tie on (event_tick, seq) and heapq must never fall through to
        # comparing StreamItems (which define no ordering).  Ties
        # release in arrival order, deterministically.
        self._heap: list[tuple[tuple[int, int], int, StreamItem]] = []
        self._counter = 0
        # id(item) -> counter of the item's buffered entry.  Items are
        # matched by identity (as eviction always did), and an entry pins
        # its item, so an id cannot be reused while a counter is filed
        # under it.  The same object buffered twice (a redelivery with no
        # deduper in front) files its earliest copy here and queues the
        # rest, in arrival order, in ``_later`` (id(item) -> counters of
        # the further copies; ``_chained`` is the set of all of those, so
        # "is this counter live?" stays one lookup).  Every removal takes
        # the earliest copy, which is also the first of them to surface
        # in the main heap.
        self._live: dict[int, int] = {}
        self._later: dict[int, deque[int]] = {}
        self._chained: set[int] = set()
        self._rank = rank
        # class -> max-heap of (-event_tick, -seq, counter, item): the
        # top of the weakest class is the event-time-newest of that
        # class, the earliest arrival among equal keys.
        self._classes: dict[object, list] = {}
        self._indexed = 0  # entries across ``_classes``, live or not
        self._released_through: int | None = None
        self._highest_offered: int | None = None
        self._late_count = 0
        self.late_retention = late_retention
        self.late: list[StreamItem] = []
        self.peak_occupancy = 0

    @property
    def occupancy(self) -> int:
        """Items currently buffered (excluding lates and tombstones)."""
        return len(self._live) + len(self._chained)

    @property
    def released_through(self) -> int | None:
        """Highest watermark released so far (``None`` before the first)."""
        return self._released_through

    @property
    def highest_offered(self) -> int | None:
        """Highest event tick ever offered (``None`` before the first)."""
        return self._highest_offered

    @property
    def late_count(self) -> int:
        """Exact count of observations beyond the lateness bound.

        Always exact, even when the retained sample in :attr:`late` has
        been capped by the retention window.
        """
        return self._late_count

    def metrics_view(self) -> dict[str, int | None]:
        """The buffer's state as a flat metric mapping (read-only).

        Reading never touches the heap or the counters.
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

    def offer_many(self, items: Iterable[StreamItem]) -> list[StreamItem]:
        """Buffer a run of arrivals, in order; return the late ones.

        An item is late when its event tick falls at or below the
        frontier already released — emitting it now would regress the
        consumer's clock.  Late items are counted exactly and retained
        (newest first to go stale) up to the retention window;
        everything else is heap-ordered for release.  The frontier does
        not move while a run is offered, so the run is classified
        exactly as offering its items one by one would classify them.
        """
        frontier = self._released_through
        heap, live, rank = self._heap, self._live, self._rank
        late: list[StreamItem] = []
        for item in items:
            tick = item.event_tick
            if self._highest_offered is None or tick > self._highest_offered:
                self._highest_offered = tick
            if frontier is not None and tick <= frontier:
                late.append(item)
                continue
            counter = self._counter
            self._counter = counter + 1
            heapq.heappush(heap, (item.order_key, counter, item))
            if live.setdefault(id(item), counter) != counter:
                # This very object is already buffered: queue the new copy.
                self._later.setdefault(id(item), deque()).append(counter)
                self._chained.add(counter)
            if rank is not None:
                cls = rank(item)
                index = self._classes.get(cls)
                if index is None:
                    index = self._classes[cls] = []
                heapq.heappush(index, (-tick, -item.seq, counter, item))
                self._indexed += 1
        # Nothing leaves during a run: its last occupancy is its peak.
        self.peak_occupancy = max(self.peak_occupancy, self.occupancy)
        if late:
            self._late_count += len(late)
            self.late.extend(late)
            if (
                self.late_retention is not None
                and len(self.late) > self.late_retention
            ):
                # Drop-oldest-late retention: the most recent lates are
                # the ones worth inspecting or re-routing.
                del self.late[: len(self.late) - self.late_retention]
        return late

    def _promote(self, key: int) -> None:
        """The earliest copy of the object ``key`` identifies has just
        been removed: the next copy, if any, is the earliest now."""
        copies = self._later[key]
        counter = copies.popleft()
        self._chained.discard(counter)
        self._live[key] = counter
        if not copies:
            del self._later[key]

    def _live_counters(self) -> set[int]:
        """The insertion counters of every buffered entry."""
        return {*self._live.values(), *self._chained}

    def _compact(self) -> None:
        """Rebuild a heap whose tombstones outnumber its live entries."""
        bound = 2 * self.occupancy + self._COMPACT_SLACK
        if len(self._heap) <= bound and self._indexed <= bound:
            return
        alive = self._live_counters()
        if len(self._heap) > bound:
            self._heap = [entry for entry in self._heap if entry[1] in alive]
            heapq.heapify(self._heap)
        if self._indexed > bound:
            self._classes = {
                cls: kept
                for cls, heap in self._classes.items()
                if (kept := [entry for entry in heap if entry[2] in alive])
            }
            for heap in self._classes.values():
                heapq.heapify(heap)
            self._indexed = len(alive)

    def oldest_pending(self) -> StreamItem | None:
        """The buffered item next in event-time order (no removal)."""
        heap = self._heap
        live = self._live
        while heap:
            _, counter, item = heap[0]
            # Copies of one object surface in counter order here, so the
            # earliest-copy record decides without walking the chain.
            if live.get(id(item)) == counter:
                return item
            heapq.heappop(heap)
        return None

    def weakest(self) -> tuple[object, StreamItem] | None:
        """The buffered item class-aware shedding would evict, with its
        class: of the weakest (largest) class buffered, the
        event-time-newest item, the earliest arrival among equal
        ``(event_tick, seq)``.  ``None`` when nothing is buffered.

        Needs the class index (``rank=`` at construction).
        """
        if self._rank is None:
            raise ObserverError(
                "this reorder buffer was built without a classifier "
                "(rank=...): it has no admission classes to compare"
            )
        live = self._live
        chained = self._chained
        for cls in sorted(self._classes, reverse=True):
            heap = self._classes[cls]
            while heap:
                _, _, counter, item = heap[0]
                # Live as its object's earliest copy, or as a later one
                # (a classifier may file two copies under two classes).
                if live.get(id(item)) == counter or counter in chained:
                    return cls, item
                heapq.heappop(heap)
                self._indexed -= 1
        return None

    def evict_oldest(self) -> StreamItem | None:
        """Remove and return the event-time-oldest buffered item.

        Load-shedding hook: the evicted item leaves the ordered stream
        entirely (it will never be released and is *not* recorded
        late); the caller owns counting it as shed.
        """
        item = self.oldest_pending()
        if item is not None:
            self.evict_item(item)
        return item

    def evict_item(self, item: StreamItem) -> bool:
        """Remove one specific buffered item (identity match).

        Load-shedding hook for the shedding policies; returns whether
        the item was found.  O(1): no scan, no re-heapify — the entries
        left behind are tombstones (see the module docstring).
        """
        if self._live.pop(id(item), None) is None:
            return False
        if id(item) in self._later:
            self._promote(id(item))
        self._compact()
        return True

    def release(self, watermark: int) -> list[StreamItem]:
        """Remove and return every item with ``event_tick <= watermark``.

        Returned in ``(event_tick, seq)`` order — the exact original
        in-order stream restricted to the released window.  The frontier
        is monotone: a watermark below a previous release is a no-op.
        """
        if (
            self._released_through is not None
            and watermark <= self._released_through
        ):
            return []
        self._released_through = watermark
        released: list[StreamItem] = []
        heap = self._heap
        live = self._live
        later = self._later
        while heap and heap[0][0][0] <= watermark:
            _, counter, item = heapq.heappop(heap)
            # One lookup on the path every observation takes: take the
            # record out, and put it back in the rare case it was not
            # this entry's.
            held = live.pop(id(item), None)
            if held != counter:
                # A tombstone: evicted while it waited (and, if a record
                # was there, the same object has been offered again).
                if held is not None:
                    live[id(item)] = held
                continue
            if later and id(item) in later:
                self._promote(id(item))
            released.append(item)
        if released and self._rank is not None:
            # What was released stays behind in the class index; the main
            # heap needs no sweep here, its tombstones surface by tick.
            self._compact()
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
        entries = self._heap
        if len(entries) > self.occupancy:
            alive = self._live_counters()
            entries = [entry for entry in entries if entry[1] in alive]
        return [item for _, _, item in sorted(entries)]

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

    def restore(self, snapshot: ReorderSnapshot) -> None:
        """Reload buffer state from a checkpoint (replaces everything).

        Re-numbering the insertion counters from ``snapshot.pending``
        (the order :meth:`pending` produced) preserves the arrival-order
        tie-break across the round trip.  The snapshot carries no
        classes: the class index is rebuilt by classifying every pending
        item again with this buffer's ``rank``.
        """
        self._heap = []
        self._counter = 0
        self._live = {}
        self._later = {}
        self._chained = set()
        self._classes = {}
        self._indexed = 0
        # With no frontier nothing offered is late: every pending item is
        # filed the way an arrival is, then the frontiers are put back.
        self._released_through = None
        self.offer_many(snapshot.pending)
        self.late = list(snapshot.late)
        self._late_count = snapshot.late_count
        self._released_through = snapshot.released_through
        self._highest_offered = snapshot.highest_offered
        self.peak_occupancy = snapshot.peak_occupancy
