"""Differential oracle for *who loses* under load (hypothesis, stateful).

The conservation and cap properties in ``test_admission_properties``
hold for any victim; nothing there pins *which* observation is shed.
This file does.  The reference below keeps its buffered items in a
plain list in arrival order: the oldest is a ``min`` over it, a release
sorts it.  Slow, and obviously right, and no heap in it.  The two
shedding rules are written out beside it: ``drop_oldest_late`` evicts
the reference's oldest pending item, ``drop_lowest_priority`` sheds the
arrival.  A state machine drives the reference and the real
:class:`~repro.stream.reorder.ReorderBuffer` through the same offers,
at-cap offers (both rules), redeliveries, releases, evictions and
snapshot -> restore-into-a-fresh-buffer round trips, and requires the
same victim *object*, the same released sequence and the same
``pending()`` / occupancy / high-water mark / late list and count /
frontiers after every operation.

The real buffer is the one inside a bounded
:class:`~repro.stream.runtime.StreamingDetectionRuntime`, and whole
delivery steps go through its ``ingest``: one ``offer_many`` run below
the cap, then ``make_room`` per item, then a release at the watermark.
The reference offers the same step item by item and tracks each source's
newest event tick itself.  Steps of up to a dozen items against caps of
1 to 8, a tick either side of the frontier, cross the cap partway and
mix late with in-order items.

Streams draw ``seq`` from a handful of values across three sources, so
cross-source ``(event_tick, seq)`` ties — which the globally unique
``seq`` of ``bounded_cases`` never produces — are the common case, and
with them the arrival-order tie-break, before and after a restore.

A redelivery offers an already buffered object again, so the *same
object* is buffered twice.  Each removal must take its earliest copy:
the reference's ``min`` breaks the tie by arrival, and the real
buffer's stable sorts keep that copy ahead.  The rule is also pinned by
example at the bottom.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.stream import (
    AdmissionController,
    AdmissionLimits,
    StreamingDetectionRuntime,
    StreamItem,
)
from repro.stream.reorder import ReorderBuffer, ReorderSnapshot
from tests.stream.test_runtime import RecordingEngine

SOURCES = ("s0", "s1", "s2")
RULES = ("drop_oldest_late", "drop_lowest_priority")


class ReferenceBuffer:
    """The sort-and-scan reorder buffer: a list in arrival order."""

    def __init__(self, late_retention=256):
        self._entries = []  # (order_key, arrival counter, item)
        self._counter = 0
        self.released_through = None
        self.highest_offered = None
        self.late_count = 0
        self.late_retention = late_retention
        self.late = []
        self.peak_occupancy = 0

    @property
    def occupancy(self):
        return len(self._entries)

    def is_late(self, item):
        return (
            self.released_through is not None
            and item.event_tick <= self.released_through
        )

    def offer(self, item):
        if (
            self.highest_offered is None
            or item.event_tick > self.highest_offered
        ):
            self.highest_offered = item.event_tick
        if self.is_late(item):
            self.late_count += 1
            self.late.append(item)
            if len(self.late) > self.late_retention:
                del self.late[: len(self.late) - self.late_retention]
            return False
        self._entries.append((item.order_key, self._counter, item))
        self._counter += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self._entries))
        return True

    def evict_oldest(self):
        if not self._entries:
            return None
        oldest = min(self._entries)
        self._entries.remove(oldest)
        return oldest[2]

    def release(self, watermark):
        if (
            self.released_through is not None
            and watermark <= self.released_through
        ):
            return []
        self.released_through = watermark
        released = sorted(e for e in self._entries if e[0][0] <= watermark)
        self._entries = [e for e in self._entries if e[0][0] > watermark]
        return [item for _, _, item in released]

    def release_all(self):
        if self.highest_offered is None:
            return []
        return self.release(self.highest_offered)

    def pending(self):
        return [item for _, _, item in sorted(self._entries)]

    def snapshot(self):
        return ReorderSnapshot(
            pending=tuple(self.pending()),
            late=tuple(self.late),
            late_count=self.late_count,
            released_through=self.released_through,
            highest_offered=self.highest_offered,
            peak_occupancy=self.peak_occupancy,
        )

    def restore(self, snapshot):
        self._entries = [
            (item.order_key, position, item)
            for position, item in enumerate(snapshot.pending)
        ]
        self._counter = len(self._entries)
        self.late = list(snapshot.late)
        self.late_count = snapshot.late_count
        self.released_through = snapshot.released_through
        self.highest_offered = snapshot.highest_offered
        self.peak_occupancy = snapshot.peak_occupancy


def reference_make_room(rule, buffer):
    """Evict and return the buffered item ``rule`` evicts at the cap,
    or return ``None`` when the arrival itself is shed."""
    if rule == "drop_oldest_late":
        return buffer.evict_oldest()
    return None


def same_objects(left, right):
    return len(left) == len(right) and all(
        a is b for a, b in zip(left, right)
    )


class WhoLoses(RuleBasedStateMachine):
    @initialize(
        rule=st.sampled_from(RULES),
        cap=st.integers(min_value=1, max_value=8),
        late_retention=st.integers(min_value=0, max_value=3),
        lateness=st.integers(min_value=0, max_value=2),
    )
    def configure(self, rule, cap, late_retention, lateness):
        self.rule = rule
        self.cap = cap
        self.late_retention = late_retention
        self.lateness = lateness
        self.losers = []  # the runtime's make_room outcomes, in order
        self.released = []  # what the runtime's steps released
        self.fresh_runtime()
        self.reference = ReferenceBuffer(late_retention)
        self.entities = 0

    def fresh_runtime(self):
        """A bounded runtime whose buffer is ``self.real``; its tracker
        starts empty, and so does the reference's (``self.newest``)."""
        controller = AdmissionController(
            AdmissionLimits(max_pending=self.cap), shedding=self.rule
        )
        make_room = controller.make_room

        def recorded(incoming, buffer):
            victim = make_room(incoming, buffer)
            self.losers.append(incoming if victim is None else victim)
            return victim

        controller.make_room = recorded
        engine = RecordingEngine()
        self.released = engine.released
        self.runtime = StreamingDetectionRuntime(
            engine, lateness=self.lateness, admission=controller
        )
        self.real = self.runtime.buffer
        self.real.late_retention = self.late_retention
        self.newest = {}

    def make(self, ahead, seq, source):
        """A fresh object a few ticks around the release frontier."""
        frontier = self.reference.released_through
        tick = max(0, (frontier if frontier is not None else 0) + ahead)
        self.entities += 1
        return StreamItem(
            entity=self.entities,
            event_tick=tick,
            seq=seq,
            arrival_tick=tick,
            source=source,
        )

    def offer_at_cap(self, item):
        """What the runtime does with one at-cap item, on both buffers."""
        assert self.real.is_late(item) == self.reference.is_late(item)
        if (
            self.reference.occupancy >= self.cap
            and not self.reference.is_late(item)
        ):
            expected = reference_make_room(self.rule, self.reference)
            victim = self.runtime.admission.make_room(item, self.real)
            assert victim is expected, (victim, expected)
            if victim is None:
                return  # the incoming item is the one shed
        assert self.real.offer(item) == self.reference.offer(item)

    @rule(
        ahead=st.integers(min_value=-1, max_value=3),
        seq=st.integers(min_value=0, max_value=2),
        source=st.sampled_from(SOURCES),
    )
    def offer(self, ahead, seq, source):
        self.offer_at_cap(self.make(ahead, seq, source))

    @precondition(lambda self: self.reference.occupancy > 0)
    @rule(position=st.integers(min_value=0, max_value=7))
    def redeliver(self, position):
        """Offer a buffered object again, as a redelivery with no
        deduper in front does: the object is then buffered twice."""
        pending = self.reference.pending()
        self.offer_at_cap(pending[position % len(pending)])

    @rule(
        step=st.lists(
            st.tuples(
                st.integers(min_value=-1, max_value=3),
                st.integers(min_value=0, max_value=2),
                st.sampled_from(SOURCES),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def ingest_step(self, step):
        """One delivery step through the runtime; the reference offers
        it item by item, then releases at the per-item watermark."""
        items = [self.make(*drawn) for drawn in step]
        reference, losers = self.reference, []
        for item in items:
            newest = self.newest.get(item.source, item.event_tick)
            self.newest[item.source] = max(newest, item.event_tick)
            if reference.occupancy >= self.cap and not reference.is_late(item):
                victim = reference_make_room(self.rule, reference)
                losers.append(item if victim is None else victim)
                if victim is None:
                    continue
            reference.offer(item)
        watermark = min(tick - self.lateness for tick in self.newest.values())
        expected = reference.release(watermark)
        self.losers.clear()
        self.released.clear()
        self.runtime.ingest(items)
        assert same_objects(self.losers, losers)
        assert same_objects(
            self.released, [item.entity for item in expected]
        )

    @rule(advance=st.integers(min_value=-1, max_value=3))
    def release(self, advance):
        frontier = self.reference.released_through
        watermark = (frontier if frontier is not None else -1) + advance
        assert same_objects(
            self.real.release(watermark), self.reference.release(watermark)
        )

    @rule()
    def release_all(self):
        assert same_objects(
            self.real.release_all(), self.reference.release_all()
        )

    @rule()
    def evict_oldest(self):
        assert self.real.evict_oldest() is self.reference.evict_oldest()

    @rule()
    def checkpoint_into_fresh_buffers(self):
        snapshot = self.real.snapshot()
        assert snapshot == self.reference.snapshot()
        self.fresh_runtime()
        self.real.restore(snapshot)
        self.reference = ReferenceBuffer(self.late_retention)
        self.reference.restore(snapshot)

    @invariant()
    def buffers_agree(self):
        if not hasattr(self, "real"):
            return  # before configure()
        real, reference = self.real, self.reference
        assert same_objects(real.pending(), reference.pending())
        assert real.occupancy == reference.occupancy
        assert real.peak_occupancy == reference.peak_occupancy
        assert real.late_count == reference.late_count
        assert same_objects(real.late, reference.late)
        view = real.metrics_view()
        assert view["released_through"] == reference.released_through
        assert view["highest_offered"] == reference.highest_offered
        assert view["occupancy"] == reference.occupancy
        assert view["peak_occupancy"] == reference.peak_occupancy


WhoLoses.TestCase.settings = settings(
    max_examples=200, stateful_step_count=50, deadline=None
)
TestWhoLoses = WhoLoses.TestCase


class TestTheSameObjectBufferedTwice:
    """A redelivery with no deduper in front buffers one object twice.
    Each removal takes its earliest copy; the other stays buffered."""

    def item(self, tick, seq, entity=0):
        return StreamItem(
            entity=entity, event_tick=tick, seq=seq, arrival_tick=tick
        )

    def test_each_eviction_takes_one_copy(self):
        buffer = ReorderBuffer()
        twice = self.item(5, 0)
        other = self.item(5, 0, entity=1)  # ties with it, arrives between
        for offered in (twice, other, twice):
            assert buffer.offer(offered)
        assert buffer.occupancy == buffer.peak_occupancy == 3
        assert buffer.evict_oldest() is twice
        assert buffer.occupancy == 2
        # The earliest copy went: the survivor now follows ``other``.
        assert same_objects(buffer.pending(), [other, twice])
        assert buffer.evict_oldest() is other
        assert buffer.evict_oldest() is twice
        assert buffer.evict_oldest() is None
        assert buffer.release_all() == []
        assert buffer.occupancy == 0

    def test_both_copies_release_and_restore(self):
        buffer = ReorderBuffer()
        twice = self.item(3, 1)
        for offered in (twice, twice, self.item(4, 0, entity=1)):
            buffer.offer(offered)
        clone = ReorderBuffer()
        clone.restore(buffer.snapshot())
        assert clone.occupancy == 3
        assert same_objects(clone.release(3), [twice, twice])
        assert clone.occupancy == 1
        assert same_objects(buffer.release(3), [twice, twice])

    def test_many_copies_leave_one_at_a_time(self):
        buffer = ReorderBuffer()
        often = self.item(4, 0)
        other = self.item(6, 0, entity=1)
        for offered in (often, often, other, often, often):
            buffer.offer(offered)
        for left in (4, 3):
            assert buffer.evict_oldest() is often
            assert buffer.occupancy == left
        assert same_objects(buffer.pending(), [often, often, other])
        assert same_objects(buffer.release(5), [often, often])
        assert same_objects(buffer.pending(), [other])
        assert buffer.evict_oldest() is other
        assert buffer.occupancy == 0
