"""Unit tests for stream sources and the bounded reorder buffer."""

import pytest

from repro.core.errors import ObserverError
from repro.stream import JitteredSource, ReorderBuffer, ReplaySource, StreamItem


def item(tick, seq, arrival=None, source="s"):
    return StreamItem(
        entity=("obs", seq),
        event_tick=tick,
        seq=seq,
        arrival_tick=tick if arrival is None else arrival,
        source=source,
    )


class TestStreamItem:
    @pytest.mark.parametrize(
        "fields, complaint",
        [
            ({"arrival_tick": 4}, "before it occurred"),
            ({"event_tick": float("nan")}, "must be ints"),
            ({"event_tick": 5.0}, "must be ints"),
            ({"arrival_tick": "5"}, "must be ints"),
            ({"seq": True}, "non-negative int"),
            ({"seq": -1}, "non-negative int"),
        ],
        ids=["arrives-early", "nan-tick", "float-tick", "str-tick",
             "bool-seq", "negative-seq"],
    )
    def test_hostile_fields_rejected(self, fields, complaint):
        valid = {"event_tick": 5, "seq": 0, "arrival_tick": 5}
        with pytest.raises(ObserverError, match=complaint):
            StreamItem(entity=("obs", 0), **{**valid, **fields})

    def test_order_key(self):
        assert item(3, 7).order_key == (3, 7)


class TestReplaySource:
    def test_yields_in_order_with_global_seqs(self):
        source = ReplaySource([(1, ["a", "b"]), (4, ["c"])], name="tap")
        items = list(source)
        assert [(i.event_tick, i.seq, i.entity) for i in items] == [
            (1, 0, "a"), (1, 1, "b"), (4, 2, "c"),
        ]
        assert all(i.arrival_tick == i.event_tick for i in items)
        assert all(i.source == "tap" for i in items)

    def test_regressing_batches_rejected(self):
        with pytest.raises(ObserverError, match="regress"):
            ReplaySource([(4, ["a"]), (2, ["b"])])


class TestJitteredSource:
    def test_delays_bounded_and_deterministic(self):
        base = ReplaySource([(t, [f"e{t}"]) for t in range(50)])
        first = JitteredSource(base, max_delay=5, seed=11)
        second = JitteredSource(base, max_delay=5, seed=11)
        assert [i.arrival_tick for i in first] == [
            i.arrival_tick for i in second
        ]
        for jittered in first:
            assert 0 <= jittered.arrival_tick - jittered.event_tick <= 5

    def test_arrival_order_nondecreasing(self):
        base = ReplaySource([(t, ["x", "y"]) for t in range(0, 60, 2)])
        arrivals = [i.arrival_tick for i in JitteredSource(base, 7, seed=3)]
        assert arrivals == sorted(arrivals)

    def test_zero_delay_is_identity(self):
        base = ReplaySource([(t, ["x"]) for t in range(10)])
        assert not JitteredSource(base, 0, seed=9).is_shuffled()

    def test_dense_stream_shuffles(self):
        base = ReplaySource([(t, ["x"]) for t in range(100)])
        assert JitteredSource(base, 6, seed=1).is_shuffled()

    # Accepted, a fractional or nan bound would fail inside the random
    # draw, and True would draw delays from {0, 1}.
    @pytest.mark.parametrize(
        "max_delay", [-1, 2.5, 3.0, float("nan"), True, "3"]
    )
    def test_delay_must_be_a_non_negative_int(self, max_delay):
        base = ReplaySource([(0, ["x"])])
        with pytest.raises(ObserverError, match="max_delay"):
            JitteredSource(base, max_delay)


class TestReorderBuffer:
    def test_releases_in_event_time_order(self):
        buffer = ReorderBuffer()
        for it in (item(5, 2), item(3, 0), item(4, 1), item(9, 3)):
            assert buffer.offer(it)
        released = buffer.release(5)
        assert [i.order_key for i in released] == [(3, 0), (4, 1), (5, 2)]
        assert buffer.occupancy == 1
        assert buffer.released_through == 5

    def test_cross_source_key_ties_never_compare_items(self):
        # Two sources both start at seq 0: identical (event_tick, seq)
        # keys must fall back to the insertion counter, not to
        # comparing StreamItems (which define no ordering).
        buffer = ReorderBuffer()
        first = item(5, 0, source="a")
        second = item(5, 0, source="b")
        assert buffer.offer(first)
        assert buffer.offer(second)
        assert buffer.release(5) == [first, second]  # arrival order

    def test_cross_source_tie_survives_restore(self):
        buffer = ReorderBuffer()
        buffer.offer(item(5, 0, source="a"))
        buffer.offer(item(5, 0, source="b"))
        clone = ReorderBuffer()
        clone.restore(buffer.snapshot())
        clone.offer(item(5, 0, source="c"))
        assert [i.source for i in clone.release_all()] == ["a", "b", "c"]

    def test_same_tick_ties_break_by_seq(self):
        buffer = ReorderBuffer()
        buffer.offer(item(2, 5))
        buffer.offer(item(2, 1))
        buffer.offer(item(2, 3))
        assert [i.seq for i in buffer.release(2)] == [1, 3, 5]

    def test_late_items_counted_never_dropped(self):
        buffer = ReorderBuffer()
        buffer.offer(item(1, 0))
        buffer.offer(item(8, 1))
        buffer.release(5)
        straggler = item(4, 2, arrival=20)
        assert not buffer.offer(straggler)
        assert buffer.late == [straggler]
        assert buffer.late_count == 1
        # Still releasable content is unaffected.
        assert [i.seq for i in buffer.release_all()] == [1]

    def test_frontier_is_monotone(self):
        buffer = ReorderBuffer()
        buffer.offer(item(3, 0))
        buffer.release(10)
        assert buffer.release(7) == []
        assert buffer.released_through == 10

    def test_peak_occupancy_high_water(self):
        buffer = ReorderBuffer()
        for seq in range(4):
            buffer.offer(item(10 + seq, seq))
        buffer.release(13)
        buffer.offer(item(20, 9))
        assert buffer.peak_occupancy == 4

    def test_pending_and_restore_round_trip(self):
        buffer = ReorderBuffer()
        for it in (item(7, 1), item(6, 0), item(9, 2)):
            buffer.offer(it)
        buffer.release(6)
        clone = ReorderBuffer()
        clone.restore(buffer.snapshot())
        assert [i.order_key for i in clone.release_all()] == [(7, 1), (9, 2)]
        assert clone.peak_occupancy == buffer.peak_occupancy


class TestLateRetentionRegression:
    """The late list is a bounded sample; the count is always exact.

    Regression: ``ReorderBuffer.late`` used to grow without bound on a
    lossy transport, ballooning memory and every checkpoint copied from
    it.
    """

    def test_retention_caps_sample_but_not_count(self):
        buffer = ReorderBuffer(late_retention=4)
        buffer.offer(item(100, 0))
        buffer.release(100)
        stragglers = [item(t, 1 + t, arrival=200) for t in range(10)]
        for straggler in stragglers:
            assert not buffer.offer(straggler)
        assert buffer.late_count == 10  # exact, never capped
        assert buffer.late == stragglers[-4:]  # newest retained

    def test_zero_retention_keeps_nothing_but_counts_everything(self):
        buffer = ReorderBuffer(late_retention=0)
        buffer.offer(item(50, 0))
        buffer.release(50)
        assert not buffer.offer(item(1, 1, arrival=60))
        assert buffer.late == [] and buffer.late_count == 1

    def test_none_retention_keeps_everything(self):
        buffer = ReorderBuffer(late_retention=None)
        buffer.offer(item(50, 0))
        buffer.release(50)
        for seq in range(300):
            buffer.offer(item(2, 100 + seq, arrival=60))
        assert len(buffer.late) == buffer.late_count == 300

    def test_negative_retention_rejected(self):
        with pytest.raises(ObserverError, match="retention"):
            ReorderBuffer(late_retention=-1)

    @pytest.mark.parametrize("retention", [1.5, True, "8"])
    def test_non_int_retention_rejected(self, retention):
        with pytest.raises(ObserverError, match="retention"):
            ReorderBuffer(late_retention=retention)

    def test_exact_count_survives_restore(self):
        buffer = ReorderBuffer(late_retention=2)
        buffer.offer(item(50, 0))
        buffer.release(50)
        for seq in range(5):
            buffer.offer(item(3, 10 + seq, arrival=60))
        clone = ReorderBuffer(late_retention=2)
        clone.restore(buffer.snapshot())
        assert clone.late_count == 5
        assert clone.late == buffer.late


class TestReleaseAllFrontierRegression:
    """``release_all`` advances the frontier even over an empty heap.

    Regression: with every buffered item evicted (load shedding), the
    old ``release_all`` returned early without touching the frontier,
    so an *older* observation offered after ``finish()`` was accepted
    as in-order instead of being classified late.
    """

    def test_empty_heap_still_advances_to_highest_offered(self):
        buffer = ReorderBuffer()
        buffer.offer(item(10, 0))
        assert buffer.evict_oldest().event_tick == 10
        assert buffer.release_all() == []
        assert buffer.released_through == 10
        straggler = item(5, 1, arrival=20)
        assert not buffer.offer(straggler)  # late, not silently in-order
        assert buffer.late_count == 1

    def test_never_offered_buffer_stays_inert(self):
        buffer = ReorderBuffer()
        assert buffer.release_all() == []
        assert buffer.released_through is None
        assert buffer.offer(item(1, 0))  # a fresh stream can still start

    def test_highest_offered_survives_restore_of_emptied_buffer(self):
        buffer = ReorderBuffer()
        buffer.offer(item(10, 0))
        buffer.evict_oldest()
        clone = ReorderBuffer()
        clone.restore(buffer.snapshot())
        assert clone.release_all() == []
        assert clone.released_through == 10


class TestEvictionHooks:
    def test_evict_oldest_pops_event_time_order(self):
        buffer = ReorderBuffer()
        for it in (item(5, 0), item(2, 1), item(8, 2)):
            buffer.offer(it)
        assert buffer.evict_oldest().event_tick == 2
        assert buffer.occupancy == 2
        assert buffer.late_count == 0  # evicted, not late

    def test_evict_item_removes_identity_match(self):
        buffer = ReorderBuffer()
        target = item(5, 1)
        buffer.offer(item(3, 0))
        buffer.offer(target)
        buffer.offer(item(7, 2))
        assert buffer.evict_item(target)
        assert not buffer.evict_item(target)  # already gone
        assert [i.event_tick for i in buffer.release_all()] == [3, 7]

    def test_oldest_pending_peeks_without_removal(self):
        buffer = ReorderBuffer()
        assert buffer.oldest_pending() is None
        buffer.offer(item(4, 0))
        assert buffer.oldest_pending().event_tick == 4
        assert buffer.occupancy == 1
