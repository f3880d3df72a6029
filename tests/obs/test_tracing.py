"""Unit tests for stage tracing (repro.obs.tracing)."""

from __future__ import annotations

from collections import namedtuple

import pytest

from repro.core.errors import ObserverError
from repro.obs.tracing import TRACE_RING, STAGES, Stage, Telemetry

Item = namedtuple(
    "Item", ["source", "seq", "arrival_tick", "event_tick"], defaults=[0, 0]
)


def _sampled(tracer: Telemetry, item: Item) -> bool:
    """Admit ``item``; whether it opened a trace."""
    before = tracer.sampled
    tracer.admit(item)
    return tracer.sampled > before


class TestSampling:
    def test_disabled_tracer_samples_nothing(self):
        tracer = Telemetry.create(trace_every=0)
        assert not tracer.enabled
        for seq in range(10):
            tracer.admit(Item("s", seq))
        assert (tracer.sampled, tracer.active_count) == (0, 0)

    def test_trace_every_k_is_deterministic(self):
        tracer = Telemetry.create(trace_every=3)
        picks = [_sampled(tracer, Item("s", seq)) for seq in range(9)]
        assert picks == [True, False, False] * 3

    def test_trace_every_one_samples_everything(self):
        tracer = Telemetry.create(trace_every=1)
        assert all(_sampled(tracer, Item("s", seq)) for seq in range(5))
        assert tracer.active_count == 5

    def test_same_cursor_same_picks_across_runs(self):
        def picks():
            tracer = Telemetry.create(trace_every=4)
            return [_sampled(tracer, Item("s", seq)) for seq in range(17)]

        assert picks() == picks()


class TestStages:
    def test_three_stages_in_pipeline_order(self):
        assert [stage.value for stage in STAGES] == [
            "ADMISSION", "REORDER", "WATERMARK_HOLD",
        ]
        assert STAGES == tuple(Stage)


class TestLifecycle:
    def test_a_trace_is_four_ticks(self):
        tracer = Telemetry.create(trace_every=1)
        tracer.observe_step(5)
        tracer.admit(Item("s", 0, arrival_tick=3, event_tick=1))
        assert tracer.snapshot().active == (("s", 0, 3, 5),)
        tracer.observe_step(9)
        tracer.release([Item("s", 0, arrival_tick=3, event_tick=1)])
        assert tracer.completed_rows() == (
            ("s", 0, (
                ("ADMISSION", 3, 5),
                ("REORDER", 5, 9),
                ("WATERMARK_HOLD", 1, 9),
            )),
        )
        admission, reorder, hold = tracer.residency
        assert (admission.total, reorder.total, hold.total) == (2, 4, 8)
        assert [h.count for h in tracer.residency] == [1, 1, 1]
        assert (tracer.sampled, tracer.finished, tracer.active_count) == (
            1, 1, 0,
        )

    def test_before_the_first_step_arrival_and_event_ticks_stand_in(self):
        tracer = Telemetry.create(trace_every=1)
        item = Item("s", 0, arrival_tick=2, event_tick=3)
        tracer.admit(item)
        tracer.release([item])
        ((_, _, spans),) = tracer.completed_rows()
        assert spans == (
            ("ADMISSION", 2, 2),
            ("REORDER", 2, 3),
            ("WATERMARK_HOLD", 3, 3),
        )

    def test_release_skips_unsampled_items(self):
        tracer = Telemetry.create(trace_every=2)
        items = [Item("s", seq) for seq in range(4)]
        for item in items:
            tracer.admit(item)  # seqs 0 and 2 are sampled
        tracer.release(items)
        assert [row[1] for row in tracer.completed_rows()] == [0, 2]
        assert tracer.finished == 2
        assert [h.count for h in tracer.residency] == [2, 2, 2]

    def test_lost_counts_per_reason(self):
        tracer = Telemetry.create(trace_every=1)
        items = [Item("s", seq) for seq in range(3)]
        for item in items:
            tracer.admit(item)
        tracer.lost([items[0], items[2]], "shed")
        tracer.lost([items[1]], "late")
        assert tracer.active_count == 0
        assert tracer.discarded == {"shed": 2, "late": 1}
        tracer.release(items)  # a lost trace never closes
        assert (tracer.finished, tracer.completed_rows()) == (0, ())

    def test_lost_skips_unsampled_items(self):
        tracer = Telemetry.create(trace_every=2)
        items = [Item("s", seq) for seq in range(4)]
        for item in items:
            tracer.admit(item)  # seqs 0 and 2 are sampled
        tracer.lost(items, "evicted")
        assert tracer.active_count == 0
        assert tracer.discarded == {"evicted": 2}

    def test_lost_is_a_no_op_when_tracing_is_off(self):
        tracer = Telemetry.create()
        tracer.admit(Item("s", 0))
        tracer.lost([Item("s", 0)], "shed")
        assert tracer.discarded == {}

    def test_ring_is_bounded(self):
        tracer = Telemetry.create(trace_every=1)
        for seq in range(TRACE_RING + 3):
            tracer.admit(Item("s", seq))
            tracer.release([Item("s", seq)])
        rows = tracer.completed_rows()
        assert tracer.finished == TRACE_RING + 3
        # The newest are kept.
        assert [row[1] for row in rows] == list(range(3, TRACE_RING + 3))

    @pytest.mark.parametrize("value", [0.5, True, -1])
    def test_stride_must_be_a_non_negative_int(self, value):
        with pytest.raises(ObserverError, match="trace_every"):
            Telemetry.create(trace_every=value)


class TestSnapshotRestore:
    def test_round_trip_restores_cursor_active_ring_and_tallies(self):
        tracer = Telemetry.create(trace_every=2)
        tracer.observe_step(3)
        assert _sampled(tracer, Item("s", 0))  # 1st offer: sampled
        tracer.release([Item("s", 0)])
        assert not _sampled(tracer, Item("s", 1))  # 2nd offer: skipped
        assert _sampled(tracer, Item("s", 2, arrival_tick=2))  # in flight
        assert not _sampled(tracer, Item("s", 3))  # 4th offer: skipped
        assert _sampled(tracer, Item("s", 4))  # 5th: sampled
        tracer.lost([Item("s", 4)], "late")
        tracer.observe_step(9)
        snapshot = tracer.snapshot()
        assert snapshot.active == (("s", 2, 2, 3),)

        resumed = Telemetry.create(trace_every=2)
        resumed.restore(snapshot)
        assert resumed.snapshot() == snapshot
        assert resumed.now == 9
        assert resumed.completed_rows() == tracer.completed_rows()
        assert (resumed.sampled, resumed.finished) == (3, 1)
        assert resumed.discarded == {"late": 1}
        assert [h.counts for h in resumed.residency] == [
            h.counts for h in tracer.residency
        ]
        # The restored in-flight trace closes as the original does, and
        # post-restore sampling continues the cursor identically.
        for part in (tracer, resumed):
            part.release([Item("s", 2, arrival_tick=2, event_tick=1)])
        assert resumed.snapshot() == tracer.snapshot()
        for seq in range(5, 9):
            a = _sampled(tracer, Item("s", seq))
            b = _sampled(resumed, Item("s", seq))
            assert a == b

    def test_restore_rejects_trace_every_mismatch(self):
        snapshot = Telemetry.create(trace_every=4).snapshot()
        other = Telemetry.create(trace_every=1)
        before = other.snapshot()
        with pytest.raises(ObserverError):
            other.restore(snapshot)
        assert other.snapshot() == before


class TestTelemetryClock:
    def test_observe_step_is_monotone(self):
        telemetry = Telemetry.create()
        telemetry.observe_step(5)
        telemetry.observe_step(3)  # never rewinds
        assert telemetry.now == 5
        telemetry.observe_step(8)
        assert telemetry.now == 8
