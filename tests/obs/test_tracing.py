"""Unit tests for stage tracing (repro.obs.tracing)."""

from __future__ import annotations

from collections import namedtuple

import pytest

from repro.core.errors import ObserverError
from repro.obs.tracing import STAGES, Stage, StageTrace, Telemetry

Item = namedtuple("Item", ["source", "seq", "arrival_tick"], defaults=[0])


class TestStageTrace:
    def test_enter_exit_residency(self):
        trace = StageTrace("s", 0)
        trace.enter(Stage.REORDER, 3)
        trace.exit(Stage.REORDER, 10)
        assert trace.span(Stage.REORDER) == (3, 10)
        assert trace.residency(Stage.REORDER) == 7
        assert trace.residency(Stage.ENGINE) is None

    def test_row_round_trip(self):
        trace = StageTrace("s", 4)
        trace.enter(Stage.ADMISSION, 1)
        trace.exit(Stage.ADMISSION, 1)
        trace.enter(Stage.REORDER, 1)
        row = trace.as_row()
        back = StageTrace.from_row(row)
        assert back.as_row() == row
        assert back.key == ("s", 4)

    def test_row_lists_every_stage_in_order(self):
        row = StageTrace("s", 0).as_row()
        assert [entry[0] for entry in row[2]] == [
            stage.value for stage in STAGES
        ]


class TestSampling:
    def test_disabled_tracer_samples_nothing(self):
        tracer = Telemetry.create(trace_every=0)
        assert not tracer.enabled
        for seq in range(10):
            assert tracer.admit(Item("s", seq)) is None
        assert tracer.active_count == 0

    def test_trace_every_k_is_deterministic(self):
        tracer = Telemetry.create(trace_every=3)
        picks = [
            tracer.admit(Item("s", seq)) is not None for seq in range(9)
        ]
        assert picks == [True, False, False] * 3

    def test_trace_every_one_samples_everything(self):
        tracer = Telemetry.create(trace_every=1)
        traces = [tracer.admit(Item("s", seq)) for seq in range(5)]
        assert all(trace is not None for trace in traces)
        assert tracer.active_count == 5

    def test_same_cursor_same_picks_across_runs(self):
        def picks():
            tracer = Telemetry.create(trace_every=4)
            return [
                tracer.admit(Item("s", seq)) is not None
                for seq in range(17)
            ]

        assert picks() == picks()


class TestLifecycle:
    def test_complete_feeds_residency_histograms_and_ring(self):
        tracer = Telemetry.create(trace_every=1)
        trace = tracer.admit(Item("s", 0))
        trace.enter(Stage.REORDER, 0)
        trace.exit(Stage.REORDER, 5)
        tracer.complete(trace)
        assert tracer.active_count == 0
        assert len(tracer.completed_rows()) == 1
        assert (tracer.sampled, tracer.finished) == (1, 1)
        histogram = tracer.residency[STAGES.index(Stage.REORDER)]
        assert histogram.count == 1
        assert histogram.total == 5

    def test_lookup_finds_in_flight_traces(self):
        tracer = Telemetry.create(trace_every=1)
        trace = tracer.admit(Item("s", 7))
        assert tracer.lookup("s", 7) is trace
        assert tracer.lookup("s", 8) is None

    def test_discard_counts_per_reason(self):
        tracer = Telemetry.create(trace_every=1)
        tracer.discard(tracer.admit(Item("s", 0)), "shed")
        tracer.discard(tracer.admit(Item("s", 1)), "late")
        tracer.discard(tracer.admit(Item("s", 2)), "shed")
        assert tracer.active_count == 0
        assert tracer.discarded == {"shed": 2, "late": 1}

    def test_ring_is_bounded(self):
        tracer = Telemetry.create(trace_every=1, ring=2)
        for seq in range(5):
            tracer.complete(tracer.admit(Item("s", seq)))
        rows = tracer.completed_rows()
        assert len(rows) == 2
        assert [row[1] for row in rows] == [3, 4]  # newest kept

    def test_ring_must_hold_at_least_one(self):
        with pytest.raises(ObserverError):
            Telemetry.create(trace_every=1, ring=0)

    @pytest.mark.parametrize(
        "field, value",
        [("trace_every", 0.5), ("trace_every", True), ("ring", 1.5), ("ring", True)],
    )
    def test_stage_sizes_must_be_ints(self, field, value):
        with pytest.raises(ObserverError, match=field):
            Telemetry.create(**{"trace_every": 1, field: value})


class TestSnapshotRestore:
    def test_round_trip_restores_cursor_active_ring_and_tallies(self):
        tracer = Telemetry.create(trace_every=2)
        done = tracer.admit(Item("s", 0))  # 1st offer: sampled
        done.stamp_released(0, 3)
        tracer.complete(done)
        assert tracer.admit(Item("s", 1)) is None  # 2nd offer: skipped
        tracer.admit(Item("s", 2))  # 3rd offer: sampled, in flight
        assert tracer.admit(Item("s", 3)) is None  # 4th offer: skipped
        tracer.discard(tracer.admit(Item("s", 4)), "late")  # 5th: sampled
        tracer.observe_step(9)
        snapshot = tracer.snapshot()

        resumed = Telemetry.create(trace_every=2)
        resumed.restore(snapshot)
        assert resumed.snapshot() == snapshot
        assert resumed.now == 9
        assert resumed.completed_rows() == tracer.completed_rows()
        assert resumed.lookup("s", 2) is not None
        assert (resumed.sampled, resumed.finished) == (3, 1)
        assert resumed.discarded == {"late": 1}
        assert [h.counts for h in resumed.residency] == [
            h.counts for h in tracer.residency
        ]
        # Post-restore sampling continues the cursor identically.
        for seq in range(5, 9):
            a = tracer.admit(Item("s", seq)) is not None
            b = resumed.admit(Item("s", seq)) is not None
            assert a == b

    def test_restore_rejects_trace_every_mismatch(self):
        snapshot = Telemetry.create(trace_every=4).snapshot()
        other = Telemetry.create(trace_every=1)
        before = other.snapshot()
        with pytest.raises(ObserverError):
            other.restore(snapshot)
        assert other.snapshot() == before

    def test_restore_rejects_ring_mismatch(self):
        snapshot = Telemetry.create(trace_every=1, ring=8).snapshot()
        other = Telemetry.create(trace_every=1, ring=16)
        with pytest.raises(ObserverError):
            other.restore(snapshot)


class TestTelemetryClock:
    def test_observe_step_is_monotone(self):
        telemetry = Telemetry.create()
        telemetry.observe_step(5)
        telemetry.observe_step(3)  # never rewinds
        assert telemetry.now == 5
        telemetry.observe_step(8)
        assert telemetry.now == 8
