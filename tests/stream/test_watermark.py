"""Unit tests for per-source watermark tracking and min-merge."""

import pytest

from repro.core.errors import ObserverError
from repro.detect.engine import DetectionEngine
from repro.stream import StreamingDetectionRuntime, WatermarkTracker
from repro.stream.watermark import WatermarkSnapshot


class TestWatermarkTracker:
    def test_single_source_low_watermark(self):
        tracker = WatermarkTracker(lateness=3)
        assert tracker.watermark() is None
        tracker.observe("a", 10)
        assert tracker.watermark() == 7
        tracker.observe("a", 4)  # older arrival never regresses progress
        assert tracker.watermark() == 7

    def test_min_merge_across_sources(self):
        tracker = WatermarkTracker(lateness=2)
        tracker.observe("a", 20)
        tracker.observe("b", 9)
        assert tracker.watermark() == 7  # slowest source holds the frontier

    def test_registered_silent_source_pins_frontier(self):
        tracker = WatermarkTracker(lateness=0)
        tracker.register("late-joiner")
        tracker.observe("a", 50)
        assert tracker.watermark() is None
        tracker.observe("late-joiner", 5)
        assert tracker.watermark() == 5

    def test_end_of_stream_leaves_no_frontier(self):
        tracker = WatermarkTracker(lateness=1)
        tracker.observe("a", 30)
        tracker.observe("b", 6)
        assert tracker.watermark() == 5
        tracker.end()
        assert tracker.ended
        assert tracker.watermark() is None  # flush unconditionally

    def test_register_after_the_end_rejected(self):
        tracker = WatermarkTracker(lateness=0)
        tracker.register("a")
        tracker.end()
        for name in ("a", "b"):
            with pytest.raises(ObserverError, match="stream has ended"):
                tracker.register(name)
        assert tracker.snapshot() == WatermarkSnapshot(0, {"a": None}, True)

    @pytest.mark.parametrize(
        "lateness",
        [-1, 1.5, 2.0, True],
        ids=["negative", "fraction", "float", "bool"],
    )
    def test_lateness_must_be_a_non_negative_int(self, lateness):
        # A fractional bound would release at fractional watermarks
        # (ticks 5 and 9 under 1.5 read 7.5).
        with pytest.raises(ObserverError, match="lateness"):
            WatermarkTracker(lateness=lateness)
        with pytest.raises(ObserverError, match="lateness"):
            StreamingDetectionRuntime(DetectionEngine(), lateness=lateness)

    def test_snapshot_restore_round_trip(self):
        tracker = WatermarkTracker(lateness=4)
        tracker.observe("a", 12)
        tracker.observe("b", 30)
        clone = WatermarkTracker(lateness=4)
        clone.restore(tracker.snapshot())
        assert clone.watermark() == tracker.watermark() == 8
        clone.observe("a", 40)
        assert clone.watermark() == 26
        tracker.end()
        clone.restore(tracker.snapshot())
        assert clone.ended and clone.watermark() is None
