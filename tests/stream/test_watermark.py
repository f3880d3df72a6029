"""Unit tests for per-source watermark tracking and min-merge."""

import pytest

from repro.core.errors import ObserverError
from repro.stream import WatermarkTracker


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

    def test_closed_source_releases_frontier(self):
        tracker = WatermarkTracker(lateness=1)
        tracker.observe("a", 30)
        tracker.observe("b", 6)
        tracker.close("b")
        assert tracker.watermark() == 29
        assert not tracker.all_closed
        tracker.close_all()
        assert tracker.all_closed
        assert tracker.watermark() is None  # flush unconditionally

    def test_observe_after_close_rejected(self):
        tracker = WatermarkTracker(lateness=0)
        tracker.observe("a", 1)
        tracker.close("a")
        with pytest.raises(ObserverError, match="closed"):
            tracker.observe("a", 2)

    def test_negative_lateness_rejected(self):
        with pytest.raises(ObserverError):
            WatermarkTracker(lateness=-1)

    def test_snapshot_restore_round_trip(self):
        tracker = WatermarkTracker(lateness=4)
        tracker.observe("a", 12)
        tracker.observe("b", 30)
        tracker.close("b")
        clone = WatermarkTracker(lateness=4)
        clone.restore(tracker.snapshot())
        assert clone.watermark() == tracker.watermark() == 8
        clone.observe("a", 40)
        assert clone.watermark() == 36


class TestClosedSourceRegistration:
    """Regression: ``register`` on a closed name used to silently no-op,
    making a late joiner *look* watermark-held while it never was."""

    def test_register_closed_source_raises(self):
        tracker = WatermarkTracker(lateness=2)
        tracker.register("a")
        tracker.close("a")
        with pytest.raises(ObserverError, match="cannot be re-registered"):
            tracker.register("a")

    def test_fresh_name_still_registers(self):
        tracker = WatermarkTracker(lateness=2)
        tracker.register("a")
        tracker.close("a")
        tracker.register("a2")
        # The fresh silent source pins the frontier, as registration must.
        assert tracker.watermark() is None

    def test_is_open_and_ensure_open(self):
        tracker = WatermarkTracker(lateness=2)
        tracker.register("a")
        tracker.close("a")
        assert not tracker.is_open("a")
        assert tracker.is_open("b")  # unknown counts open
        tracker.ensure_open(["b", "c"])
        with pytest.raises(ObserverError, match="rejected before any item"):
            tracker.ensure_open(["b", "a"])
