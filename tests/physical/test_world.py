"""Unit tests for the physical world container and ground truth."""

import pytest

from repro.core.errors import ReproError
from repro.core.space_model import BoundingBox, PointLocation
from repro.core.time_model import TimeInterval, TimePoint
from repro.physical.fields import GaussianPlumeField, PlumeSource, UniformField
from repro.physical.ground_truth import (
    exceedance_region,
    intervals_from_predicate,
    make_physical_event,
    proximity_intervals,
    threshold_intervals,
)
from repro.physical.mobility import WaypointTrajectory
from repro.physical.objects import PhysicalObject
from repro.physical.world import PhysicalWorld


def iv(a, b):
    return TimeInterval(TimePoint(a), TimePoint(b))


class TestPhysicalWorld:
    def test_field_registration_and_sampling(self):
        world = PhysicalWorld()
        world.add_field("temperature", UniformField(21.0))
        assert world.sample("temperature", PointLocation(0, 0), 5) == 21.0

    def test_duplicate_field_rejected(self):
        world = PhysicalWorld()
        world.add_field("t", UniformField(1.0))
        with pytest.raises(ReproError):
            world.add_field("t", UniformField(2.0))

    def test_unknown_quantity(self):
        with pytest.raises(ReproError, match="no field registered"):
            PhysicalWorld().sample("pressure", PointLocation(0, 0), 0)

    def test_object_registry(self):
        world = PhysicalWorld()
        obj = PhysicalObject("userA", PointLocation(1, 1))
        world.add_object(obj)
        assert world.object("userA") is obj
        assert world.objects == (obj,)
        with pytest.raises(ReproError):
            world.add_object(PhysicalObject("userA", PointLocation(0, 0)))
        with pytest.raises(ReproError):
            world.object("nobody")

    def test_step_advances_every_field(self):
        world = PhysicalWorld()

        class Probe(UniformField):
            ticks = []

            def step(self, tick):
                Probe.ticks.append(tick)

        world.add_field("t", Probe(1.0))
        world.step(5)
        assert world.tick == 5
        assert Probe.ticks == [5]

    def test_actuation_dispatch(self):
        world = PhysicalWorld()
        seen = []
        world.on_actuation("open", lambda payload, tick: seen.append((payload, tick)))
        world.apply_actuation("open", {"valve": 3}, 7)
        assert seen == [({"valve": 3}, 7)]

    def test_unknown_actuation_rejected(self):
        with pytest.raises(ReproError, match="no actuation handler"):
            PhysicalWorld().apply_actuation("fly", {}, 0)

    def test_ground_truth_log(self):
        world = PhysicalWorld()
        event = make_physical_event("fire", TimePoint(3), PointLocation(0, 0))
        world.record_ground_truth(event)
        assert world.ground_truth == (event,)


class TestIntervalExtraction:
    def test_intervals_from_predicate(self):
        active = {3, 4, 5, 9, 10}
        intervals = intervals_from_predicate(lambda t: t in active, 0, 12)
        assert intervals == [iv(3, 5), iv(9, 10)]

    def test_open_run_closed_at_horizon(self):
        intervals = intervals_from_predicate(lambda t: t >= 8, 0, 10)
        assert intervals == [iv(8, 10)]

    def test_never_true(self):
        assert intervals_from_predicate(lambda t: False, 0, 10) == []

    def test_proximity_intervals_from_trajectory(self):
        user = PhysicalObject(
            "userA",
            WaypointTrajectory(
                [
                    (0, PointLocation(0, 0)),
                    (10, PointLocation(10, 0)),
                    (20, PointLocation(0, 0)),
                ]
            ),
        )
        window = PhysicalObject("windowB", PointLocation(10, 0))
        intervals = proximity_intervals(user, window, radius=3.0, start=0, end=20)
        assert len(intervals) == 1
        interval = intervals[0]
        # The user is within 3 m of the window from tick 7 through 13.
        assert interval.start == TimePoint(7)
        assert interval.end == TimePoint(13)

    def test_threshold_intervals(self):
        field = GaussianPlumeField(
            base=20.0,
            sources=[PlumeSource(PointLocation(0, 0), 100.0, 5.0, start=5, end=9)],
        )
        intervals = threshold_intervals(
            field, PointLocation(0, 0), threshold=60.0, start=0, end=15
        )
        assert intervals == [iv(5, 9)]


class TestExceedanceRegion:
    def test_region_covers_hot_area(self):
        field = GaussianPlumeField(
            base=20.0, sources=[PlumeSource(PointLocation(5, 5), 100.0, 2.0)]
        )
        region = exceedance_region(
            field, BoundingBox(0, 0, 10, 10), threshold=60.0, tick=0,
            resolution=30,
        )
        assert region is not None
        assert region.contains_point(PointLocation(5, 5))
        assert not region.contains_point(PointLocation(0.5, 0.5))

    def test_no_exceedance_returns_none(self):
        field = UniformField(20.0)
        assert exceedance_region(
            field, BoundingBox(0, 0, 10, 10), threshold=50.0, tick=0
        ) is None


class TestMakePhysicalEvent:
    def test_packaging(self):
        event = make_physical_event(
            "fire", iv(1, 9), PointLocation(2, 2), {"peak": 400.0}
        )
        assert event.kind == "fire"
        assert event.occurrence_time == iv(1, 9)
        assert event.attribute("peak") == 400.0
        assert event.event_id.startswith("P")
