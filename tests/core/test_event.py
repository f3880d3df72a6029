"""Unit tests for events and their classification (Definition 4.1)."""

import pytest

from repro.core.errors import ReproError
from repro.core.event import (
    Event,
    EventLayer,
    PhysicalEvent,
    SpatialClass,
    TemporalClass,
    spatial_class_of,
    temporal_class_of,
)
from repro.core.space_model import Circle, PointLocation
from repro.core.time_model import TimeInterval, TimePoint


def make_event(when, where):
    return Event("test", "e1", when, where, {"v": 1})


class TestClassification:
    def test_punctual_point_event(self):
        event = make_event(TimePoint(5), PointLocation(1, 1))
        assert event.temporal_class is TemporalClass.PUNCTUAL
        assert event.spatial_class is SpatialClass.POINT

    def test_interval_field_event(self):
        event = make_event(
            TimeInterval(TimePoint(1), TimePoint(9)),
            Circle(PointLocation(0, 0), 3),
        )
        assert event.temporal_class is TemporalClass.INTERVAL
        assert event.spatial_class is SpatialClass.FIELD

    def test_classifiers_reject_garbage(self):
        with pytest.raises(ReproError):
            temporal_class_of("yesterday")
        with pytest.raises(ReproError):
            spatial_class_of((1, 2))


class TestEvent:
    def test_attributes_read_only(self):
        event = make_event(TimePoint(0), PointLocation(0, 0))
        with pytest.raises(TypeError):
            event.attributes["v"] = 2


class TestPhysicalEvent:
    def test_fresh_ids_unique(self):
        ids = {PhysicalEvent.fresh_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(i.startswith("P") for i in ids)


class TestEventLayer:
    def test_hierarchy_order(self):
        assert EventLayer.PHYSICAL < EventLayer.OBSERVATION
        assert EventLayer.OBSERVATION < EventLayer.SENSOR
        assert EventLayer.SENSOR < EventLayer.CYBER_PHYSICAL
        assert EventLayer.CYBER_PHYSICAL < EventLayer.CYBER

    def test_observer_descriptions(self):
        assert "mote" in EventLayer.SENSOR.observer_description
        assert "sink" in EventLayer.CYBER_PHYSICAL.observer_description
        assert "control unit" in EventLayer.CYBER.observer_description
