"""Integration tests: the paper's worked examples, executed.

Each test implements one example from Sections 1, 4 and 5 of the paper
and checks the model produces exactly the behaviour the text describes.
"""

import pytest

from repro.core.composite import all_of
from repro.core.conditions import (
    AttributeCondition,
    AttributeTerm,
    SpatialCondition,
    SpatialMeasureCondition,
    TemporalCondition,
    LocationOf,
    TimeOf,
)
from repro.core.event import SpatialClass, TemporalClass
from repro.core.instance import PhysicalObservation
from repro.core.operators import RelationalOp, SpatialOp, TemporalOp
from repro.core.space_model import Circle, PointLocation, Polygon, convex_hull
from repro.core.spec import EntitySelector, EventSpecification, OutputPolicy
from repro.core.time_model import TimeInterval, TimePoint
from repro.detect.engine import DetectionEngine
from repro.detect.interval_builder import IntervalBuilder
from repro.physical.ground_truth import proximity_intervals
from repro.physical.mobility import WaypointTrajectory
from repro.physical.objects import PhysicalObject


def obs(mote, tick, x, y, **attrs):
    return PhysicalObservation(
        mote, "SR", 0, TimePoint(tick), PointLocation(x, y), attrs
    )


class TestConditionS1:
    """Section 4.1: "every instance of physical observation x occurs
    before physical observation y and the distance between location of
    x and the location of y is less than 5 meters" (motes MT1, MT2)."""

    def s1(self):
        return all_of(
            TemporalCondition(TimeOf("x"), TemporalOp.BEFORE, TimeOf("y")),
            SpatialMeasureCondition("distance", ("x", "y"), RelationalOp.LT, 5.0),
        )

    def test_satisfied(self):
        binding = {
            "x": obs("MT1", 10, 0.0, 0.0, v=1),
            "y": obs("MT2", 12, 3.0, 0.0, v=1),
        }
        assert self.s1().evaluate(binding)

    def test_violated_on_time(self):
        binding = {
            "x": obs("MT1", 12, 0.0, 0.0, v=1),
            "y": obs("MT2", 10, 3.0, 0.0, v=1),
        }
        assert not self.s1().evaluate(binding)

    def test_violated_on_space(self):
        binding = {
            "x": obs("MT1", 10, 0.0, 0.0, v=1),
            "y": obs("MT2", 12, 30.0, 0.0, v=1),
        }
        assert not self.s1().evaluate(binding)

    def test_notation_renders_like_paper(self):
        text = self.s1().describe()
        assert "t(x) before t(y)" in text
        assert "distance(l(x), l(y)) < 5" in text


class TestOffsetExample:
    """Section 4.1: "every event instance of event x must occur AFTER 5
    time units Before event y": t_x + 5 Before t_y."""

    def test_offset_semantics(self):
        condition = TemporalCondition(
            TimeOf("x", offset=5), TemporalOp.BEFORE, TimeOf("y")
        )
        assert condition.evaluate(
            {"x": obs("MT1", 10, 0, 0), "y": obs("MT2", 16, 0, 0)}
        )
        assert not condition.evaluate(
            {"x": obs("MT1", 10, 0, 0), "y": obs("MT2", 15, 0, 0)}
        )


class TestInsideExample:
    """Section 4.1: "every event instance of event x must occur Inside
    event y": l_x Inside l_y."""

    def test_point_inside_field_event(self):
        condition = SpatialCondition(
            LocationOf("x"), SpatialOp.INSIDE, LocationOf("y")
        )
        from repro.core.instance import EventInstance, ObserverId, ObserverKind
        from repro.core.event import EventLayer

        field_event = EventInstance(
            observer=ObserverId(ObserverKind.SINK_NODE, "S"),
            event_id="zone", seq=0,
            generated_time=TimePoint(0),
            generated_location=PointLocation(0, 0),
            estimated_time=TimePoint(0),
            estimated_location=Circle(PointLocation(0, 0), 10.0),
            layer=EventLayer.CYBER_PHYSICAL,
        )
        assert condition.evaluate(
            {"x": obs("MT1", 1, 2.0, 2.0), "y": field_event}
        )
        assert not condition.evaluate(
            {"x": obs("MT1", 1, 20.0, 2.0), "y": field_event}
        )


class TestNearbyWindowExample:
    """Sections 1 and 4.2: "user A is nearby window B for the last 30
    minutes" — the same physical episode is a punctual event (the
    entering) or an interval event (entering .. leaving), depending on
    the end-user definition."""

    RADIUS = 5.0

    def episode(self):
        window_pos = PointLocation(10, 0)
        user = PhysicalObject(
            "userA",
            WaypointTrajectory(
                [
                    (0, PointLocation(-40, 0)),     # far away
                    (100, window_pos),              # approaches
                    (400, window_pos),              # lingers
                    (450, PointLocation(-40, 0)),   # leaves
                ]
            ),
        )
        window = PhysicalObject("windowB", window_pos)
        return user, window

    def ground_truth(self):
        user, window = self.episode()
        intervals = proximity_intervals(user, window, self.RADIUS, 0, 600)
        assert len(intervals) == 1
        return intervals[0]

    def closed_intervals(self):
        """Feed the nearby predicate tick by tick; return what closes."""
        user, window = self.episode()
        builder = IntervalBuilder()
        closed = []
        for tick in range(0, 600):
            near = user.distance_to(window, tick) <= self.RADIUS
            interval = builder.update(near, tick)
            if interval is not None:
                closed.append(interval)
        return closed

    def test_punctual_reading(self):
        """Punctual: the instant the user is detected entering."""
        user, window = self.episode()
        entered = next(
            TimePoint(tick)
            for tick in range(0, 600)
            if user.distance_to(window, tick) <= self.RADIUS
        )
        assert entered == self.ground_truth().start
        assert self.closed_intervals()[0].start == entered

    def test_interval_reading(self):
        """Interval: starts on entering, ends on leaving."""
        assert self.closed_intervals() == [self.ground_truth()]

    def test_for_the_last_30_minutes_query(self):
        """The 'for the last 30 minutes' condition first holds
        ``threshold`` ticks into the interval event, which is reported
        whole once the user leaves."""
        user, window = self.episode()
        threshold = 250
        held_since = first_satisfied = None
        for tick in range(0, 600):
            if user.distance_to(window, tick) > self.RADIUS:
                held_since = None
                continue
            if held_since is None:
                held_since = tick
            if tick - held_since >= threshold and first_satisfied is None:
                first_satisfied = tick
        (interval,) = self.closed_intervals()
        assert interval.duration >= threshold
        assert first_satisfied == interval.start.tick + threshold

    def test_classification_of_the_two_readings(self):
        truth = self.ground_truth()
        assert truth.start is not None
        punctual_time = truth.start
        interval_time = truth
        from repro.core.event import temporal_class_of

        assert temporal_class_of(punctual_time) is TemporalClass.PUNCTUAL
        assert temporal_class_of(interval_time) is TemporalClass.INTERVAL


class TestFieldEventConstruction:
    """Section 4.2: a field event 'is made of at least 2 or more point
    events' — a field occurrence arises from multiple point detections."""

    def test_field_from_point_events(self):
        spec = EventSpecification(
            event_id="hot_zone",
            selectors={
                "a": EntitySelector(kinds={"t"}),
                "b": EntitySelector(kinds={"t"}),
                "c": EntitySelector(kinds={"t"}),
            },
            condition=all_of(
                AttributeCondition(
                    "min",
                    (
                        AttributeTerm("a", "t"),
                        AttributeTerm("b", "t"),
                        AttributeTerm("c", "t"),
                    ),
                    RelationalOp.GT,
                    50.0,
                ),
                TemporalCondition(TimeOf("a"), TemporalOp.BEFORE, TimeOf("c")),
            ),
            window=20,
            output=OutputPolicy(time="span", space="hull"),
        )
        engine = DetectionEngine([spec])
        engine.submit(obs("MT1", 1, 0.0, 0.0, t=60.0), now=1)
        engine.submit(obs("MT2", 2, 10.0, 0.0, t=61.0), now=2)
        matches = engine.submit(obs("MT3", 3, 5.0, 8.0, t=62.0), now=3)
        assert matches
        from repro.detect.output import build_instance
        from repro.core.instance import ObserverId, ObserverKind
        from repro.core.event import EventLayer

        instance = build_instance(
            matches[0],
            ObserverId(ObserverKind.SINK_NODE, "S1"),
            0,
            TimePoint(4),
            PointLocation(0, 0),
            EventLayer.CYBER_PHYSICAL,
        )
        # A field event over an interval: both classifications flip.
        assert instance.spatial_class is SpatialClass.FIELD
        assert instance.temporal_class is TemporalClass.INTERVAL
        assert isinstance(instance.estimated_location, Polygon)
        assert instance.estimated_time == TimeInterval(TimePoint(1), TimePoint(3))
        # The hull must cover the reporting motes' positions.
        for x, y in ((0, 0), (10, 0), (5, 8)):
            assert instance.estimated_location.contains_point(
                PointLocation(x, y)
            )


class TestAverageExample:
    """Section 4.1: "The average attribute of physical observation x and
    y is Greater than C" — Average(Vx, Vy) > C."""

    def test_average_condition(self):
        condition = AttributeCondition(
            "average",
            (AttributeTerm("x", "v"), AttributeTerm("y", "v")),
            RelationalOp.GT,
            50.0,
        )
        assert condition.evaluate(
            {"x": obs("MT1", 1, 0, 0, v=40.0), "y": obs("MT2", 2, 1, 0, v=70.0)}
        )
        assert not condition.evaluate(
            {"x": obs("MT1", 1, 0, 0, v=40.0), "y": obs("MT2", 2, 1, 0, v=50.0)}
        )
