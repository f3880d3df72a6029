"""E3/E4/E5 — the paper's worked examples as measurable experiments.

* E3: "user A is nearby window B" read punctually and as an interval
  (Section 4.2), scored against ground truth;
* E4: composite condition S1 (Section 4.1) throughput and correctness;
* E5: field event construction from point events (Section 4.2), scored
  as IoU against the true burning region.

E3 and E5 also assert Section 4.2's classification of what they read:
punctual or interval in time, point or field in space.
"""

import pytest

from repro.core.composite import all_of
from repro.core.conditions import (
    SpatialMeasureCondition,
    TemporalCondition,
    TimeOf,
)
from repro.core.event import Event, SpatialClass, TemporalClass
from repro.core.instance import PhysicalObservation
from repro.core.operators import RelationalOp, TemporalOp
from repro.core.space_model import PointLocation
from repro.core.time_model import TimePoint
from repro.metrics import interval_iou, region_iou
from repro.physical import proximity_intervals
from repro.workloads import build_scenario


class TestE3NearbyWindow:
    def test_punctual_and_interval_readings(self, benchmark, report):
        def run():
            scenario = build_scenario("smart_building", "medium", seed=5)
            scenario.system.run(until=scenario.params["horizon"])
            return scenario

        scenario = benchmark.pedantic(run, rounds=1, iterations=1)
        truth = proximity_intervals(
            scenario.handles["user"], scenario.handles["window"],
            scenario.params["nearby_radius"], 0, scenario.params["horizon"],
        )
        detected = [
            i
            for m in scenario.system.motes.values()
            for i in m.emitted
            if i.event_id == "user_nearby" and i.attribute("phase") == "closed"
        ]
        assert truth and detected
        best_iou = max(
            interval_iou(d.estimated_time, truth[0]) for d in detected
        )
        start_errors = [
            abs(d.estimated_time.start.tick - truth[0].start.tick)
            for d in detected
        ]
        window = scenario.handles["window"].position(0)
        enter = Event("user_nearby", "enter", truth[0].start, window)
        stay = Event("user_nearby", "stay", truth[0], window)
        classes = {d.temporal_class for d in detected}
        report(
            "",
            "[E3] 'user A nearby window B' (punctual enter + interval stay)",
            f"  ground-truth interval        : {truth[0]!r}",
            f"  motes reporting the interval : {len(detected)}",
            f"  best interval IoU            : {best_iou:.2f}",
            f"  enter-detection error (min)  : {min(start_errors)} ticks",
            f"  classes (enter / stay / motes): {enter.temporal_class.value}"
            f" / {stay.temporal_class.value} / "
            f"{', '.join(sorted(c.value for c in classes))}",
            f"  HVAC commands                : "
            f"{len(scenario.handles['hvac_commands'])}",
        )
        assert best_iou > 0.8
        assert scenario.handles["hvac_commands"]
        # The two readings of one occurrence (Section 4.2): the enter
        # instant is punctual, the stay and every mote's report interval.
        assert enter.temporal_class is TemporalClass.PUNCTUAL
        assert stay.temporal_class is TemporalClass.INTERVAL
        assert classes == {TemporalClass.INTERVAL}


class TestE4ConditionS1:
    def make_condition(self):
        return all_of(
            TemporalCondition(TimeOf("x"), TemporalOp.BEFORE, TimeOf("y")),
            SpatialMeasureCondition(
                "distance", ("x", "y"), RelationalOp.LT, 5.0
            ),
        )

    def test_s1_evaluation_throughput(self, benchmark, report, scale):
        condition = self.make_condition()
        count = scale(500, 100)
        pairs = []
        for index in range(count):
            a = PhysicalObservation(
                "MT1", "SR", index, TimePoint(index),
                PointLocation(index % 7, 0.0), {"v": 1.0},
            )
            b = PhysicalObservation(
                "MT2", "SR", index, TimePoint(index + index % 3),
                PointLocation(index % 7 + (index % 10) * 0.7, 0.0), {"v": 1.0},
            )
            pairs.append({"x": a, "y": b})

        def evaluate_all():
            return sum(1 for binding in pairs if condition.evaluate(binding))

        positives = benchmark(evaluate_all)
        report(
            "",
            f"[E4] composite condition S1 over {count} observation pairs",
            f"  satisfied bindings : {positives}/{count}",
            f"  (timing row: full {count}-pair evaluation pass)",
        )
        assert 0 < positives < count  # both outcomes exercised


class TestE5FieldEvent:
    def test_field_event_from_point_events(self, benchmark, report):
        def run():
            scenario = build_scenario(
                "forest_fire", "medium", seed=17, suppress=False, horizon=600,
            )
            scenario.system.run(until=600)
            return scenario

        scenario = benchmark.pedantic(run, rounds=1, iterations=1)
        fire = scenario.handles["fire"]
        truth = fire.affected_region()
        suspected = [
            i
            for s in scenario.system.sinks.values()
            for i in s.emitted
            if i.event_id == "fire_suspected"
        ]
        field_events = [
            i for i in suspected if i.spatial_class is SpatialClass.FIELD
        ]
        reports = {
            i.spatial_class
            for m in scenario.system.motes.values()
            for i in m.emitted
        }
        report(
            "",
            "[E5] field events from >= 2 point events (forest fire)",
            f"  fire_suspected field events : {len(field_events)}"
            f" of {len(suspected)}",
            f"  mote report classes         : "
            f"{', '.join(sorted(c.value for c in reports))}",
        )
        assert field_events, "no field event constructed"
        # Point events in, field events out (Section 4.2).
        assert reports == {SpatialClass.POINT}
        assert truth is not None
        burn = Event("fire", "burn", TimePoint(600), truth)
        assert burn.spatial_class is SpatialClass.FIELD
        ious = [
            region_iou(e.estimated_location, truth) for e in field_events
        ]
        contained = [
            truth.intersects(e.estimated_location) for e in field_events
        ]
        report(
            f"  fire-affected region area   : {truth.area():.0f}",
            f"  best IoU vs truth           : {max(ious):.2f}",
            f"  estimates intersecting truth: "
            f"{sum(contained)}/{len(contained)}",
        )
        # The hull of three motes underestimates the full burn; what
        # must hold is that every estimate lies on the real fire.
        assert all(contained)
        assert max(ious) > 0.0
