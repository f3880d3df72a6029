"""E8 — what the related-work baselines miss (Section 2, executed).

A synthetic "intrusion" workload requires *both* capabilities the CPS
event model adds over its predecessors:

* interval semantics — the target event is a motion *during* a
  door-open interval (not merely after its detection point);
* spatial constraints — the motion must be in the *same zone* as the
  door; a simultaneous motion in a distant zone is a coincidence.

Episodes deliberately include both confounders: same-zone motions
outside the interval (temporal decoys) and during-interval motions in
the far zone (spatial decoys).  Every engine sees the same stream:

* full spatio-temporal model  -> should score precision = recall = 1;
* SnoopIB (intervals, no space) -> full recall, loses precision to the
  spatial decoys;
* Snoop (points, no space)      -> also loses precision to temporal
  decoys (conjunction cannot express During);
* ECA (single source)           -> fires on every motion;
* RTL (point deadlines)         -> approximates During with a fixed
  post-door-start window, so it both misses and false-alarms.

Expected shape: a strict precision ordering
full > SnoopIB > Snoop > ECA, with full recall everywhere except RTL.
"""

import random

import pytest

from repro.baselines.eca import EcaEngine, EcaRule
from repro.baselines.snoop import Conj, Primitive, SnoopEngine
from repro.baselines.snoopib import (
    IntervalPrimitive,
    IntervalRelation,
    SnoopIBEngine,
)
from repro.core.composite import all_of
from repro.core.conditions import (
    SpatialMeasureCondition,
    TemporalCondition,
    TimeOf,
)
from repro.core.event import EventLayer
from repro.core.instance import EventInstance, ObserverId, ObserverKind
from repro.core.operators import RelationalOp, TemporalOp
from repro.core.space_model import PointLocation
from repro.core.spec import EntitySelector, EventSpecification
from repro.core.time_model import TemporalRelation, TimeInterval, TimePoint
from repro.detect.engine import DetectionEngine

ZONE_A = PointLocation(0.0, 0.0)
ZONE_B = PointLocation(500.0, 0.0)
MOTE = ObserverId(ObserverKind.SENSOR_MOTE, "MT")


def door_instance(seq, start, end, zone):
    return EventInstance(
        observer=MOTE, event_id="door_open", seq=seq,
        generated_time=TimePoint(end + 1),
        generated_location=zone,
        estimated_time=TimeInterval(TimePoint(start), TimePoint(end)),
        estimated_location=zone,
        layer=EventLayer.SENSOR,
    )


def motion_instance(seq, tick, zone):
    return EventInstance(
        observer=MOTE, event_id="motion", seq=seq,
        generated_time=TimePoint(tick),
        generated_location=zone,
        estimated_time=TimePoint(tick),
        estimated_location=zone,
        attributes={"motion": 1.0},
        layer=EventLayer.SENSOR,
    )


def build_workload(episodes=60, seed=3):
    """Returns (entities time-ordered, true motion ticks)."""
    rng = random.Random(seed)
    entities = []
    true_motions = set()
    tick = 0
    seq = 0
    for _ in range(episodes):
        tick += rng.randint(30, 60)
        zone = ZONE_A if rng.random() < 0.5 else ZONE_B
        other = ZONE_B if zone is ZONE_A else ZONE_A
        duration = rng.randint(20, 60)
        start, end = tick, tick + duration
        entities.append(("door", door_instance(seq, start, end, zone)))
        # 1) the true event: same-zone motion during the interval
        inside = rng.randint(start + 1, end - 1)
        entities.append(("motion", motion_instance(seq, inside, zone)))
        true_motions.add(inside)
        seq += 1
        # 2) spatial decoy: far-zone motion during the interval
        if rng.random() < 0.6:
            decoy = rng.randint(start + 1, end - 1)
            entities.append(("motion", motion_instance(seq, decoy, other)))
            seq += 1
        # 3) temporal decoy: same-zone motion after the door closed
        if rng.random() < 0.6:
            late = end + rng.randint(5, 15)
            entities.append(("motion", motion_instance(seq, late, zone)))
            seq += 1
        tick = end
    entities.sort(key=lambda pair: (
        pair[1].estimated_time.start.tick
        if isinstance(pair[1].estimated_time, TimeInterval)
        else pair[1].estimated_time.tick
    ))
    return entities, true_motions


def score(detected_motion_ticks, true_motions, total_motions):
    tp = len(detected_motion_ticks & true_motions)
    fp = len(detected_motion_ticks - true_motions)
    fn = len(true_motions - detected_motion_ticks)
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def run_full_model(entities):
    spec = EventSpecification(
        event_id="intrusion",
        selectors={
            "m": EntitySelector(kinds={"motion"}),
            "d": EntitySelector(kinds={"door_open"}),
        },
        condition=all_of(
            TemporalCondition(TimeOf("m"), TemporalOp.WITHIN, TimeOf("d")),
            SpatialMeasureCondition("distance", ("m", "d"), RelationalOp.LT, 5.0),
        ),
        window=200,
    )
    engine = DetectionEngine([spec])
    detected = set()

    def submitted_at(entity):
        # An interval entity is only fully known when it closes, so its
        # submission tick is the interval end; iterating in submission
        # order keeps the engine's clock monotone (the engine now
        # rejects regressing ticks — the workload list is sorted by
        # *start* tick, which is not the same order).
        return (
            entity.estimated_time.end.tick
            if isinstance(entity.estimated_time, TimeInterval)
            else entity.estimated_time.tick
        )

    for entity in sorted(
        (entity for _, entity in entities), key=submitted_at
    ):
        for match in engine.submit(entity, submitted_at(entity)):
            detected.add(match.binding["m"].estimated_time.tick)
    return detected


def run_snoopib(entities):
    engine = SnoopIBEngine(
        IntervalRelation(
            IntervalPrimitive("motion"),
            IntervalPrimitive("door"),
            {TemporalRelation.DURING},
        )
    )
    detected = set()
    for name, entity in entities:
        when = entity.estimated_time
        if isinstance(when, TimeInterval):
            completions = engine.submit(name, when.start.tick, when.end.tick)
        else:
            completions = engine.submit(name, when.tick)
        for occurrence in completions:
            for c_name, c_interval in occurrence.constituents:
                if c_name == "motion":
                    detected.add(c_interval.start.tick)
    return detected


def run_snoop(entities):
    engine = SnoopEngine(
        Conj(Primitive("motion"), Primitive("door")), context="recent"
    )
    detected = set()
    for name, entity in entities:
        when = entity.estimated_time
        tick = when.end.tick if isinstance(when, TimeInterval) else when.tick
        for occurrence in engine.submit(name, tick):
            for c_name, c_time in occurrence.constituents:
                if c_name == "motion":
                    detected.add(c_time.tick)
    return detected


def run_eca(entities):
    engine = EcaEngine(
        [EcaRule("motion_seen", "motion", RelationalOp.GE, 1.0)]
    )
    detected = set()
    for _, entity in entities:
        when = entity.estimated_time
        tick = when.end.tick if isinstance(when, TimeInterval) else when.tick
        for trigger in engine.submit(entity, tick):
            detected.add(trigger.time.tick)
    return detected


def run_rtl(entities, window=40):
    """RTL approximation: motion within `window` ticks after door start.

    Written out by hand rather than through
    :class:`~repro.baselines.rtl.RtlMonitor`: the monitor names the i-th
    occurrence of each event, so "some door start" would need one
    constraint pair per (door, motion) pair.
    """
    detected = set()
    door_starts = [
        e.estimated_time.start.tick
        for name, e in entities
        if name == "door"
    ]
    for name, entity in entities:
        if name != "motion":
            continue
        tick = entity.estimated_time.tick
        if any(0 <= tick - start <= window for start in door_starts):
            detected.add(tick)
    return detected


class TestE8BaselineComparison:
    def test_expressiveness_gap(self, benchmark, report, scale):
        entities, true_motions = build_workload(episodes=scale(60, 20))
        total_motions = sum(1 for name, _ in entities if name == "motion")

        def run_all():
            return {
                "full spatio-temporal": run_full_model(entities),
                "SnoopIB (intervals)": run_snoopib(entities),
                "Snoop (points)": run_snoop(entities),
                "RTL (deadlines)": run_rtl(entities),
                "ECA (single src)": run_eca(entities),
            }

        results = benchmark.pedantic(run_all, rounds=1, iterations=1)
        rows = [
            "",
            "[E8] detection quality vs related-work baselines",
            f"  workload: {len(true_motions)} true events, "
            f"{total_motions} motions total",
            f"  {'engine':<24}{'precision':>10}{'recall':>8}{'F1':>7}",
        ]
        scores = {}
        for engine_name, detected in results.items():
            precision, recall, f1 = score(detected, true_motions, total_motions)
            scores[engine_name] = (precision, recall, f1)
            rows.append(
                f"  {engine_name:<24}{precision:>10.2f}{recall:>8.2f}{f1:>7.2f}"
            )
        report(*rows)

        full = scores["full spatio-temporal"]
        assert full[0] == 1.0 and full[1] == 1.0
        # Interval semantics beat point semantics; space beats no space.
        assert scores["SnoopIB (intervals)"][0] > scores["Snoop (points)"][0]
        assert full[0] > scores["SnoopIB (intervals)"][0]
        assert scores["Snoop (points)"][0] >= scores["ECA (single src)"][0]
        # Every non-spatial baseline keeps full recall except RTL's
        # fixed-window approximation, which also drops events.
        assert scores["SnoopIB (intervals)"][1] == 1.0
        assert scores["ECA (single src)"][1] == 1.0
        assert scores["RTL (deadlines)"][1] < 1.0
