"""Unit tests for the ECA baseline engine."""

from repro.baselines.eca import EcaEngine, EcaRule
from repro.core.instance import PhysicalObservation
from repro.core.operators import RelationalOp
from repro.core.space_model import PointLocation
from repro.core.time_model import TimePoint


def obs(value=60.0, tick=0):
    return PhysicalObservation(
        "MT1", "SR1", 0, TimePoint(tick), PointLocation(0, 0),
        {"temperature": value},
    )


class TestEcaEngine:
    def test_rule_fires_on_single_entity(self):
        engine = EcaEngine([EcaRule("hot", "temperature", RelationalOp.GT, 50.0)])
        triggers = engine.submit(obs(60.0), now=5)
        assert len(triggers) == 1
        assert triggers[0].time == TimePoint(5)

    def test_rule_silent_below_threshold(self):
        engine = EcaEngine([EcaRule("hot", "temperature", RelationalOp.GT, 50.0)])
        assert engine.submit(obs(40.0), now=5) == []

    def test_missing_attribute_is_non_match(self):
        engine = EcaEngine([EcaRule("hot", "humidity", RelationalOp.GT, 0.0)])
        assert engine.submit(obs(), now=0) == []

    def test_one_trigger_per_matching_rule(self):
        hot = EcaRule("hot", "temperature", RelationalOp.GT, 50.0)
        warm = EcaRule("warm", "temperature", RelationalOp.GT, 20.0)
        cold = EcaRule("cold", "temperature", RelationalOp.LT, 50.0)
        engine = EcaEngine([hot, cold, warm])
        assert len(engine.submit(obs(60.0), now=2)) == 2
        (trigger,) = engine.submit(obs(10.0), now=3)
        assert trigger.time == TimePoint(3)

    def test_point_semantics_loses_occurrence_time(self):
        # The defining ECA limitation: the trigger time is the processing
        # tick, not the sampling tick carried by the observation.
        engine = EcaEngine([EcaRule("hot", "temperature", RelationalOp.GT, 50.0)])
        trigger = engine.submit(obs(60.0, tick=3), now=9)[0]
        assert trigger.time == TimePoint(9)
        assert trigger.entity.time == TimePoint(3)
