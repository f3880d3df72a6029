"""Unit tests for the ECA baseline engine."""

import pytest

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
        assert triggers[0].rule_name == "hot"
        assert triggers[0].time == TimePoint(5)

    def test_rule_silent_below_threshold(self):
        engine = EcaEngine([EcaRule("hot", "temperature", RelationalOp.GT, 50.0)])
        assert engine.submit(obs(40.0), now=5) == []

    def test_missing_attribute_is_non_match(self):
        engine = EcaEngine([EcaRule("hot", "humidity", RelationalOp.GT, 0.0)])
        assert engine.submit(obs(), now=0) == []

    def test_fired_history(self):
        engine = EcaEngine([EcaRule("hot", "temperature", RelationalOp.GT, 50.0)])
        engine.submit(obs(60.0), now=0)
        engine.submit(obs(70.0), now=1)
        assert len(engine.fired("hot")) == 2
        assert engine.fired("unknown") == []

    def test_fired_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            EcaRule("hot", "temperature", RelationalOp.GT, 50.0, fired=[])

    def test_each_rule_keeps_its_own_history(self):
        hot = EcaRule("hot", "temperature", RelationalOp.GT, 50.0)
        cold = EcaRule("cold", "temperature", RelationalOp.LT, 50.0)
        EcaEngine([hot, cold]).submit(obs(60.0), now=2)
        assert [t.rule_name for t in hot.fired] == ["hot"]
        assert cold.fired == []

    def test_point_semantics_loses_occurrence_time(self):
        # The defining ECA limitation: the trigger time is the processing
        # tick, not the sampling tick carried by the observation.
        engine = EcaEngine([EcaRule("hot", "temperature", RelationalOp.GT, 50.0)])
        trigger = engine.submit(obs(60.0, tick=3), now=9)[0]
        assert trigger.time == TimePoint(9)
        assert trigger.entity.time == TimePoint(3)
