"""Unit tests for sensors, actuators and action rules."""

import random

import pytest

from repro.core.errors import ComponentError
from repro.core.event import EventLayer
from repro.core.instance import EventInstance, ObserverId, ObserverKind
from repro.core.space_model import PointLocation
from repro.core.time_model import TimePoint
from repro.cps.actions import ActionRule, ActuatorCommand
from repro.cps.actuator import Actuator
from repro.cps.sensor import RangeSensor, Sensor
from repro.physical.fields import UniformField
from repro.physical.mobility import WaypointTrajectory
from repro.physical.objects import PhysicalObject
from repro.physical.world import PhysicalWorld

HERE = PointLocation(0, 0)


def world_with_temp(value=20.0):
    world = PhysicalWorld()
    world.add_field("temperature", UniformField(value))
    return world


class TestSensor:
    def test_noise_free_sample(self):
        sensor = Sensor("SR1", "temperature", random.Random(0))
        obs = sensor.sample(world_with_temp(21.0), "MT1", HERE, 5)
        assert obs is not None
        assert obs.value("temperature") == 21.0
        assert obs.time == TimePoint(5)
        assert obs.location == HERE
        assert obs.key == ("MT1", "SR1", 0)

    @pytest.mark.parametrize("value", [21.37, -3.3, 0.001])
    def test_noise_free_sample_is_the_true_value(self, value):
        # No offset and no quantization: the reading is the field's value.
        sensor = Sensor("SR1", "temperature", random.Random(0))
        obs = sensor.sample(world_with_temp(value), "MT1", HERE, 0)
        assert obs.value("temperature") == value

    def test_sequence_numbers_increment(self):
        sensor = Sensor("SR1", "temperature", random.Random(0))
        world = world_with_temp()
        first = sensor.sample(world, "MT1", HERE, 0)
        second = sensor.sample(world, "MT1", HERE, 1)
        assert (first.seq, second.seq) == (0, 1)

    def test_gaussian_noise_statistics(self):
        sensor = Sensor(
            "SR1", "temperature", random.Random(1), noise_sigma=2.0
        )
        world = world_with_temp(50.0)
        values = [
            sensor.sample(world, "MT1", HERE, t).value("temperature")
            for t in range(500)
        ]
        mean = sum(values) / len(values)
        assert abs(mean - 50.0) < 0.5
        assert any(abs(v - 50.0) > 1.0 for v in values)

    def test_failure_probability(self):
        sensor = Sensor(
            "SR1", "temperature", random.Random(2), failure_probability=0.5
        )
        world = world_with_temp()
        outcomes = [
            sensor.sample(world, "MT1", HERE, t) is None for t in range(200)
        ]
        assert 0.3 < sum(outcomes) / len(outcomes) < 0.7

    def test_validation(self):
        with pytest.raises(ComponentError):
            Sensor("S", "t", random.Random(0), noise_sigma=-1)
        with pytest.raises(ComponentError):
            Sensor("S", "t", random.Random(0), failure_probability=1.0)


class TestRangeSensor:
    def make_world(self):
        world = PhysicalWorld()
        world.add_object(
            PhysicalObject(
                "userA",
                WaypointTrajectory(
                    [(0, PointLocation(3, 4)), (10, PointLocation(30, 40))]
                ),
            )
        )
        return world

    def test_measures_distance(self):
        sensor = RangeSensor("SRr", "userA", random.Random(0))
        obs = sensor.sample(self.make_world(), "MT1", HERE, 0)
        assert obs.value("range:userA") == pytest.approx(5.0)

    def test_out_of_range_yields_nothing(self):
        sensor = RangeSensor("SRr", "userA", random.Random(0), max_range=10.0)
        world = self.make_world()
        assert sensor.sample(world, "MT1", HERE, 0) is not None
        assert sensor.sample(world, "MT1", HERE, 10) is None  # user far away

    def test_noise_never_negative(self):
        sensor = RangeSensor("SRr", "userA", random.Random(3), noise_sigma=5.0)
        world = PhysicalWorld()
        world.add_object(PhysicalObject("userA", PointLocation(0.1, 0)))
        values = [
            sensor.sample(world, "MT1", HERE, t).value("range:userA")
            for t in range(100)
        ]
        assert all(v >= 0.0 for v in values)

    def test_validation(self):
        with pytest.raises(ComponentError):
            RangeSensor("S", "userA", random.Random(0), max_range=0.0)


class TestActuator:
    def test_executes_registered_handler(self):
        world = PhysicalWorld()
        log = []
        world.on_actuation("open", lambda payload, tick: log.append((payload, tick)))
        actuator = Actuator("AR1", "open")
        command = ActuatorCommand("open", {"v": 1}, ("AM1",), 0)
        actuator.execute(command, world, 7)
        assert log == [({"v": 1}, 7)]

    def test_kind_mismatch_rejected(self):
        actuator = Actuator("AR1", "open")
        command = ActuatorCommand("close", {}, (), 0)
        assert not actuator.can_execute(command)
        with pytest.raises(ComponentError):
            actuator.execute(command, PhysicalWorld(), 0)


def cyber_instance(event_id="alarm", rho=0.9):
    return EventInstance(
        observer=ObserverId(ObserverKind.CCU, "CCU1"),
        event_id=event_id,
        seq=0,
        generated_time=TimePoint(10),
        generated_location=HERE,
        estimated_time=TimePoint(8),
        estimated_location=HERE,
        confidence=rho,
        layer=EventLayer.CYBER,
    )


class TestActionRule:
    def make_rule(self, **kwargs):
        return ActionRule(
            "alarm",
            lambda instance, tick: [
                ActuatorCommand("siren", {}, ("AM1",), tick)
            ],
            **kwargs,
        )

    def test_fires_on_matching_event(self):
        rule = self.make_rule()
        commands = rule.consider(cyber_instance(), 10)
        assert len(commands) == 1

    @pytest.mark.parametrize("rho", [0.0, 0.05, 1.0])
    def test_fires_at_any_confidence(self, rho):
        rule = self.make_rule()
        assert len(rule.consider(cyber_instance(rho=rho), 10)) == 1

    def test_ignores_other_events(self):
        rule = self.make_rule()
        assert rule.consider(cyber_instance("other"), 10) == []

    def test_cooldown(self):
        rule = self.make_rule(cooldown=100)
        assert len(rule.consider(cyber_instance(), 10)) == 1
        assert rule.consider(cyber_instance(), 50) == []
        assert len(rule.consider(cyber_instance(), 110)) == 1

    def test_factory_may_decline(self):
        answers = iter([None, [ActuatorCommand("siren", {}, ("AM1",), 11)]])
        rule = ActionRule(
            "alarm", lambda instance, tick: next(answers), cooldown=100
        )
        assert rule.consider(cyber_instance(), 10) == []
        # A declined firing starts no cooldown.
        assert len(rule.consider(cyber_instance(), 11)) == 1

    def test_validation(self):
        with pytest.raises(ComponentError):
            ActionRule("", lambda i, t: [])
        with pytest.raises(ComponentError):
            ActionRule("x", lambda i, t: [], cooldown=-1)
