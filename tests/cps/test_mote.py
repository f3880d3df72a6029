"""Unit tests for sensor and actor motes (first-level observers)."""

import pytest

from repro.core.conditions import AttributeCondition, AttributeTerm
from repro.core.errors import ComponentError
from repro.core.event import EventLayer
from repro.core.instance import SensorEventInstance
from repro.core.operators import RelationalOp
from repro.core.space_model import PointLocation
from repro.core.spec import EntitySelector, EventSpecification
from repro.core.time_model import TimeInterval
from repro.cps.actions import ActuatorCommand
from repro.cps.actuator import Actuator
from repro.cps.mote import ActorMote, IntervalEventConfig, SensorMote
from repro.cps.sensor import Sensor
from repro.physical.fields import GaussianPlumeField, PlumeSource, UniformField
from repro.physical.world import PhysicalWorld
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder
from repro.stream import StreamTap

HERE = PointLocation(5, 5)


def make_world(base=20.0, hot_from=None, hot_until=None):
    world = PhysicalWorld()
    if hot_from is None:
        world.add_field("temperature", UniformField(base))
    else:
        world.add_field(
            "temperature",
            GaussianPlumeField(
                base=base,
                sources=[
                    PlumeSource(
                        HERE, amplitude=60.0, sigma=10.0,
                        start=hot_from, end=hot_until,
                    )
                ],
            ),
        )
    return world


def hot_spec(threshold=50.0):
    return EventSpecification(
        event_id="hot",
        selectors={"x": EntitySelector(kinds={"temperature"})},
        condition=AttributeCondition(
            "last", (AttributeTerm("x", "temperature"),),
            RelationalOp.GT, threshold,
        ),
    )


def make_mote(sim, world, **kwargs):
    defaults = dict(
        sensors=[Sensor("SRt", "temperature", sim.rng.stream("s"))],
        sampling_period=10,
    )
    defaults.update(kwargs)
    return SensorMote("MT1", HERE, sim, world, **defaults)


def sampled(mote):
    """The observations a mote takes, as its engine receives them."""
    tap = StreamTap(mote.name)
    mote.attach_stream_tap(tap)
    return tap


class TestSampling:
    def test_periodic_observations(self):
        sim = Simulator()
        trace = TraceRecorder()
        mote = make_mote(sim, make_world(), trace=trace)
        tap = sampled(mote)
        mote.start()
        sim.run(until=55)
        observations = [o for _, batch in tap.batches for o in batch]
        assert len(observations) == 5
        assert [o.time.tick for o in observations] == [10, 20, 30, 40, 50]
        assert [tick for tick, _ in tap.batches] == [10, 20, 30, 40, 50]
        assert [r.tick for r in trace.by_category("sample.ok")] == [
            10, 20, 30, 40, 50
        ]
        assert mote.engine.stats.entities_submitted == 5

    def test_sampling_offset(self):
        sim = Simulator()
        mote = make_mote(sim, make_world(), sampling_offset=3)
        tap = sampled(mote)
        mote.start()
        sim.run(until=25)
        assert [o.time.tick for _, batch in tap.batches for o in batch] == [
            3, 13, 23
        ]

    def test_double_start_rejected(self):
        sim = Simulator()
        mote = make_mote(sim, make_world())
        mote.start()
        with pytest.raises(ComponentError):
            mote.start()

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ComponentError):
            make_mote(sim, make_world(), sampling_period=0)
        with pytest.raises(ComponentError):
            make_mote(sim, make_world(), sensors=[])


class TestSensorEventGeneration:
    def test_punctual_event_when_condition_holds(self):
        sim = Simulator()
        world = make_world(hot_from=25)   # hot from tick 25 on
        mote = make_mote(sim, world, specs=[hot_spec()])
        mote.start()
        sim.run(until=45)
        events = [i for i in mote.emitted if i.event_id == "hot"]
        assert events
        first = events[0]
        assert isinstance(first, SensorEventInstance)
        assert first.layer is EventLayer.SENSOR
        assert first.observer.name == "MT1"
        assert first.generated_location == HERE
        # First hot sample is at tick 30 (sampling grid 10).
        assert first.estimated_time.tick == 30

    def test_no_events_when_cold(self):
        sim = Simulator()
        mote = make_mote(sim, make_world(), specs=[hot_spec()])
        mote.start()
        sim.run(until=100)
        assert mote.emitted == []

    def test_seq_numbers_per_event_id(self):
        sim = Simulator()
        mote = make_mote(sim, make_world(hot_from=0), specs=[hot_spec()])
        mote.start()
        sim.run(until=40)
        seqs = [i.seq for i in mote.emitted]
        assert seqs == list(range(len(seqs)))


class TestIntervalEvents:
    def config(self, **kwargs):
        defaults = dict(
            event_id="heatwave",
            quantity="temperature",
            op=RelationalOp.GT,
            threshold=50.0,
            noise_sigma=1.0,
        )
        defaults.update(kwargs)
        return IntervalEventConfig(**defaults)

    def test_closed_interval_emitted(self):
        sim = Simulator()
        world = make_world(hot_from=20, hot_until=60)
        mote = make_mote(sim, world, interval_events=[self.config()])
        mote.start()
        sim.run(until=120)
        closed = [
            i for i in mote.emitted
            if i.event_id == "heatwave" and i.attribute("phase") == "closed"
        ]
        assert len(closed) == 1
        interval = closed[0].estimated_time
        assert isinstance(interval, TimeInterval)
        assert interval.start.tick == 20   # first hot sample (source starts at 20)
        assert interval.end.tick == 60     # last hot sample
        assert closed[0].confidence > 0.9  # margin is ~30 degrees

    def test_open_interval_emits_nothing(self):
        sim = Simulator()
        world = make_world(hot_from=20)
        mote = make_mote(sim, world, interval_events=[self.config()])
        mote.start()
        sim.run(until=60)
        assert [i for i in mote.emitted if i.event_id == "heatwave"] == []

    def test_min_duration_filters_blips(self):
        sim = Simulator()
        world = make_world(hot_from=25, hot_until=32)  # one hot sample only
        mote = make_mote(
            sim, world,
            interval_events=[self.config(min_duration=50)],
        )
        mote.start()
        sim.run(until=150)
        assert [i for i in mote.emitted if i.event_id == "heatwave"] == []


class TestActorMote:
    def test_command_execution_in_the_receiving_tick(self):
        sim = Simulator()
        world = PhysicalWorld()
        log = []
        world.on_actuation("open", lambda payload, tick: log.append(tick))
        mote = ActorMote("AM1", HERE, sim, world, [Actuator("AR1", "open")])
        sim.schedule(10, lambda: mote.receive_command(
            ActuatorCommand("open", {}, ("AM1",), 10)
        ))
        sim.run()
        assert log == [10]

    def test_execution_is_traced_with_its_latency(self):
        sim = Simulator()
        world = PhysicalWorld()
        world.on_actuation("open", lambda payload, tick: None)
        trace = TraceRecorder()
        mote = ActorMote(
            "AM1", HERE, sim, world, [Actuator("AR1", "open")], trace=trace
        )
        command = ActuatorCommand("open", {}, ("AM1",), 4)
        sim.schedule(9, lambda: mote.receive_command(command))
        sim.run()
        (record,) = trace.by_category("command.executed")
        assert record.tick == 9
        assert record.payload["issued"] == 4
        assert record.payload["latency"] == 5

    def test_unsupported_command_ignored(self):
        sim = Simulator()
        world = PhysicalWorld()
        trace = TraceRecorder()
        mote = ActorMote(
            "AM1", HERE, sim, world, [Actuator("AR1", "open")], trace=trace
        )
        mote.receive_command(ActuatorCommand("close", {}, ("AM1",), 0))
        sim.run()
        (record,) = trace
        assert record.category == "command.unsupported"
        assert record.payload["kind"] == "close"

    def test_needs_actuators(self):
        with pytest.raises(ComponentError):
            ActorMote("AM1", HERE, Simulator(), PhysicalWorld(), [])
