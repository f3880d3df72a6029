"""Unit tests for the CPS component and observer base classes."""

import pytest

from repro.core.conditions import AttributeCondition, AttributeTerm
from repro.core.errors import ComponentError
from repro.core.event import EventLayer
from repro.core.instance import (
    ObserverKind,
    PhysicalObservation,
    SensorEventInstance,
)
from repro.core.operators import RelationalOp
from repro.core.space_model import PointLocation
from repro.core.spec import EntitySelector, EventSpecification
from repro.core.time_model import TimePoint
from repro.cps.component import CPSComponent, ObserverComponent
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder

HERE = PointLocation(1, 2)


def spec(event_id="hot", threshold=50.0):
    return EventSpecification(
        event_id=event_id,
        selectors={"x": EntitySelector(kinds={"t"})},
        condition=AttributeCondition(
            "last", (AttributeTerm("x", "t"),), RelationalOp.GT, threshold
        ),
    )


def obs(value, tick=5):
    return PhysicalObservation(
        "MT1", "SR1", 0, TimePoint(tick), HERE, {"t": value}
    )


def make_observer(sim=None, trace=None, specs=()):
    return ObserverComponent(
        "OBS1",
        HERE,
        sim or Simulator(),
        kind=ObserverKind.SENSOR_MOTE,
        layer=EventLayer.SENSOR,
        instance_cls=SensorEventInstance,
        specs=specs,
        trace=trace,
    )


class TestCPSComponent:
    def test_empty_name_rejected(self):
        with pytest.raises(ComponentError):
            CPSComponent("", HERE, Simulator())

    def test_record_without_trace_is_noop(self):
        component = CPSComponent("C1", HERE, Simulator())
        component.record("anything", value=1)  # must not raise

    def test_record_with_trace(self):
        trace = TraceRecorder()
        sim = Simulator()
        component = CPSComponent("C1", HERE, sim, trace)
        sim.schedule(7, lambda: component.record("ping", value=3))
        sim.run()
        records = [r for r in trace if r.source == "C1"]
        assert len(records) == 1
        assert records[0].tick == 7
        assert records[0].payload["value"] == 3


class TestObserverComponent:
    def test_ingest_emits_on_match(self):
        observer = make_observer(specs=[spec()])
        observer.ingest_batch([obs(60.0)])
        (instance,) = observer.emitted
        assert instance.observer == observer.observer_id
        assert instance.generated_location == HERE

    def test_ingest_silent_below_threshold(self):
        observer = make_observer(specs=[spec()])
        observer.ingest_batch([obs(40.0)])
        assert observer.emitted == []

    def test_seq_counters_per_event_id(self):
        observer = make_observer(specs=[spec("a"), spec("b", threshold=0.0)])
        assert observer.next_seq("a") == 0
        assert observer.next_seq("a") == 1
        assert observer.next_seq("b") == 0

    def test_locate_hook_places_the_row(self):
        seen = []
        there = PointLocation(7.5, -2.0)

        class Locating(ObserverComponent):
            def locate(self, match):
                seen.append(match)
                return there if len(seen) == 1 else None

        observer = Locating(
            "R1", HERE, Simulator(),
            kind=ObserverKind.SENSOR_MOTE,
            layer=EventLayer.SENSOR,
            instance_cls=SensorEventInstance,
            specs=[spec()],
        )
        elsewhere = PhysicalObservation(
            "MT1", "SR1", 1, TimePoint(5), PointLocation(3, 4), {"t": 61.0}
        )
        observer.ingest_batch([obs(60.0), elsewhere])
        assert [m.entities()[0] for m in seen] == [obs(60.0), elsewhere]
        # A location replaces the policy's; None keeps it.
        first, second = observer.emitted
        assert first.estimated_location == there
        assert second.estimated_location == PointLocation(3, 4)

    def test_distribute_hook_called(self):
        distributed = []

        class Distributing(ObserverComponent):
            def distribute(self, instance):
                distributed.append(instance)

        observer = Distributing(
            "D1", HERE, Simulator(),
            kind=ObserverKind.SENSOR_MOTE,
            layer=EventLayer.SENSOR,
            instance_cls=SensorEventInstance,
            specs=[spec()],
        )
        observer.ingest_batch([obs(60.0)])
        assert distributed == [observer.emitted[0]]

    def test_emit_direct_traces_and_distributes(self):
        trace = TraceRecorder()
        observer = make_observer(trace=trace)
        instance = SensorEventInstance(
            observer=observer.observer_id,
            event_id="manual",
            seq=observer.next_seq("manual"),
            generated_time=TimePoint(3),
            generated_location=HERE,
            estimated_time=TimePoint(1),
            estimated_location=HERE,
        )
        observer.emit_direct(instance)
        assert observer.emitted == [instance]
        assert trace.count("instance.emit") == 1


class TestBatchedIngestion:
    def test_ingest_batch_emits_for_each_match(self):
        observer = make_observer(specs=[spec()])
        batch = [
            PhysicalObservation(
                "MT1", "SR1", seq, TimePoint(5), HERE, {"t": 60.0 + seq}
            )
            for seq in range(3)
        ]
        assert observer.ingest_batch(batch) is None
        assert len(observer.emitted) == 3
        assert observer.engine.stats.batches_submitted == 1
        assert observer.engine.stats.entities_submitted == 3

    def test_enqueue_coalesces_one_flush_per_tick(self):
        sim = Simulator()
        observer = make_observer(sim=sim, specs=[spec()])

        def deliver():
            observer.enqueue(obs(60.0, tick=sim.tick))
            observer.enqueue(
                PhysicalObservation(
                    "MT2", "SR1", 0, TimePoint(sim.tick), HERE, {"t": 70.0}
                )
            )

        sim.schedule(3, deliver)
        sim.run()
        assert len(observer.emitted) == 2
        # Both arrivals ingested in a single engine batch.
        assert observer.engine.stats.batches_submitted == 1
        assert observer.engine.stats.entities_submitted == 2

    def test_enqueue_rearms_across_ticks(self):
        sim = Simulator()
        observer = make_observer(sim=sim, specs=[spec()])
        for delay in (1, 2):
            sim.schedule(
                delay,
                lambda d=delay: observer.enqueue(
                    PhysicalObservation(
                        "MT1", "SR1", d, TimePoint(sim.tick), HERE, {"t": 60.0}
                    )
                ),
            )
        sim.run()
        assert observer.engine.stats.batches_submitted == 2
        assert len(observer.emitted) == 2
