"""Unit tests for sink nodes and CPS control units."""

from dataclasses import replace

import pytest

from repro.core.composite import all_of
from repro.core.conditions import (
    AttributeCondition,
    AttributeTerm,
    ConfidenceCondition,
    SpatialMeasureCondition,
)
from repro.core.errors import ComponentError, SpatialError
from repro.core.event import EventLayer
from repro.core.instance import (
    CyberEventInstance,
    CyberPhysicalEventInstance,
    ObserverId,
    ObserverKind,
    SensorEventInstance,
)
from repro.core.operators import RelationalOp
from repro.core.space_model import PointLocation
from repro.core.spec import (
    EntitySelector,
    EventSpecification,
    OutputAttribute,
    OutputPolicy,
)
from repro.core.time_model import TimePoint
from repro.cps.actions import ActionRule, ActuatorCommand
from repro.cps.ccu import ControlUnit
from repro.cps.sink import SinkNode
from repro.detect.localize import trilaterate
from repro.detect.output import build_instance
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder
from repro.workloads import build_scenario

ORIGIN = PointLocation(0, 0)


def sensor_instance(mote="MT1", seq=0, tick=10, x=0.0, y=0.0, rho=0.9, **attrs):
    return SensorEventInstance(
        observer=ObserverId(ObserverKind.SENSOR_MOTE, mote),
        event_id="hot",
        seq=seq,
        generated_time=TimePoint(tick),
        generated_location=PointLocation(x, y),
        estimated_time=TimePoint(tick - 1),
        estimated_location=PointLocation(x, y),
        attributes=attrs or {"temperature": 70.0},
        confidence=rho,
    )


def cp_spec(**kwargs):
    # The temporal clause breaks the (a, b)/(b, a) symmetry, as real
    # specifications do — a purely symmetric condition matches both
    # role orderings by design.
    from repro.core.conditions import TemporalCondition, TimeOf
    from repro.core.operators import TemporalOp

    defaults = dict(
        event_id="fire",
        selectors={
            "a": EntitySelector(kinds={"hot"}),
            "b": EntitySelector(kinds={"hot"}),
        },
        condition=all_of(
            SpatialMeasureCondition(
                "distance", ("a", "b"), RelationalOp.LT, 50.0
            ),
            TemporalCondition(TimeOf("a"), TemporalOp.BEFORE, TimeOf("b")),
        ),
        window=30,
    )
    defaults.update(kwargs)
    return EventSpecification(**defaults)


class TestSinkNode:
    def test_emits_cyber_physical_instances(self):
        sim = Simulator()
        published = []
        sink = SinkNode("S1", ORIGIN, sim, specs=[cp_spec()],
                        publish=published.append)
        sink.ingest_batch([sensor_instance("MT1", x=0.0, tick=10)])
        sink.ingest_batch([sensor_instance("MT2", x=5.0, tick=12)])
        assert len(sink.emitted) == 1
        instance = sink.emitted[0]
        assert isinstance(instance, CyberPhysicalEventInstance)
        assert instance.layer is EventLayer.CYBER_PHYSICAL
        assert instance.observer == ObserverId(ObserverKind.SINK_NODE, "S1")
        assert published == [instance]

    def test_provenance_tracks_sources(self):
        sim = Simulator()
        sink = SinkNode("S1", ORIGIN, sim, specs=[cp_spec()])
        a = sensor_instance("MT1", x=0.0, tick=10)
        b = sensor_instance("MT2", x=5.0, tick=12)
        sink.ingest_batch([a])
        sink.ingest_batch([b])
        assert set(sink.emitted[0].sources) == {a.key, b.key}

    def test_confidence_fused_min(self):
        sim = Simulator()
        sink = SinkNode("S1", ORIGIN, sim, specs=[cp_spec()])
        sink.ingest_batch([sensor_instance("MT1", rho=0.9, tick=10)])
        sink.ingest_batch([sensor_instance("MT2", x=3.0, rho=0.6, tick=12)])
        assert sink.emitted[0].confidence == pytest.approx(0.6)

    def test_trilateration_refinement(self):
        sim = Simulator()
        target = PointLocation(4, 3)
        spec = EventSpecification(
            event_id="track",
            selectors={
                "a": EntitySelector(kinds={"hot"}),
                "b": EntitySelector(kinds={"hot"}),
                "c": EntitySelector(kinds={"hot"}),
            },
            condition=SpatialMeasureCondition(
                "diameter", ("a", "b", "c"), RelationalOp.LT, 100.0
            ),
            window=30,
        )
        sink = SinkNode(
            "S1", ORIGIN, sim, specs=[spec], trilaterate_attribute="range"
        )
        anchors = [PointLocation(0, 0), PointLocation(10, 0), PointLocation(0, 10)]
        for index, anchor in enumerate(anchors):
            sink.ingest_batch([
                sensor_instance(
                    f"MT{index}", seq=index, x=anchor.x, y=anchor.y,
                    range=anchor.distance_to(target),
                )
            ])
        assert sink.emitted
        estimate = sink.emitted[0].estimated_location
        assert estimate.distance_to(target) < 1e-6

    def test_trilateration_skipped_with_too_few_anchors(self):
        sim = Simulator()
        sink = SinkNode(
            "S1", ORIGIN, sim, specs=[cp_spec()], trilaterate_attribute="range"
        )
        sink.ingest_batch([sensor_instance("MT1", x=0.0, tick=10, range=5.0)])
        sink.ingest_batch([sensor_instance("MT2", x=4.0, tick=12, range=3.0)])
        # Two anchors: falls back to the centroid policy.
        assert sink.emitted[0].estimated_location == PointLocation(2, 0)

    def test_ignores_non_event_packets(self):
        from repro.network.packet import Packet, PacketKind

        sim = Simulator()
        trace = TraceRecorder()
        sink = SinkNode("S1", ORIGIN, sim, specs=[cp_spec()], trace=trace)
        sink.handle_packet(Packet("a", "S1", PacketKind.COMMAND, "junk", 0))
        sink.handle_packet(Packet("a", "S1", PacketKind.EVENT_INSTANCE, "junk", 0))
        sim.run()
        assert trace.count("sink.receive") == 0
        assert sink.engine.stats.entities_submitted == 0
        sink.handle_packet(
            Packet("a", "S1", PacketKind.EVENT_INSTANCE, sensor_instance("MT1"), 0)
        )
        sim.run()
        assert trace.count("sink.receive") == 1
        assert sink.engine.stats.entities_submitted == 1


class TestTrilateratedRows:
    """On ``intrusion`` the sinks trilaterate: each row written with an
    estimate reads back as the instance of its match with ``l_eo`` set
    to what :func:`~repro.detect.localize.trilaterate` makes of the
    match's range reports, worked out here by hand."""

    @staticmethod
    def expected_estimate(match, attribute):
        anchors, ranges = [], []
        for entity in match.entities():
            value = entity.attributes.get(attribute)
            if value is not None:
                anchors.append(entity.generated_location)
                ranges.append(float(value))
        if len(anchors) < 3:
            return None
        try:
            return trilaterate(anchors, ranges)
        except SpatialError:
            return None

    def test_rows_carry_the_trilaterated_location(self):
        built = build_scenario("intrusion", "small", seed=0)
        system = built.system
        matches = {}
        for sink in system.sinks.values():
            assert sink.trilaterate_attribute is not None

            def locate(match, sink=sink, original=sink.locate):
                matches.setdefault(sink.name, []).append(match)
                return original(match)

            sink.locate = locate
        system.run(until=built.params["horizon"])

        located = 0
        for name, sink in system.sinks.items():
            seqs = {}
            assert len(sink.emitted) == len(matches.get(name, []))
            for row, match in zip(sink.emitted, matches.get(name, [])):
                event_id = match.spec.event_id
                seq = seqs[event_id] = seqs.get(event_id, -1) + 1
                want = build_instance(
                    match, sink.observer_id, seq, TimePoint(match.tick),
                    sink.location, sink.layer, sink.instance_cls,
                )
                estimate = self.expected_estimate(match, sink.trilaterate_attribute)
                if estimate is not None:
                    assert want.estimated_location != estimate
                    want = replace(want, estimated_location=estimate)
                    located += 1
                assert row == want and row.key == want.key
        assert located == system.trace.count("sink.trilaterated") > 0


def cyber_spec():
    return EventSpecification(
        event_id="alarm",
        selectors={"e": EntitySelector(kinds={"fire"})},
        condition=ConfidenceCondition("e", RelationalOp.GE, 0.5),
        window=0,
    )


def cp_instance(rho=0.9, observer_name="S1"):
    return CyberPhysicalEventInstance(
        observer=ObserverId(ObserverKind.SINK_NODE, observer_name),
        event_id="fire",
        seq=0,
        generated_time=TimePoint(20),
        generated_location=ORIGIN,
        estimated_time=TimePoint(15),
        estimated_location=ORIGIN,
        confidence=rho,
    )


class TestControlUnit:
    def test_emits_cyber_instances(self):
        sim = Simulator()
        published = []
        ccu = ControlUnit(
            "CCU1", ORIGIN, sim, specs=[cyber_spec()],
            publish=published.append,
        )
        ccu.receive_instance(cp_instance())
        sim.run()
        assert len(ccu.emitted) == 1
        assert isinstance(ccu.emitted[0], CyberEventInstance)
        assert published == [ccu.emitted[0]]

    def test_low_confidence_filtered(self):
        sim = Simulator()
        ccu = ControlUnit("CCU1", ORIGIN, sim, specs=[cyber_spec()])
        ccu.receive_instance(cp_instance(rho=0.2))
        sim.run()
        assert ccu.emitted == []

    def test_rules_issue_commands(self):
        sim = Simulator()
        dispatched = []
        rule = ActionRule(
            "alarm",
            lambda instance, tick: [
                ActuatorCommand("siren", {}, ("AM1",), tick, cause=instance.key)
            ],
        )
        trace = TraceRecorder()
        ccu = ControlUnit(
            "CCU1", ORIGIN, sim, specs=[cyber_spec()], rules=[rule],
            dispatch=dispatched.append, trace=trace,
        )
        ccu.receive_instance(cp_instance())
        sim.run()
        assert len(dispatched) == 1
        assert dispatched[0].kind == "siren"
        assert [
            (r.value("kind"), r.value("command_id"), r.value("cause_event"))
            for r in trace.by_category("ccu.command")
        ] == [(c.kind, c.command_id, "alarm") for c in dispatched]

    def test_processing_delay_defers_output(self):
        sim = Simulator()
        published_at = []
        ccu = ControlUnit(
            "CCU1", ORIGIN, sim, specs=[cyber_spec()],
            publish=lambda i: published_at.append(sim.tick),
            processing_ticks=5,
        )
        sim.schedule(10, lambda: ccu.receive_instance(cp_instance()))
        sim.run()
        assert published_at == [15]

    @pytest.mark.parametrize(
        "value", [-3, True, False, 2.5, 5.0, float("nan"), float("inf"), "5", None]
    )
    def test_processing_ticks_must_be_a_non_negative_int(self, value):
        with pytest.raises(ComponentError, match="processing_ticks"):
            ControlUnit("CCU1", ORIGIN, Simulator(), processing_ticks=value)

    def test_processing_ticks_accept_zero(self):
        ccu = ControlUnit("CCU1", ORIGIN, Simulator(), processing_ticks=0)
        assert ccu.processing_ticks == 0

    def test_own_instances_not_reingested(self):
        sim = Simulator()
        ccu = ControlUnit("CCU1", ORIGIN, sim, specs=[cyber_spec()])
        own = CyberEventInstance(
            observer=ccu.observer_id,
            event_id="fire",
            seq=0,
            generated_time=TimePoint(1),
            generated_location=ORIGIN,
            estimated_time=TimePoint(1),
            estimated_location=ORIGIN,
        )
        trace = TraceRecorder()
        ccu.trace = trace
        ccu.receive_instance(own)
        sim.run()
        assert trace.count("ccu.receive") == 0
        assert ccu.engine.stats.entities_submitted == 0
        assert ccu.emitted == []

    def test_peer_cyber_events_accepted(self):
        sim = Simulator()
        spec = EventSpecification(
            event_id="meta",
            selectors={"e": EntitySelector(kinds={"alarm"})},
            condition=ConfidenceCondition("e", RelationalOp.GE, 0.0),
        )
        ccu = ControlUnit("CCU2", ORIGIN, sim, specs=[spec])
        peer_event = CyberEventInstance(
            observer=ObserverId(ObserverKind.CCU, "CCU1"),
            event_id="alarm",
            seq=0,
            generated_time=TimePoint(5),
            generated_location=ORIGIN,
            estimated_time=TimePoint(4),
            estimated_location=ORIGIN,
        )
        ccu.receive_instance(peer_event)
        sim.run()
        assert len(ccu.emitted) == 1
        assert ccu.emitted[0].event_id == "meta"
