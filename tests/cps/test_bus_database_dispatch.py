"""Unit tests for the event bus, database server and dispatch node."""

import pytest

from repro.core.errors import ComponentError, DatabaseError
from repro.core.event import EventLayer
from repro.core.instance import (
    CyberPhysicalEventInstance,
    ObserverId,
    ObserverKind,
    SensorEventInstance,
)
from repro.core.space_model import Circle, PointLocation
from repro.core.time_model import TimeInterval, TimePoint
from repro.cps.actions import ActuatorCommand
from repro.cps.bus import EventBus
from repro.cps.database import DatabaseServer
from repro.cps.dispatch import DispatchNode
from repro.network.packet import Packet, PacketKind
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder

ORIGIN = PointLocation(0, 0)


def instance(event_id="hot", seq=0, tick=10, x=0.0, y=0.0, rho=0.9,
             layer=EventLayer.SENSOR):
    cls = (
        SensorEventInstance
        if layer is EventLayer.SENSOR
        else CyberPhysicalEventInstance
    )
    kind = (
        ObserverKind.SENSOR_MOTE
        if layer is EventLayer.SENSOR
        else ObserverKind.SINK_NODE
    )
    return cls(
        observer=ObserverId(kind, "N1"),
        event_id=event_id,
        seq=seq,
        generated_time=TimePoint(tick),
        generated_location=PointLocation(x, y),
        estimated_time=TimePoint(tick - 2),
        estimated_location=PointLocation(x, y),
        confidence=rho,
    )


class TestEventBus:
    def test_publish_delivers_after_latency(self):
        sim = Simulator()
        trace = TraceRecorder()
        bus = EventBus(sim, trace=trace)
        got = []
        bus.subscribe(lambda i: got.append((sim.tick, i.event_id)))
        sim.schedule(5, lambda: bus.publish(instance()))
        sim.run()
        assert got == [(6, "hot")]
        assert bus.published_count == bus.delivered_count == 1
        assert len(trace.by_category("bus.publish")) == 1

    def test_event_id_filter(self):
        sim = Simulator()
        bus = EventBus(sim)
        got = []
        bus.subscribe(lambda i: got.append(i.event_id), event_ids={"fire"})
        bus.publish(instance("hot"))
        bus.publish(instance("fire", seq=1))
        sim.run()
        assert got == ["fire"]

    def test_layer_filter(self):
        sim = Simulator()
        bus = EventBus(sim)
        got = []
        bus.subscribe(
            lambda i: got.append(i.layer),
            layers={EventLayer.CYBER_PHYSICAL},
        )
        bus.publish(instance(layer=EventLayer.SENSOR))
        bus.publish(instance(seq=1, layer=EventLayer.CYBER_PHYSICAL))
        sim.run()
        assert got == [EventLayer.CYBER_PHYSICAL]

    def test_region_filter(self):
        sim = Simulator()
        bus = EventBus(sim)
        got = []
        bus.subscribe(
            lambda i: got.append(i.seq),
            region=Circle(ORIGIN, 5.0),
        )
        bus.publish(instance(seq=0, x=1.0))
        bus.publish(instance(seq=1, x=99.0))
        sim.run()
        assert got == [0]

    def test_confidence_filter(self):
        sim = Simulator()
        bus = EventBus(sim)
        got = []
        bus.subscribe(lambda i: got.append(i.seq), min_confidence=0.5)
        bus.publish(instance(seq=0, rho=0.9))
        bus.publish(instance(seq=1, rho=0.1))
        sim.run()
        assert got == [0]

    def test_publish_without_a_match_schedules_nothing(self):
        sim = Simulator()
        bus = EventBus(sim)
        bus.subscribe(lambda i: None, event_ids={"fire"})
        assert bus.publish(instance("hot")) == 0
        assert sim.pending == 0
        assert (bus.published_count, bus.delivered_count) == (1, 0)

    def test_same_tick_publishes_arrive_together_in_order(self):
        sim = Simulator()
        bus = EventBus(sim)
        got = []
        bus.subscribe(lambda i: got.append((sim.tick, i.seq)))
        sim.schedule(
            3, lambda: [bus.publish(instance(seq=s)) for s in range(3)]
        )
        sim.run()
        assert got == [(4, 0), (4, 1), (4, 2)]

    def test_publish_returns_match_count(self):
        sim = Simulator()
        bus = EventBus(sim)
        bus.subscribe(lambda i: None)
        bus.subscribe(lambda i: None, event_ids={"other"})
        assert bus.publish(instance()) == 1


class TestDatabaseServer:
    def test_store_and_query(self):
        sim = Simulator()
        db = DatabaseServer("DB1", sim)
        db.store(instance("hot", seq=0))
        db.store(instance("fire", seq=1))
        assert len(db) == 2
        assert len(db.query(event_id="hot")) == 1
        assert [i.event_id for i in db.query(event_id="fire")] == ["fire"]

    def test_duplicate_keys_ignored(self):
        sim = Simulator()
        db = DatabaseServer("DB1", sim)
        assert db.store(instance(seq=0))
        assert not db.store(instance(seq=0))
        assert len(db) == 1

    def test_transfer_delay_hides_fresh_rows(self):
        sim = Simulator()
        db = DatabaseServer("DB1", sim, transfer_delay=10)
        db.store(instance())
        assert len(db.query()) == 0
        sim.run(until=10)
        assert len(db.query()) == 1

    def test_time_range_query(self):
        sim = Simulator()
        db = DatabaseServer("DB1", sim)
        db.store(instance(seq=0, tick=10))   # t_eo = 8
        db.store(instance(seq=1, tick=50))   # t_eo = 48
        window = TimeInterval(TimePoint(0), TimePoint(20))
        assert [i.seq for i in db.query(time_range=window)] == [0]

    def test_region_query(self):
        sim = Simulator()
        db = DatabaseServer("DB1", sim)
        db.store(instance(seq=0, x=1.0))
        db.store(instance(seq=1, x=50.0))
        rows = db.query(region=Circle(ORIGIN, 5.0))
        assert [i.seq for i in rows] == [0]

    def test_layer_and_confidence_query(self):
        sim = Simulator()
        db = DatabaseServer("DB1", sim)
        db.store(instance(seq=0, layer=EventLayer.SENSOR, rho=0.9))
        db.store(instance(seq=1, layer=EventLayer.CYBER_PHYSICAL, rho=0.4))
        assert len(db.query(layer=EventLayer.SENSOR)) == 1
        assert len(db.query(min_confidence=0.5)) == 1

    def test_observer_query(self):
        sim = Simulator()
        db = DatabaseServer("DB1", sim)
        db.store(instance(seq=0))
        rows = db.query(observer=ObserverId(ObserverKind.SENSOR_MOTE, "N1"))
        assert len(rows) == 1
        assert db.query(observer=ObserverId(ObserverKind.CCU, "Z")) == []

    def test_latest(self):
        sim = Simulator()
        db = DatabaseServer("DB1", sim)
        db.store(instance(seq=0, tick=10))
        db.store(instance(seq=1, tick=30))
        latest = max(db.query(event_id="hot"), key=lambda i: i.generated_time)
        assert latest.seq == 1
        assert db.query(event_id="missing") == []

    @pytest.mark.parametrize(
        "value", [-1, True, False, 2.5, 5.0, float("nan"), float("inf"), "5", None]
    )
    def test_transfer_delay_must_be_a_non_negative_int(self, value):
        with pytest.raises(DatabaseError, match="transfer_delay"):
            DatabaseServer("DB1", Simulator(), transfer_delay=value)

    def test_transfer_delay_accepts_zero(self):
        assert DatabaseServer("DB1", Simulator(), transfer_delay=0).transfer_delay == 0


class TestDispatchNode:
    class FakeReceiver:
        def __init__(self):
            self.commands = []

        def receive_command(self, command):
            self.commands.append(command)

    def test_direct_dispatch(self):
        sim = Simulator()
        node = DispatchNode("D1", ORIGIN, sim)
        receiver = self.FakeReceiver()
        node.connect_direct("AM1", receiver)
        node.dispatch(ActuatorCommand("open", {}, ("AM1",), 0))
        sim.run()
        assert len(receiver.commands) == 1

    def test_default_targets_used_when_none_named(self):
        sim = Simulator()
        node = DispatchNode("D1", ORIGIN, sim, default_targets=("AM1",))
        receiver = self.FakeReceiver()
        node.connect_direct("AM1", receiver)
        node.dispatch(ActuatorCommand("open", {}, (), 0))
        sim.run()
        assert len(receiver.commands) == 1

    def test_no_targets_traced_not_raised(self):
        sim = Simulator()
        trace = TraceRecorder()
        node = DispatchNode("D1", ORIGIN, sim, trace=trace)
        node.dispatch(ActuatorCommand("open", {}, (), 0))
        sim.run()
        [record] = trace
        assert record.category == "dispatch.no_targets"
        assert record.value("kind") == "open"

    def test_unconnected_target_traced_not_raised(self):
        sim = Simulator()
        trace = TraceRecorder()
        node = DispatchNode("D1", ORIGIN, sim, trace=trace)
        receiver = self.FakeReceiver()
        node.connect_direct("AM1", receiver)
        node.dispatch(ActuatorCommand("open", {}, ("AM1", "AM2"), 0))
        sim.run()
        assert len(receiver.commands) == 1
        [record] = trace.by_category("dispatch.unreachable")
        assert record.value("target") == "AM2"

    def test_backbone_handler_filters_kinds(self):
        sim = Simulator()
        node = DispatchNode("D1", ORIGIN, sim)
        receiver = self.FakeReceiver()
        node.connect_direct("AM1", receiver)
        command = ActuatorCommand("open", {}, ("AM1",), 0)
        node.handle_backbone(Packet("C", "D1", PacketKind.COMMAND, command, 0))
        node.handle_backbone(Packet("C", "D1", PacketKind.EVENT_INSTANCE, "x", 0))
        sim.run()
        assert len(receiver.commands) == 1

    def test_bad_receiver_rejected(self):
        node = DispatchNode("D1", ORIGIN, Simulator())
        with pytest.raises(ComponentError):
            node.connect_direct("AM1", object())
