"""Unit tests for the wireless fabric, MAC and wired backbone."""

import pytest

from repro.core.errors import NetworkError
from repro.network.fabric import DutyCycleMac, WiredBackbone, WirelessNetwork
from repro.network.link import LinkModel
from repro.network.packet import Packet, PacketKind
from repro.network.radio import UnitDiskRadio
from repro.network.routing import RoutingTree
from repro.network.topology import grid_topology
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder


def build_network(sim, rows=2, cols=2, spacing=10.0, radio_range=10.5,
                  sink="MT0_0", mac_period=1, max_retries=3, trace=None):
    topo = grid_topology(rows, cols, spacing, UnitDiskRadio(radio_range))
    routing = RoutingTree(topo, [sink])
    link = LinkModel(
        sim.rng.stream("link"), backoff_ticks=0, max_retries=max_retries
    )
    return WirelessNetwork(
        sim, topo, link, routing, mac=DutyCycleMac(mac_period), trace=trace
    )


class TestDutyCycleMac:
    def test_always_on_never_waits(self):
        mac = DutyCycleMac(1)
        assert mac.wait_until_active(17) == 0
        assert mac.expected_wait == 0.0

    def test_wait_to_next_slot(self):
        mac = DutyCycleMac(10)
        assert mac.wait_until_active(0) == 0
        assert mac.wait_until_active(1) == 9
        assert mac.wait_until_active(10) == 0
        assert mac.expected_wait == 4.5

    def test_validation(self):
        with pytest.raises(NetworkError):
            DutyCycleMac(0)


class TestWirelessNetwork:
    def test_send_to_root_delivers(self):
        sim = Simulator(seed=1)
        net = build_network(sim)
        got = []
        net.register("MT0_0", got.append)
        net.send_to_root("MT1_1", {"v": 1}, PacketKind.EVENT_INSTANCE)
        sim.run()
        assert len(got) == 1
        packet = got[0]
        assert packet.payload == {"v": 1}
        assert packet.src == "MT1_1" and packet.dst == "MT0_0"
        assert packet.hop_count == 2  # MT1_1 -> MT(0_1|1_0) -> MT0_0

    def test_per_hop_latency_accumulates(self):
        sim = Simulator(seed=1)
        net = build_network(sim, rows=1, cols=4, radio_range=10.5)
        got_ticks = []
        net.register("MT0_0", lambda p: got_ticks.append(sim.tick))
        net.send_to_root("MT0_3", "x", PacketKind.EVENT_INSTANCE)
        sim.run()
        assert got_ticks == [3]  # 3 perfect hops x 1 tick

    def test_duty_cycle_adds_wakeup_delay(self):
        sim = Simulator(seed=1)
        net = build_network(sim, rows=1, cols=2, mac_period=10)
        got_ticks = []
        net.register("MT0_0", lambda p: got_ticks.append(sim.tick))
        sim.schedule(3, lambda: net.send_to_root(
            "MT0_1", "x", PacketKind.EVENT_INSTANCE
        ))
        sim.run()
        # Sent at tick 3, waits 7 to slot 10, then 1 tick transmission.
        assert got_ticks == [11]

    def test_lossy_path_drops_are_counted(self):
        sim = Simulator(seed=3)
        trace = TraceRecorder()
        topo = grid_topology(1, 2, 10.0, UnitDiskRadio(10.5))
        routing = RoutingTree(topo, ["MT0_0"])

        class DeadLink(LinkModel):
            def attempt_hop(self, prr):
                return super().attempt_hop(0.0)

        net = WirelessNetwork(
            sim, topo,
            DeadLink(sim.rng.stream("link"), backoff_ticks=0, max_retries=2),
            routing, trace=trace,
        )
        net.register("MT0_0", lambda p: None)
        net.send_to_root("MT0_1", "x", PacketKind.EVENT_INSTANCE)
        sim.run()
        assert net.dropped_count == 1
        assert net.delivered_count == 0
        assert trace.count("net.drop") == 1

    def test_local_delivery_when_source_is_root(self):
        sim = Simulator(seed=1)
        net = build_network(sim)
        got = []
        net.register("MT0_0", got.append)
        net.send_to_root("MT0_0", "self", PacketKind.EVENT_INSTANCE)
        sim.run()
        assert len(got) == 1

    def test_unicast_between_arbitrary_nodes(self):
        sim = Simulator(seed=1)
        net = build_network(sim, rows=2, cols=2)
        got = []
        net.register("MT1_1", got.append)
        net.unicast("MT0_0", "MT1_1", "hello", PacketKind.COMMAND)
        sim.run()
        assert len(got) == 1
        assert got[0].kind is PacketKind.COMMAND

    def test_unregistered_destination_raises(self):
        sim = Simulator(seed=1)
        net = build_network(sim)
        net.send_to_root("MT1_1", "x", PacketKind.EVENT_INSTANCE)
        with pytest.raises(NetworkError, match="no handler"):
            sim.run()

    def test_register_unknown_node_rejected(self):
        sim = Simulator(seed=1)
        net = build_network(sim)
        with pytest.raises(NetworkError):
            net.register("ghost", lambda p: None)

    def test_delivery_trace_records_latency(self):
        sim = Simulator(seed=1)
        trace = TraceRecorder()
        net = build_network(sim, trace=trace)
        net.register("MT0_0", lambda p: None)
        net.send_to_root("MT1_1", "x", PacketKind.EVENT_INSTANCE)
        sim.run()
        records = trace.by_category("net.deliver")
        assert len(records) == 1
        assert records[0].payload["latency"] == sim.tick
        assert records[0].payload["hops"] == 2


class TestWiredBackbone:
    def test_fixed_latency_delivery(self):
        sim = Simulator()
        backbone = WiredBackbone(sim)
        got = []
        backbone.register("CCU1", lambda p: got.append((sim.tick, p)))
        sent = [
            backbone.send("sink", "CCU1", {"e": e}, PacketKind.EVENT_INSTANCE)
            for e in range(2)
        ]
        sim.run()
        assert [p.packet_id for p in sent] == [1, 2]
        assert [(tick, p.packet_id, p.payload) for tick, p in got] == [
            (1, 1, {"e": 0}),
            (1, 2, {"e": 1}),
        ]
        assert backbone.delivered_count == 2

    def test_delivery_is_traced(self):
        sim = Simulator()
        trace = TraceRecorder()
        backbone = WiredBackbone(sim, trace=trace)
        backbone.register("CCU1", lambda p: None)
        sim.schedule(
            4,
            lambda: backbone.send("sink", "CCU1", {}, PacketKind.COMMAND),
        )
        sim.run()
        (record,) = trace.by_category("backbone.deliver")
        assert record.tick == 5
        assert record.payload["src"] == "sink"
        assert record.payload["kind"] == PacketKind.COMMAND.value

    def test_unknown_endpoint_rejected(self):
        backbone = WiredBackbone(Simulator())
        with pytest.raises(NetworkError):
            backbone.send("a", "nowhere", {}, PacketKind.COMMAND)


class TestPacket:
    def test_hop_recording(self):
        packet = Packet("a", "b", PacketKind.COMMAND, None, 0)
        packet.record_hop("x")
        packet.record_hop("b")
        assert packet.hops == ["x", "b"]
        assert packet.hop_count == 2

    def test_unique_ids(self):
        a = Packet("a", "b", PacketKind.COMMAND, None, 0)
        b = Packet("a", "b", PacketKind.COMMAND, None, 0)
        assert a.packet_id != b.packet_id
