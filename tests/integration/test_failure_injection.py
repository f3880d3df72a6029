"""Integration tests: graceful degradation under injected failures.

A real WSN loses packets and sensors fail; the event model must degrade
(fewer detections, longer latencies) without crashing or corrupting
state.  These tests run the same workload on perfect and degraded
substrates and verify both the degradation and the bookkeeping.
"""

import pytest

from repro.analysis import EdlModel
from repro.core import (
    AttributeCondition,
    AttributeTerm,
    EntitySelector,
    EventSpecification,
    RelationalOp,
)
from repro.cps import CPSSystem, Sensor
from repro.network import LogDistanceRadio, UnitDiskRadio, grid_topology
from repro.physical import UniformField


def build(radio, sensor_failure=0.0, max_retries=3, seed=3, size=4):
    system = CPSSystem(seed=seed)
    system.world.add_field("temperature", UniformField(80.0))
    topology = grid_topology(size, size, 10.0, radio)
    system.build_sensor_network(
        topology, sink_names=["MT0_0"], max_retries=max_retries
    )
    hot = EventSpecification(
        event_id="hot",
        selectors={"x": EntitySelector(kinds={"temperature"})},
        condition=AttributeCondition(
            "last", (AttributeTerm("x", "temperature"),), RelationalOp.GT, 50.0
        ),
    )
    for name in topology.names:
        if name != "MT0_0":
            system.add_mote(
                name,
                [
                    Sensor(
                        "SRt", "temperature", system.sim.rng.stream(name),
                        failure_probability=sensor_failure,
                    )
                ],
                sampling_period=10,
                specs=[hot],
            )
    system.add_sink("MT0_0")
    return system


class TestPacketLoss:
    def test_lossy_radio_drops_but_does_not_crash(self):
        perfect = build(UnitDiskRadio(10.5))
        perfect.run(until=500)
        lossy = build(LogDistanceRadio(d50=10.5, width=2.5), max_retries=1)
        lossy.run(until=500)

        assert lossy.sensor_network.dropped_count > 0
        assert perfect.sensor_network.dropped_count == 0
        perfect_received = perfect.trace.count("sink.receive")
        lossy_received = lossy.trace.count("sink.receive")
        for system, received in ((perfect, perfect_received), (lossy, lossy_received)):
            assert system.sinks["MT0_0"].engine.stats.entities_submitted == received
        assert 0 < lossy_received < perfect_received

    def test_delivery_ratio_tracks_analytical_bound(self):
        lossy = build(LogDistanceRadio(d50=10.5, width=2.5), max_retries=2)
        lossy.run(until=1000)
        network = lossy.sensor_network
        sent = network.delivered_count + network.dropped_count
        measured = network.delivered_count / sent

        # Analytical per-hop bound at the weakest used link PRR.
        used_prrs = [
            network.topology.prr(a, b)
            for a in network.topology.names
            for b in network.routing.path_to_root(a)[1:2]
            if a != "MT0_0"
        ]
        # A hop fails only if both of its two attempts do.
        per_hop = [1.0 - (1.0 - p) ** 2 for p in used_prrs if p > 0]
        best, worst = max(per_hop), min(per_hop)
        # Multi-hop paths compound per-hop loss; measured delivery lies
        # below the best single-hop bound and above the worst
        # three-hop-compounded bound.
        assert worst**3 * 0.5 <= measured <= best

    def test_retries_improve_delivery(self):
        few = build(LogDistanceRadio(d50=10.5, width=2.5), max_retries=1, seed=5)
        few.run(until=500)
        many = build(LogDistanceRadio(d50=10.5, width=2.5), max_retries=4, seed=5)
        many.run(until=500)

        def ratio(system):
            network = system.sensor_network
            total = network.delivered_count + network.dropped_count
            return network.delivered_count / total

        assert ratio(many) > ratio(few)


class TestSensorFailures:
    def test_failed_samples_traced_and_skipped(self):
        system = build(UnitDiskRadio(10.5), sensor_failure=0.3)
        system.run(until=500)
        failures = system.trace.count("sample.failed")
        successes = system.trace.count("sample.ok")
        assert failures > 0
        total = failures + successes
        assert failures / total == pytest.approx(0.3, abs=0.07)
        # Every successful sample still became a sensor event (hot world).
        sensor_events = sum(len(m.emitted) for m in system.motes.values())
        assert sensor_events == successes

    def test_full_sensor_failure_yields_silence_not_errors(self):
        system = build(UnitDiskRadio(10.5), sensor_failure=0.99, seed=11)
        system.run(until=300)
        assert system.sim.tick == 300  # ran to completion
        assert system.observation_count() < 30


class TestDisconnectedMote:
    def test_unreachable_mote_detected_at_build_time(self):
        from repro.core.errors import RoutingError
        from repro.network.topology import Topology
        from repro.core.space_model import PointLocation

        positions = {
            "MT0_0": PointLocation(0, 0),
            "MT0_1": PointLocation(5, 0),
            "island": PointLocation(500, 500),
        }
        system = CPSSystem(seed=1)
        system.world.add_field("temperature", UniformField(80.0))
        topology = Topology(positions, UnitDiskRadio(10.0))
        system.build_sensor_network(topology, sink_names=["MT0_0"])
        hot = EventSpecification(
            event_id="hot",
            selectors={"x": EntitySelector(kinds={"temperature"})},
            condition=AttributeCondition(
                "last", (AttributeTerm("x", "temperature"),),
                RelationalOp.GT, 50.0,
            ),
        )
        system.add_mote(
            "island",
            [Sensor("SRt", "temperature", system.sim.rng.stream("i"))],
            sampling_period=10,
            specs=[hot],
        )
        # The mote exists but its first send fails loudly, not silently.
        system.start()
        with pytest.raises(RoutingError):
            system.sim.run(until=50)
