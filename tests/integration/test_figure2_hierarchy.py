"""Integration test: the five-layer event model hierarchy of Figure 2.

A physical event must flow physical world -> physical observation ->
sensor event -> cyber-physical event -> cyber event, each layer emitted
by the right observer class with the right tuple shape, and the cyber
instance must remain traceable (via provenance) to the raw observations
that caused it — the paper's "information regarding the original
physical event [kept] intact".
"""

import pytest

from repro.core.conditions import (
    AttributeCondition,
    AttributeTerm,
    ConfidenceCondition,
    SpatialMeasureCondition,
    TemporalCondition,
    TimeOf,
)
from repro.core.composite import all_of
from repro.core.event import EventLayer
from repro.core.instance import (
    CyberEventInstance,
    CyberPhysicalEventInstance,
    ObserverKind,
    SensorEventInstance,
)
from repro.core.operators import RelationalOp, TemporalOp
from repro.core.space_model import PointLocation
from repro.core.spec import (
    EntitySelector,
    EventSpecification,
    OutputAttribute,
    OutputPolicy,
)
from repro.cps.sensor import Sensor
from repro.cps.system import CPSSystem
from repro.network.radio import UnitDiskRadio
from repro.network.topology import grid_topology
from repro.physical.fields import GaussianPlumeField, PlumeSource


@pytest.fixture(scope="module")
def ran():
    """The finished system and the stream taps on all its observers."""
    system = CPSSystem(seed=11)
    field = GaussianPlumeField(base=20.0)
    field.add_source(
        PlumeSource(PointLocation(15, 15), amplitude=60.0, sigma=12.0, start=40)
    )
    system.world.add_field("temperature", field)

    topology = grid_topology(3, 3, 10.0, UnitDiskRadio(15.0))
    system.build_sensor_network(topology, sink_names=["MT0_0"])

    hot = EventSpecification(
        event_id="hot",
        selectors={"x": EntitySelector(kinds={"temperature"})},
        condition=AttributeCondition(
            "last", (AttributeTerm("x", "temperature"),), RelationalOp.GT, 45.0
        ),
        cooldown=20,
        output=OutputPolicy(
            attributes=(
                OutputAttribute(
                    "temperature", "last", (AttributeTerm("x", "temperature"),)
                ),
            )
        ),
    )
    for name in topology.names:
        if name != "MT0_0":
            system.add_mote(
                name,
                [Sensor("SRt", "temperature", system.sim.rng.stream(name),
                        noise_sigma=0.5)],
                sampling_period=10,
                specs=[hot],
            )
    fire = EventSpecification(
        event_id="fire",
        selectors={
            "a": EntitySelector(kinds={"hot"}),
            "b": EntitySelector(kinds={"hot"}),
        },
        condition=all_of(
            TemporalCondition(TimeOf("a"), TemporalOp.BEFORE, TimeOf("b")),
            SpatialMeasureCondition("distance", ("a", "b"), RelationalOp.LT, 30.0),
        ),
        window=40,
        cooldown=40,
        output=OutputPolicy(time="earliest", space="centroid"),
    )
    system.add_sink("MT0_0", specs=[fire])
    alarm = EventSpecification(
        event_id="alarm",
        selectors={"e": EntitySelector(kinds={"fire"})},
        condition=ConfidenceCondition("e", RelationalOp.GE, 0.0),
        cooldown=40,
    )
    system.add_ccu("CCU1", PointLocation(-5, -5), specs=[alarm])
    system.add_database("DB1")
    taps = system.attach_stream_taps(include_motes=True)
    system.run(until=400)
    return system, taps


@pytest.fixture(scope="module")
def ran_system(ran):
    return ran[0]


class TestLayerFlow:
    def test_all_layers_populated(self, ran_system):
        layers = ran_system.instances_by_layer()
        assert layers[EventLayer.SENSOR] > 0
        assert layers[EventLayer.CYBER_PHYSICAL] > 0
        assert layers[EventLayer.CYBER] > 0

    def test_layer_counts_decrease_up_the_hierarchy(self, ran_system):
        # Observations >> sensor events >= CP events (fusion aggregates).
        layers = ran_system.instances_by_layer()
        observations = ran_system.observation_count()
        assert observations > layers[EventLayer.SENSOR]
        assert layers[EventLayer.SENSOR] >= layers[EventLayer.CYBER_PHYSICAL]

    def test_observer_kinds_per_layer(self, ran_system):
        for mote in ran_system.motes.values():
            for instance in mote.emitted:
                assert isinstance(instance, SensorEventInstance)
                assert instance.observer.kind is ObserverKind.SENSOR_MOTE
        for sink in ran_system.sinks.values():
            for instance in sink.emitted:
                assert isinstance(instance, CyberPhysicalEventInstance)
                assert instance.observer.kind is ObserverKind.SINK_NODE
        for ccu in ran_system.ccus.values():
            for instance in ccu.emitted:
                assert isinstance(instance, CyberEventInstance)
                assert instance.observer.kind is ObserverKind.CCU

    def test_six_tuple_shape_at_every_layer(self, ran_system):
        observers = [
            *ran_system.motes.values(),
            *ran_system.sinks.values(),
            *ran_system.ccus.values(),
        ]
        for observer in observers:
            for instance in observer.emitted:
                assert instance.generated_time.tick >= 0
                assert instance.generated_location is not None
                assert instance.estimated_time is not None
                assert instance.estimated_location is not None
                assert 0.0 <= instance.confidence <= 1.0

    def test_edl_monotone_up_the_hierarchy(self, ran_system):
        # Detection latency cannot shrink as instances climb layers.
        sensor = [
            i.detection_latency
            for m in ran_system.motes.values()
            for i in m.emitted
        ]
        cp = [
            i.detection_latency
            for s in ran_system.sinks.values()
            for i in s.emitted
        ]
        cyber = [
            i.detection_latency
            for c in ran_system.ccus.values()
            for i in c.emitted
        ]
        assert min(cp) >= min(sensor)
        assert min(cyber) >= min(cp)


class TestProvenance:
    def test_cyber_event_traceable_to_observations(self, ran):
        """Walk sources from a cyber instance back to raw observations."""
        ran_system, taps = ran
        ccu = ran_system.ccus["CCU1"]
        assert ccu.emitted
        cyber = ccu.emitted[0]

        sink_emitted = {
            i.key: i for s in ran_system.sinks.values() for i in s.emitted
        }
        mote_emitted = {
            i.key: i for m in ran_system.motes.values() for i in m.emitted
        }
        observation_keys = {
            o.key
            for name in ran_system.motes
            for _, batch in taps[name].batches
            for o in batch
        }
        assert len(observation_keys) == ran_system.observation_count()

        assert cyber.sources
        for cp_key in cyber.sources:
            cp = sink_emitted[cp_key]
            assert cp.sources
            for sensor_key in cp.sources:
                sensor_event = mote_emitted[sensor_key]
                assert sensor_event.sources
                for obs_key in sensor_event.sources:
                    assert obs_key in observation_keys

    def test_estimated_occurrence_time_preserved_up_stack(self, ran_system):
        """t_eo at the CP layer must equal the earliest constituent's
        t_eo (the policy), not the sink's processing time."""
        sink = ran_system.sinks["MT0_0"]
        mote_emitted = {
            i.key: i for m in ran_system.motes.values() for i in m.emitted
        }
        for cp in sink.emitted:
            constituents = [mote_emitted[k] for k in cp.sources]
            earliest = min(c.estimated_time for c in constituents)
            assert cp.estimated_time == earliest
            assert cp.generated_time > cp.estimated_time

    def test_database_holds_all_published_layers(self, ran_system):
        db = ran_system.databases["DB1"]
        assert len(db.query(event_id="fire")) > 0
        assert len(db.query(event_id="alarm")) > 0
