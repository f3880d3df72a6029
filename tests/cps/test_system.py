"""Unit tests for whole-system assembly (CPSSystem builder)."""

import pytest

from repro.core.conditions import AttributeCondition, AttributeTerm
from repro.core.errors import ComponentError
from repro.core.event import EventLayer
from repro.core.operators import RelationalOp
from repro.core.space_model import PointLocation
from repro.core.spec import EntitySelector, EventSpecification
from repro.cps.actions import ActuatorCommand
from repro.cps.actuator import Actuator
from repro.cps.sensor import Sensor
from repro.cps.system import CPSSystem
from repro.network.radio import UnitDiskRadio
from repro.network.topology import grid_topology
from repro.physical.fields import UniformField

HERE = PointLocation(0.0, 0.0)


def hot_spec():
    return EventSpecification(
        event_id="hot",
        selectors={"x": EntitySelector(kinds={"temperature"})},
        condition=AttributeCondition(
            "last", (AttributeTerm("x", "temperature"),), RelationalOp.GT, 50.0
        ),
    )


def build_minimal(seed=0, base_temp=80.0):
    system = CPSSystem(seed=seed)
    system.world.add_field("temperature", UniformField(base_temp))
    topo = grid_topology(2, 2, 10.0, UnitDiskRadio(15.0))
    system.build_sensor_network(topo, sink_names=["MT0_0"])
    for name in topo.names:
        if name != "MT0_0":
            system.add_mote(
                name,
                [Sensor("SRt", "temperature", system.sim.rng.stream(name))],
                sampling_period=10,
                specs=[hot_spec()],
            )
    system.add_sink("MT0_0")
    return system


class TestBuilderValidation:
    def test_mote_requires_network(self):
        system = CPSSystem()
        with pytest.raises(ComponentError, match="build_sensor_network"):
            system.add_mote("MT0_0", [], 10)

    def test_duplicate_node_names_rejected(self):
        system = build_minimal()
        with pytest.raises(ComponentError):
            system.add_mote(
                "MT0_1",
                [Sensor("SRt", "temperature", system.sim.rng.stream("x"))],
                10,
            )
        with pytest.raises(ComponentError):
            system.add_sink("MT0_0")

    def test_unknown_topology_node_rejected(self):
        system = build_minimal()
        with pytest.raises(Exception):
            system.add_mote(
                "ghost",
                [Sensor("SRt", "temperature", system.sim.rng.stream("g"))],
                10,
            )

    def test_actor_mote_needs_location_without_network(self):
        system = build_minimal()
        with pytest.raises(ComponentError, match="'AM1' needs a location"):
            system.add_actor_mote("AM1", [Actuator("A", "open")])

    def test_duplicate_actor_mote_rejected(self):
        system = build_minimal()
        system.add_actor_mote("AM1", [Actuator("A", "open")], HERE)
        with pytest.raises(ComponentError, match="already exists"):
            system.add_actor_mote("AM1", [Actuator("A", "open")], HERE)

    def test_double_start_rejected(self):
        system = build_minimal()
        system.start()
        with pytest.raises(ComponentError):
            system.start()


class TestActorWiring:
    """Actor motes hang directly off the dispatch nodes added before them."""

    @staticmethod
    def system_with_opened():
        system = CPSSystem(seed=0)
        opened = []
        system.world.on_actuation("open", lambda payload, tick: opened.append(tick))
        return system, opened

    def test_every_earlier_dispatch_node_reaches_the_mote(self):
        system, opened = self.system_with_opened()
        nodes = [system.add_dispatch(name, HERE) for name in ("D1", "D2")]
        mote = system.add_actor_mote("AM1", [Actuator("A", "open")], HERE)
        for node in nodes:
            node.dispatch(ActuatorCommand("open", {}, ("AM1",), 0))
        system.sim.run()
        direct = system.trace.by_category("dispatch.direct")
        assert [(r.source, r.payload["target"]) for r in direct] == [
            ("D1", "AM1"), ("D2", "AM1")
        ]
        assert [r.source for r in system.trace.by_category("command.executed")] == [
            mote.name, mote.name
        ]
        assert len(opened) == 2

    def test_a_later_dispatch_node_does_not_reach_the_mote(self):
        system, opened = self.system_with_opened()
        mote = system.add_actor_mote("AM1", [Actuator("A", "open")], HERE)
        node = system.add_dispatch("D1", HERE)
        node.dispatch(ActuatorCommand("open", {}, ("AM1",), 0))
        system.sim.run()
        assert [r for r in system.trace if r.source == mote.name] == []
        assert system.trace.count("dispatch.direct") == 0
        assert opened == []
        [record] = system.trace.by_category("dispatch.unreachable")
        assert record.payload["target"] == "AM1"


class TestRuntime:
    def test_motes_sample_and_sinks_receive(self):
        system = build_minimal()
        system.run(until=100)
        assert system.observation_count() == 30   # 3 motes x 10 rounds
        assert system.trace.count("sample.ok") == 30
        layers = system.instances_by_layer()
        assert layers[EventLayer.SENSOR] == 30    # every sample is hot
        received = system.trace.by_category("sink.receive")
        assert received and {r.source for r in received} == {"MT0_0"}

    def test_world_steps_every_tick(self):
        stepped = []

        class CountingField(UniformField):
            def step(self, tick):
                stepped.append(tick)

        system = CPSSystem()
        system.world.add_field("humidity", CountingField(0.0))
        system.start()
        system.run(until=5)
        assert stepped == [1, 2, 3, 4, 5]

    def test_cold_world_generates_nothing(self):
        system = build_minimal(base_temp=10.0)
        system.run(until=100)
        assert system.instances_by_layer() == {}

    def test_database_subscription(self):
        from repro.core.conditions import ConfidenceCondition

        system = CPSSystem(seed=1)
        system.world.add_field("temperature", UniformField(80.0))
        topo = grid_topology(2, 2, 10.0, UnitDiskRadio(15.0))
        system.build_sensor_network(topo, sink_names=["MT0_0"])
        for name in topo.names:
            if name != "MT0_0":
                system.add_mote(
                    name,
                    [Sensor("SRt", "temperature", system.sim.rng.stream(name))],
                    sampling_period=10,
                    specs=[hot_spec()],
                )
        cp_hot = EventSpecification(
            event_id="cp_hot",
            selectors={"e": EntitySelector(kinds={"hot"})},
            condition=ConfidenceCondition("e", RelationalOp.GE, 0.0),
            cooldown=50,
        )
        system.add_sink("MT0_0", specs=[cp_hot])
        db = system.add_database("DB1")
        system.run(until=200)
        assert len(db.query(event_id="cp_hot")) > 0

    def test_run_is_deterministic_per_seed(self):
        def run(seed):
            system = build_minimal(seed=seed)
            system.run(until=150)
            return (
                system.observation_count(),
                system.instances_by_layer().get(EventLayer.SENSOR, 0),
                system.sensor_network.delivered_count,
            )

        assert run(3) == run(3)
