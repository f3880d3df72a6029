"""Integration test: a complete system specified through the DSL.

The whole detection pipeline — mote sensor events, sink fusion, CCU
alarm — is declared as DSL text and compiled onto the components,
demonstrating the "event specification mechanism" Section 1 calls for
end to end.
"""

import pytest

from repro.core.event import EventLayer
from repro.core.space_model import Circle, PointLocation
from repro.cps import CPSSystem, Sensor
from repro.dsl import compile_source
from repro.network import UnitDiskRadio, grid_topology
from repro.physical import GaussianPlumeField, PlumeSource

SPECS = """
# mote level: a hot reading
EVENT hot
  WHEN x: temperature
  IF last(x.temperature) > 45
  COOLDOWN 20
  ATTR temperature = last(x.temperature)

# sink level: two ordered hot readings close together, inside the zone
EVENT fire
  WHEN a: hot, b: hot IN region(zone)
  IF time(a) BEFORE time(b) AND distance(a, b) < 30
  WINDOW 40 COOLDOWN 60
  EMIT time=span space=box confidence=min
  ATTR temperature = max(a.temperature, b.temperature)

# CCU level: any confident fire
EVENT alarm
  WHEN e: fire
  IF rho(e) >= 0.5 AND duration(e) >= 0
  COOLDOWN 100
"""


@pytest.fixture(scope="module")
def ran_system():
    env = {"zone": Circle(PointLocation(15, 15), 40.0)}
    hot, fire, alarm = compile_source(SPECS, env=env)

    system = CPSSystem(seed=19)
    field = GaussianPlumeField(base=20.0)
    field.add_source(
        PlumeSource(PointLocation(15, 15), amplitude=60.0, sigma=12.0, start=60)
    )
    system.world.add_field("temperature", field)
    topology = grid_topology(3, 3, 10.0, UnitDiskRadio(15.0))
    system.build_sensor_network(topology, sink_names=["MT0_0"])
    for name in topology.names:
        if name != "MT0_0":
            system.add_mote(
                name,
                [Sensor("SRt", "temperature", system.sim.rng.stream(name),
                        noise_sigma=0.5)],
                sampling_period=10,
                specs=[hot],
            )
    system.add_sink("MT0_0", specs=[fire])
    system.add_ccu("CCU1", PointLocation(-5, -5), specs=[alarm])
    system.add_database("DB1")
    system.run(until=400)
    return system


class TestDslDrivenSystem:
    def test_all_layers_fire(self, ran_system):
        layers = ran_system.instances_by_layer()
        assert layers.get(EventLayer.SENSOR, 0) > 0
        assert layers.get(EventLayer.CYBER_PHYSICAL, 0) > 0
        assert layers.get(EventLayer.CYBER, 0) > 0

    def test_emit_clause_respected(self, ran_system):
        from repro.core.space_model import BoundingBox
        from repro.core.time_model import TimeInterval

        sink = ran_system.sinks["MT0_0"]
        fire = next(i for i in sink.emitted if i.event_id == "fire")
        assert isinstance(fire.estimated_time, TimeInterval)   # time=span
        assert isinstance(fire.estimated_location, BoundingBox)  # space=box

    def test_attr_clause_respected(self, ran_system):
        sink = ran_system.sinks["MT0_0"]
        fire = next(i for i in sink.emitted if i.event_id == "fire")
        assert fire.attribute("temperature") > 45.0

    def test_region_filter_applied(self, ran_system):
        # All fused constituents lie within the declared zone.
        zone = Circle(PointLocation(15, 15), 40.0)
        mote_emitted = {
            i.key: i
            for m in ran_system.motes.values()
            for i in m.emitted
        }
        sink = ran_system.sinks["MT0_0"]
        for fire in sink.emitted:
            # Role b was region-filtered; at least one source must be
            # inside the zone (role a is unconstrained).
            in_zone = [
                zone.contains_point(mote_emitted[k].estimated_location)
                for k in fire.sources
            ]
            assert any(in_zone)

    def test_alarm_reaches_database(self, ran_system):
        db = ran_system.databases["DB1"]
        assert len(db.query(event_id="alarm")) >= 1
        assert len(db.query(event_id="fire")) >= 1
