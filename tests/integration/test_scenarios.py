"""Integration tests: the packaged workload scenarios."""

import pytest

from repro.core.event import EventLayer
from repro.core.space_model import PointLocation
from repro.workloads import build_scenario


class TestIntrusionScenario:
    @pytest.fixture(scope="class")
    def ran(self):
        scenario = build_scenario("intrusion", "medium", seed=13)
        scenario.system.run(until=scenario.params["horizon"])
        return scenario

    def test_alarms_raised(self, ran):
        assert len(ran.handles["alarm_log"]) >= 1

    def test_tracks_estimated_near_truth(self, ran):
        """Trilaterated track positions must be near the intruder's true
        position at the estimated occurrence time."""
        intruder = ran.handles["intruder"]
        sink = ran.system.sinks["MT0_0"]
        tracks = [i for i in sink.emitted if i.event_id == "intruder_track"]
        assert tracks
        errors = []
        for track in tracks:
            when = track.estimated_time
            tick = when.tick if hasattr(when, "tick") else when.start.tick
            truth = intruder.position(tick)
            estimate = track.estimated_location
            if isinstance(estimate, PointLocation):
                errors.append(estimate.distance_to(truth))
        assert errors, "no point estimates produced"
        mean_error = sum(errors) / len(errors)
        assert mean_error < ran.params["spacing"], (
            f"mean localization error {mean_error:.1f} exceeds one grid cell"
        )

    def test_cyber_layer_reached(self, ran):
        layers = ran.system.instances_by_layer()
        assert layers.get(EventLayer.CYBER, 0) >= 1

    def test_database_logs_every_track_the_sink_emitted(self, ran):
        sink = ran.system.sinks["MT0_0"]
        emitted = {
            i.key for i in sink.emitted if i.event_id == "intruder_track"
        }
        logged = ran.system.databases["DB1"].query(event_id="intruder_track")
        assert emitted
        assert {i.key for i in logged} == emitted

    def test_determinism(self):
        def run(seed):
            scenario = build_scenario(
                "intrusion", "medium", seed=seed, horizon=300,
            )
            scenario.system.run(until=300)
            return (
                len(scenario.handles["alarm_log"]),
                scenario.system.observation_count(),
            )

        assert run(5) == run(5)
