"""E2 — Figure 2 reproduced behaviorally: the five-layer event hierarchy.

Reports, for a running system, the entity counts at every layer of the
event model (physical observations -> sensor events -> cyber-physical
events -> cyber events), the per-layer EDL, and verifies the paper's
"information kept intact" claim by walking provenance from a cyber
event back to raw observations.
"""

import pytest

from repro.core.event import EventLayer
from repro.sim.trace import summarize
from repro.workloads import build_scenario


def run(seed=31, horizon=800, taps=None):
    """Build and run the scenario; ``taps``, if given, receives a stream
    tap per observer, motes included, recording what each took in."""
    scenario = build_scenario(
        "forest_fire", "medium", seed=seed, horizon=horizon,
    )
    if taps is not None:
        taps.update(scenario.system.attach_stream_taps(include_motes=True))
    scenario.system.run(until=horizon)
    return scenario


class TestFigure2Hierarchy:
    def test_layer_population_and_edl(self, benchmark, report):
        scenario = benchmark.pedantic(run, rounds=1, iterations=1)
        system = scenario.system
        layers = system.instances_by_layer()
        observations = system.observation_count()

        edl = {layer: [] for layer in layers}
        for observer in (
            *system.motes.values(), *system.sinks.values(),
            *system.ccus.values(),
        ):
            for instance in observer.emitted:
                edl[instance.layer].append(instance.detection_latency)

        rows = [
            "",
            "[E2/Figure 2] per-layer entity counts and EDL (ticks)",
            f"  {'layer':<22}{'count':>7}  {'EDL mean':>9}  {'EDL p95':>8}"
            "  observer",
            f"  {'PHYSICAL_OBSERVATION':<22}{observations:>7}  {'-':>9}  {'-':>8}"
            f"  {EventLayer.OBSERVATION.observer_description}",
        ]
        for layer in (
            EventLayer.SENSOR, EventLayer.CYBER_PHYSICAL, EventLayer.CYBER
        ):
            stats = summarize(edl.get(layer, []))
            rows.append(
                f"  {layer.name:<22}{layers.get(layer, 0):>7}  "
                f"{stats.get('mean', float('nan')):>9.1f}  "
                f"{stats.get('p95', float('nan')):>8.1f}"
                f"  {layer.observer_description}"
            )
        report(*rows)

        # The funnel narrows while EDL grows up the hierarchy.
        assert observations > layers[EventLayer.SENSOR]
        assert layers[EventLayer.SENSOR] >= layers[EventLayer.CYBER_PHYSICAL]
        sensor_mean = sum(edl[EventLayer.SENSOR]) / len(edl[EventLayer.SENSOR])
        cp_mean = sum(edl[EventLayer.CYBER_PHYSICAL]) / len(
            edl[EventLayer.CYBER_PHYSICAL]
        )
        assert cp_mean > sensor_mean

    def test_provenance_depth(self, benchmark, report):
        taps = {}
        scenario = benchmark.pedantic(
            run, kwargs={"taps": taps}, rounds=1, iterations=1
        )
        system = scenario.system
        sink_emitted = {
            i.key: i for s in system.sinks.values() for i in s.emitted
        }
        mote_emitted = {
            i.key: i for m in system.motes.values() for i in m.emitted
        }
        observation_keys = {
            o.key
            for name in system.motes
            for _, batch in taps[name].batches
            for o in batch
        }
        traced = 0
        for ccu in system.ccus.values():
            for cyber in ccu.emitted:
                for cp_key in cyber.sources:
                    for sensor_key in sink_emitted[cp_key].sources:
                        for obs_key in mote_emitted[sensor_key].sources:
                            assert obs_key in observation_keys
                            traced += 1
        report(
            "",
            "[E2/Figure 2] provenance: cyber -> CP -> sensor -> observation",
            f"  observation-level sources reachable from cyber events: {traced}",
        )
        assert traced > 0
