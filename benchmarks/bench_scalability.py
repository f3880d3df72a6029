"""E9 — scalability: engine throughput and whole-system scaling.

Reports how the detection engine's entity throughput scales with the
number of installed specifications and the window width, and how the
whole simulated CPS scales with mote count.  Expected shape: near-linear
cost in the number of candidate specs; window width inflates the
binding cross-product for multi-role specs; whole-system wall time grows
roughly linearly in the instance volume.

``TestE9Pruning`` reads the plan-driven engine's own counters on a
spatially and temporally selective pair spec: the candidates its masks
reject unevaluated (``candidates_pruned``) against the bindings it
judges (``bindings_evaluated``), and batched submission amortizing
per-entity overhead on top.  That pruning never changes a match set is
the test suite's differential against its naive reference engine.
"""

import itertools

import pytest

from repro.core.composite import all_of
from repro.core.conditions import (
    AttributeCondition,
    AttributeTerm,
    SpatialMeasureCondition,
    TemporalCondition,
    TimeOf,
)
from repro.core.operators import RelationalOp, TemporalOp
from repro.core.space_model import BoundingBox
from repro.core.spec import EntitySelector, EventSpecification
from repro.detect.engine import DetectionEngine, binding_identity
from repro.workloads import synthetic_observations
from repro.cps import CPSSystem, Sensor
from repro.network import UnitDiskRadio, grid_topology
from repro.physical import UniformField
import random

BOUNDS = BoundingBox(0, 0, 100, 100)


def single_role_spec(index: int) -> EventSpecification:
    return EventSpecification(
        event_id=f"threshold_{index}",
        selectors={"x": EntitySelector(kinds={"value"})},
        condition=AttributeCondition(
            "last", (AttributeTerm("x", "value"),),
            RelationalOp.GT, 40.0 + index,
        ),
    )


def pair_spec(window: int) -> EventSpecification:
    return EventSpecification(
        event_id=f"pair_w{window}",
        selectors={
            "a": EntitySelector(kinds={"value"}),
            "b": EntitySelector(kinds={"value"}),
        },
        condition=all_of(
            TemporalCondition(TimeOf("a"), TemporalOp.BEFORE, TimeOf("b")),
            SpatialMeasureCondition("distance", ("a", "b"), RelationalOp.LT, 20.0),
        ),
        window=window,
    )


def stream(count=2000, seed=5):
    return synthetic_observations(
        count, rate=1.0, bounds=BOUNDS, rng=random.Random(seed)
    )


class TestE9EngineScaling:
    @pytest.mark.parametrize("spec_count", [1, 4, 16])
    def test_throughput_vs_spec_count(self, benchmark, report, scale, spec_count):
        observations = stream(count=scale(2000))
        specs = [single_role_spec(i) for i in range(spec_count)]

        def run():
            engine = DetectionEngine(specs)
            matches = 0
            for obs in observations:
                matches += len(engine.submit(obs, obs.time.tick))
            return engine.stats

        stats = benchmark(run)
        report(
            f"[E9] specs={spec_count:<3} entities={stats.entities_submitted} "
            f"bindings={stats.bindings_evaluated} matches={stats.matches}"
        )
        assert stats.entities_submitted == len(observations)

    @pytest.mark.parametrize("window", [5, 20, 80])
    def test_throughput_vs_window(self, benchmark, report, scale, window):
        observations = stream(count=scale(800))
        spec = pair_spec(window)

        def run():
            engine = DetectionEngine([spec])
            for obs in observations:
                engine.submit(obs, obs.time.tick)
            return engine.stats

        stats = benchmark(run)
        report(
            f"[E9] window={window:<4} bindings={stats.bindings_evaluated} "
            f"matches={stats.matches}"
        )
        assert stats.bindings_evaluated > 0

    def test_binding_volume_grows_with_window(self, benchmark, report, scale):
        observations = stream(count=scale(800))

        def sweep():
            volumes = []
            for window in (5, 20, 80):
                engine = DetectionEngine([pair_spec(window)])
                for obs in observations:
                    engine.submit(obs, obs.time.tick)
                volumes.append(engine.stats.bindings_evaluated)
            return volumes

        volumes = benchmark.pedantic(sweep, rounds=1, iterations=1)
        report(f"[E9] binding volume by window (5, 20, 80): {volumes}")
        assert volumes == sorted(volumes)


def match_keys(engine, matches):
    return {
        (match.spec.event_id, binding_identity(match.spec)(match.binding))
        for match in matches
    }


class TestE9Pruning:
    """Plan-driven pruning, read from the engine's own counters."""

    def test_indexed_engine_prunes_bindings(self, benchmark, report, scale):
        observations = stream(count=scale(1500, 600))
        specs = [pair_spec(40)]

        def run():
            engine = DetectionEngine(specs)
            for obs in observations:
                engine.submit(obs, obs.time.tick)
            return engine.stats

        stats = benchmark.pedantic(run, rounds=1, iterations=1)
        report(
            f"[E9] indexed bindings={stats.bindings_evaluated} "
            f"matches={stats.matches} pruned={stats.candidates_pruned} "
            f"pruned_ratio={stats.pruned_ratio:.3f}",
        )
        assert stats.matches > 0
        # The masks reject at least half of the candidates they consider.
        assert stats.candidates_pruned >= stats.bindings_evaluated > 0
        assert stats.pruned_ratio >= 0.5

    def test_batched_submission_amortizes(self, benchmark, report, scale):
        from dataclasses import replace

        from repro.core.time_model import TimePoint

        # Compress arrival ticks 4:1 into bursts so per-tick batches are
        # genuinely larger than one entity (poisson_ticks never yields
        # two arrivals on the same tick).
        observations = [
            replace(obs, time=TimePoint(obs.time.tick // 4))
            for obs in stream(count=scale(1500, 600))
        ]
        specs = [pair_spec(40)]

        def run_batched():
            engine = DetectionEngine(specs)
            keys = set()
            for tick, group in itertools.groupby(
                observations, key=lambda o: o.time.tick
            ):
                keys |= match_keys(
                    engine, engine.submit_batch(list(group), tick)
                )
            return engine.stats, keys

        def run_single():
            engine = DetectionEngine(specs)
            keys = set()
            for obs in observations:
                keys |= match_keys(engine, engine.submit(obs, obs.time.tick))
            return engine.stats, keys

        single_stats, single_keys = run_single()
        batched_stats, batched_keys = benchmark.pedantic(
            run_batched, rounds=1, iterations=1
        )
        report(
            f"[E9] per-entity submits={single_stats.batches_submitted} "
            f"batched submits={batched_stats.batches_submitted} "
            f"matches={batched_stats.matches}"
        )
        assert batched_keys == single_keys
        assert batched_stats.batches_submitted < single_stats.batches_submitted


class TestE9SystemScaling:
    @pytest.mark.parametrize("size", [3, 5, 7])
    def test_whole_system_vs_motes(self, benchmark, report, size):
        def run():
            system = CPSSystem(seed=size)
            system.world.add_field("temperature", UniformField(80.0))
            topology = grid_topology(size, size, 10.0, UnitDiskRadio(10.5))
            system.build_sensor_network(topology, sink_names=["MT0_0"])
            hot = EventSpecification(
                event_id="hot",
                selectors={"x": EntitySelector(kinds={"temperature"})},
                condition=AttributeCondition(
                    "last", (AttributeTerm("x", "temperature"),),
                    RelationalOp.GT, 50.0,
                ),
            )
            for name in topology.names:
                if name != "MT0_0":
                    system.add_mote(
                        name,
                        [Sensor("SRt", "temperature",
                                system.sim.rng.stream(name))],
                        sampling_period=10,
                        specs=[hot],
                    )
            system.add_sink("MT0_0")
            system.run(until=300)
            return system

        system = benchmark.pedantic(run, rounds=1, iterations=1)
        report(
            f"[E9] grid {size}x{size}: observations="
            f"{system.observation_count()} delivered="
            f"{system.sensor_network.delivered_count} "
            f"sim events={system.sim.events_processed}"
        )
        assert system.observation_count() == (size * size - 1) * 30
