"""Observability conformance: telemetry reads, it never perturbs.

The contract of the :mod:`repro.obs` layer, pinned for *every*
registered scenario (small preset, registered seed):

* **zero perturbation** — a jittered replay with full telemetry
  (metrics registry attached, ``trace_every=1`` stage tracing) emits
  byte-for-byte the checked-in golden digest, at shards 1 **and** 4.
  Telemetry draws no randomness and installs no ordering effects, so
  turning it on cannot move a single emitted row;
* **accounting exactness** — the registry's stream counters equal the
  runtime's own stats, and completed stage traces cover exactly the
  sampled observations (offered = completed + discarded + in-flight);
* **checkpoint exactness** — a mid-stream
  :class:`~repro.stream.runtime.RuntimeCheckpoint` carries the
  registry and trace state: the restored runtime's telemetry digest
  and completed-trace ring match the original's at the checkpoint, and
  after draining the identical tail both runtimes' deterministic
  registry digests and trace rows are identical.

(That a telemetry-bearing checkpoint refuses to restore into a bare
runtime, and vice versa, is one row of the stage-mismatch table in
``tests/stream/test_checkpoint.py``.)
"""

from __future__ import annotations

import pytest

from repro.obs.export import registry_digest, trace_rows_digest
from repro.obs.tracing import Telemetry
from repro.stream import JitteredSource, ReplayObserver, profile_of
from repro.stream.runtime import arrival_groups
from repro.workloads import scenario_names

from tests.integration.test_stream_conformance import (
    JITTER_SEED,
    LATENESS,
    _golden_digest,
    _observer,
    _run,
    _spliced_digest,
)


def _traced_replay_all(scenario, taps, shards: int = 1):
    bounds = scenario.system.detection_bounds() if shards > 1 else None
    replays: dict[str, ReplayObserver] = {}
    for name, tap in taps.items():
        source = JitteredSource(tap, max_delay=LATENESS, seed=JITTER_SEED)
        replayer = ReplayObserver(
            profile_of(_observer(scenario.system, name)),
            lateness=LATENESS,
            shards=shards,
            bounds=bounds,
            telemetry=Telemetry.create(trace_every=1),
        )
        replayer.replay(source)
        replays[name] = replayer
    return replays


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("name", scenario_names())
class TestTelemetryZeroPerturbation:
    def test_fully_traced_replay_matches_golden(self, name, shards):
        scenario, taps = _run(name)
        replays = _traced_replay_all(scenario, taps, shards=shards)
        assert _spliced_digest(scenario, replays) == _golden_digest(name)

    def test_registry_counters_agree_with_runtime_stats(self, name, shards):
        scenario, taps = _run(name)
        for replayer in _traced_replay_all(
            scenario, taps, shards=shards
        ).values():
            runtime = replayer.runtime
            registry = runtime.telemetry.registry
            stats = runtime.stats
            assert (
                registry.counter("stream_observations_released_total").value
                == runtime.released_items
            )
            offered = registry.counter(
                "stream_observations_offered_total"
            ).value
            assert offered == runtime.released_items + runtime.buffer.occupancy

            tracer = runtime.telemetry.tracer
            sampled = registry.counter("obs_traces_sampled_total").value
            completed = registry.counter("obs_traces_completed_total").value
            discarded = sum(
                sample.value
                for sample in registry.collect()
                if sample.name == "obs_traces_discarded_total"
            )
            assert sampled == completed + discarded + tracer.active_count
            assert completed == len(tracer.completed_rows()) or (
                completed > len(tracer.completed_rows())  # ring capped
            )
            assert stats.late_observations == 0


@pytest.mark.parametrize("name", scenario_names())
class TestTelemetryRunStability:
    def test_deterministic_digest_identical_across_two_runs(self, name):
        """Two identical traced replays export identical bytes — the
        registry digest and the completed-trace ring both."""
        scenario, taps = _run(name)
        tap = max(taps.values(), key=lambda t: t.observation_count)

        def run_once():
            replayer = ReplayObserver(
                profile_of(_observer(scenario.system, tap.name)),
                lateness=LATENESS,
                telemetry=Telemetry.create(trace_every=1),
            )
            replayer.replay(
                JitteredSource(tap, max_delay=LATENESS, seed=JITTER_SEED)
            )
            telemetry = replayer.runtime.telemetry
            return (
                registry_digest(telemetry.registry),
                trace_rows_digest(telemetry.tracer.completed_rows()),
            )

        assert run_once() == run_once()


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("name", scenario_names())
class TestTelemetryCheckpoint:
    def test_mid_stream_checkpoint_restores_registry_and_traces(
        self, name, shards
    ):
        scenario, taps = _run(name)
        tap = max(taps.values(), key=lambda t: t.observation_count)
        bounds = scenario.system.detection_bounds() if shards > 1 else None
        profile = profile_of(_observer(scenario.system, tap.name))

        def replayer() -> ReplayObserver:
            rep = ReplayObserver(
                profile,
                lateness=LATENESS,
                shards=shards,
                bounds=bounds,
                telemetry=Telemetry.create(trace_every=1),
            )
            rep.runtime.register_source(tap.name)
            return rep

        groups = list(
            arrival_groups(
                JitteredSource(tap, max_delay=LATENESS, seed=JITTER_SEED)
            )
        )
        half = len(groups) // 2
        first = replayer()
        for _, group in groups[:half]:
            first.ingest(group)
        checkpoint = first.snapshot()
        assert "telemetry" in checkpoint.runtime.stages
        mid_digest = registry_digest(first.runtime.telemetry.registry)
        mid_rows = first.runtime.telemetry.tracer.completed_rows()

        resumed = replayer()
        resumed.restore(checkpoint)
        telemetry = resumed.runtime.telemetry
        assert registry_digest(telemetry.registry) == mid_digest
        assert telemetry.tracer.completed_rows() == mid_rows

        # Both runtimes drain the identical tail: their deterministic
        # registry exports and trace rings must stay byte-identical.
        for _, group in groups[half:]:
            first.ingest(group)
            resumed.ingest(group)
        first.finish()
        resumed.finish()
        assert registry_digest(
            resumed.runtime.telemetry.registry
        ) == registry_digest(first.runtime.telemetry.registry)
        assert (
            resumed.runtime.telemetry.tracer.completed_rows()
            == first.runtime.telemetry.tracer.completed_rows()
        )
        assert resumed.trace_rows == first.trace_rows[
            checkpoint.emitted_count:
        ]
