"""Observability conformance: telemetry reads, it never perturbs.

The contract of the :mod:`repro.obs` layer, pinned for *every*
registered scenario (small preset, registered seed):

* **zero perturbation** — a jittered replay with ``trace_every=1``
  stage tracing emits byte-for-byte the checked-in golden digest, at
  shards 1 **and** 4.  Telemetry draws no randomness and installs no
  ordering effects, so turning it on cannot move a single emitted row;
* **the export is a view of the parts** — every series
  :func:`~repro.obs.metrics.collect` returns is read from its owner:
  the ``stream_*`` series equal ``runtime.stats``, the per-spec engine
  tallies sum to the engine's stats, completed stage traces cover
  exactly the sampled observations (sampled = completed + discarded +
  in-flight), and a telemetry-off replay exports every non-``obs_*``
  series a telemetry-on one does;
* **checkpoint exactness** — a runtime restored from a mid-stream
  :class:`~repro.stream.runtime.RuntimeCheckpoint` exports the
  original's canonical JSON byte for byte, with telemetry and without,
  and after draining the identical tail both runtimes' exports and
  trace rings are identical again.

(That a telemetry-bearing checkpoint refuses to restore into a bare
runtime, and vice versa, is one row of the stage-mismatch table in
``tests/stream/test_checkpoint.py``.)
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.obs import Telemetry, collect, to_json, trace_rows_digest
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


def _replay_all(scenario, taps, shards: int = 1, telemetry: bool = True):
    bounds = scenario.system.detection_bounds() if shards > 1 else None
    replays: dict[str, ReplayObserver] = {}
    for name, tap in taps.items():
        source = JitteredSource(tap, max_delay=LATENESS, seed=JITTER_SEED)
        replayer = ReplayObserver(
            profile_of(_observer(scenario.system, name)),
            lateness=LATENESS,
            shards=shards,
            bounds=bounds,
            telemetry=Telemetry.create(trace_every=1) if telemetry else None,
        )
        replayer.replay(source)
        replays[name] = replayer
    return replays


def _values(runtime) -> dict:
    return {
        (sample.name, sample.labels): sample.value
        for sample in collect(runtime)
    }


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("name", scenario_names())
class TestTelemetryZeroPerturbation:
    def test_fully_traced_replay_matches_golden(self, name, shards):
        scenario, taps = _run(name)
        replays = _replay_all(scenario, taps, shards=shards)
        assert _spliced_digest(scenario, replays) == _golden_digest(name)

    def test_export_is_a_view_of_the_parts(self, name, shards):
        scenario, taps = _run(name)
        traced = _replay_all(scenario, taps, shards=shards)
        bare = _replay_all(scenario, taps, shards=shards, telemetry=False)
        for tap in taps:
            runtime = traced[tap].runtime
            values = _values(runtime)
            stats = runtime.stats
            for field in fields(stats):
                if field.metadata:
                    assert values[(field.metadata["series"], ())] == getattr(
                        stats, field.name
                    ), field.name
            assert values[("stream_reorder_occupancy", ())] == 0
            assert ("stream_watermark", ()) not in values  # finished
            assert stats.late_observations == 0

            engine = runtime.engine
            # Per shard, matches count before the merger's dedup.
            raw = engine.shard_stats() if shards > 1 else [engine.stats]
            for series, total in (
                ("engine_spec_bindings_total", engine.stats.bindings_evaluated),
                ("engine_spec_matches_total", sum(s.matches for s in raw)),
            ):
                assert total == sum(
                    value for (key, _), value in values.items()
                    if key == series
                ), series

            telemetry = runtime.telemetry
            discarded = sum(
                value for (key, _), value in values.items()
                if key == "obs_traces_discarded_total"
            )
            completed = values[("obs_traces_completed_total", ())]
            assert values[("obs_traces_sampled_total", ())] == (
                completed + discarded + telemetry.active_count
            )
            assert completed >= len(telemetry.completed_rows())  # ring cap

            assert _values(bare[tap].runtime) == {
                key: value for key, value in values.items()
                if not key[0].startswith("obs_")
            }


@pytest.mark.parametrize("name", scenario_names())
class TestTelemetryRunStability:
    def test_export_identical_across_two_runs(self, name):
        """Two identical traced replays export identical bytes — the
        canonical JSON and the completed-trace ring both."""
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
            runtime = replayer.runtime
            return (
                to_json(collect(runtime)),
                trace_rows_digest(runtime.telemetry.completed_rows()),
            )

        assert run_once() == run_once()


@pytest.mark.parametrize("telemetry", [True, False], ids=["traced", "bare"])
@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("name", scenario_names())
class TestTelemetryCheckpoint:
    def test_restored_runtime_exports_identical_bytes(
        self, name, shards, telemetry
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
                telemetry=(
                    Telemetry.create(trace_every=1) if telemetry else None
                ),
            )
            rep.runtime.register_source(tap.name)
            return rep

        def exported(rep: ReplayObserver) -> tuple:
            runtime = rep.runtime
            rows = runtime.telemetry.completed_rows() if telemetry else ()
            return to_json(collect(runtime)), rows

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
        assert ("telemetry" in checkpoint.runtime.stages) == telemetry
        at_checkpoint = exported(first)

        resumed = replayer()
        resumed.restore(checkpoint)
        assert exported(resumed) == at_checkpoint

        # Both runtimes drain the identical tail: their exports and
        # trace rings must stay byte-identical.
        for _, group in groups[half:]:
            first.ingest(group)
            resumed.ingest(group)
        first.finish()
        resumed.finish()
        assert exported(resumed) == exported(first)
        assert resumed.trace_rows == first.trace_rows[
            checkpoint.emitted_count:
        ]
