"""Unit tests for residency histograms and :func:`repro.obs.collect`."""

from __future__ import annotations

from repro.core.space_model import BoundingBox
from repro.detect.engine import DetectionEngine
from repro.obs import DEFAULT_TICK_BUCKETS, Histogram, Telemetry, collect
from repro.shard import ShardedDetectionEngine
from repro.stream import (
    CheckpointPolicy,
    ReplaySource,
    StreamingDetectionRuntime,
    SupervisedRuntime,
)

from tests.stream.test_resilience import RecordingHost
from tests.stream.test_runtime import batches, hot_spec, pair_spec


class TestHistogram:
    def test_histogram_bucketing_and_quantiles(self):
        histogram = Histogram()
        assert histogram.bounds == DEFAULT_TICK_BUCKETS
        for value in (0, 0, 1, 3, 100):
            histogram.observe(value)
        assert histogram.counts == [2, 1, 0, 1, 0, 0, 0, 0, 1]
        assert histogram.count == 5
        assert histogram.total == 104
        assert histogram.quantile(0.5) == 1.0
        assert histogram.quantile(1.0) == float("inf")
        assert Histogram().quantile(0.5) == 0.0

    def test_default_buckets_strictly_increasing(self):
        assert list(DEFAULT_TICK_BUCKETS) == sorted(set(DEFAULT_TICK_BUCKETS))


def exported(runtime) -> dict:
    """``{(name, labels): value}`` of every collected series."""
    return {
        (sample.name, sample.labels): sample.value
        for sample in collect(runtime)
    }


def names(runtime) -> set[str]:
    return {sample.name for sample in collect(runtime)}


class TestCollect:
    def test_a_bare_runtime_exports_its_stream_series_only(self):
        runtime = StreamingDetectionRuntime(DetectionEngine(), lateness=2)
        assert names(runtime) == {
            "stream_delivery_steps_total",
            "stream_backpressure_steps_total",
            "stream_observations_offered_total",
            "stream_observations_released_total",
            "stream_batches_released_total",
            "stream_matches_total",
            "stream_observations_late_total",
            "stream_reorder_occupancy_peak",
            "stream_observations_shed_total",
            "stream_observations_deferred_total",
            "stream_duplicates_dropped_total",
            "stream_observations_quarantined_total",
            "stream_reorder_occupancy",
        }  # no watermark before the first observation

    def test_every_installed_spec_has_series_even_at_zero(self):
        runtime = StreamingDetectionRuntime(
            DetectionEngine([pair_spec(), hot_spec()]), lateness=2
        )
        values = exported(runtime)
        for spec in ("pair", "hot"):
            for name in ("engine_spec_bindings_total",
                         "engine_spec_matches_total"):
                assert values[(name, (("spec", spec),))] == 0

    def test_a_sharded_engine_exports_per_shard_and_merger_series(self):
        engine = ShardedDetectionEngine(
            [hot_spec()], bounds=BoundingBox(0.0, 0.0, 10.0, 10.0), shards=2
        )
        runtime = StreamingDetectionRuntime(engine, lateness=0)
        runtime.run(ReplaySource(batches(5), name="t"))
        values = exported(runtime)
        per_shard = [
            values[("engine_spec_matches_total",
                    (("shard", str(shard)), ("spec", "hot")))]
            for shard in range(2)
        ]
        assert sum(per_shard) == sum(s.matches for s in engine.shard_stats())
        for count in ("candidates", "deduped", "suppressed", "emitted"):
            assert values[(f"shard_merge_{count}_total", ())] == getattr(
                engine.merger, count
            )

    def test_the_supervisor_exports_its_history(self):
        host = RecordingHost(lateness=1)
        supervisor = SupervisedRuntime(
            host, checkpoints=CheckpointPolicy(every_steps=2)
        )
        supervisor.run(ReplaySource(batches(6), name="t"))
        values = exported(host.runtime)
        assert values[("resilience_checkpoints_total", ())] == 4
        assert values[("resilience_recoveries_total", ())] == 0
        assert values[("resilience_backoff_ticks_total", ())] == 0

    def test_telemetry_adds_its_trace_tallies_and_histograms(self):
        telemetry = Telemetry.create(trace_every=1)
        runtime = StreamingDetectionRuntime(
            DetectionEngine(), lateness=1, telemetry=telemetry
        )
        runtime.run(ReplaySource(batches(6), name="t"))
        values = exported(runtime)
        assert values[("obs_traces_sampled_total", ())] == 6
        assert values[("obs_traces_completed_total", ())] == 6
        residency = [
            sample for sample in collect(runtime)
            if sample.name == "obs_stage_residency_ticks"
        ]
        assert [dict(s.labels)["stage"] for s in residency] == [
            "ADMISSION", "REORDER", "WATERMARK_HOLD"
        ]
        assert all(sample.count == 6 for sample in residency)

    def test_families_are_contiguous_and_labels_sorted(self):
        engine = ShardedDetectionEngine(
            [pair_spec(), hot_spec()],
            bounds=BoundingBox(0.0, 0.0, 10.0, 10.0),
            shards=2,
        )
        runtime = StreamingDetectionRuntime(
            engine, lateness=1, telemetry=Telemetry.create(trace_every=1)
        )
        runtime.run(ReplaySource(batches(6), name="t"))
        order = [sample.name for sample in collect(runtime)]
        families = [name for i, name in enumerate(order)
                    if i == 0 or order[i - 1] != name]
        assert len(families) == len(set(families))
        assert all(
            list(sample.labels) == sorted(sample.labels)
            for sample in collect(runtime)
        )
