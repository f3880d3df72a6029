"""Unit tests for the metrics registry (repro.obs.registry)."""

from __future__ import annotations

import pytest

from repro.core.errors import ObserverError
from repro.obs.registry import (
    DEFAULT_TICK_BUCKETS,
    Histogram,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_get_or_create_returns_same_series(self):
        registry = MetricsRegistry()
        a = registry.counter("events_total", source="s0")
        b = registry.counter("events_total", source="s0")
        assert a is b
        a.inc()
        a.inc(3)
        assert b.value == 4

    def test_counter_rejects_negative_increment(self):
        registry = MetricsRegistry()
        with pytest.raises(ObserverError):
            registry.counter("events_total").inc(-1)

    def test_label_sets_address_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("events_total", source="a").inc()
        registry.counter("events_total", source="b").inc(2)
        values = {
            sample.labels: sample.value for sample in registry.collect()
        }
        assert values[(("source", "a"),)] == 1
        assert values[(("source", "b"),)] == 2

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ObserverError):
            registry.gauge("x_total")

    def test_gauge_mode_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.gauge("level", mode="max")
        with pytest.raises(ObserverError):
            registry.gauge("level", mode="sum")

    def test_histogram_bucket_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(1, 2))
        with pytest.raises(ObserverError):
            registry.histogram("lat", buckets=(1, 2, 4))

    def test_histogram_bucketing_and_quantiles(self):
        histogram = Histogram(bounds=(0, 1, 2, 4))
        for value in (0, 0, 1, 3, 100):
            histogram.observe(value)
        assert histogram.counts == [2, 1, 0, 1, 1]
        assert histogram.cumulative() == (2, 3, 3, 4, 5)
        assert histogram.count == 5
        assert histogram.total == 104
        assert histogram.quantile(0.5) == 1.0
        assert histogram.quantile(1.0) == float("inf")
        assert Histogram().quantile(0.5) == 0.0

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ObserverError):
            Histogram(bounds=())
        with pytest.raises(ObserverError):
            Histogram(bounds=(2, 1))


class TestDeterministicIteration:
    def test_families_in_creation_order_labels_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zzz_total")
        registry.counter("aaa_total", source="b")
        registry.counter("aaa_total", source="a")
        names = [sample.name for sample in registry.collect()]
        assert names == ["zzz_total", "aaa_total", "aaa_total"]
        labels = [
            sample.labels
            for sample in registry.collect()
            if sample.name == "aaa_total"
        ]
        assert labels == [(("source", "a"),), (("source", "b"),)]

    def test_len_counts_series(self):
        registry = MetricsRegistry()
        registry.counter("a_total", source="x")
        registry.counter("a_total", source="y")
        registry.gauge("b")
        assert len(registry) == 3


class TestSnapshotRestore:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("flow_total", source="s").inc(7)
        registry.gauge("peak", mode="max").set(5)
        registry.histogram("lat", buckets=(1, 2)).observe(2)
        return registry

    def test_round_trip_restores_exact_values(self):
        registry = self._populated()
        snapshot = registry.snapshot()
        registry.counter("flow_total", source="s").inc(10)
        registry.gauge("peak", mode="max").set(99)
        registry.histogram("lat", buckets=(1, 2)).observe(1)
        registry.restore(snapshot)
        values = {
            (sample.name, sample.labels): sample
            for sample in registry.collect()
        }
        assert values[("flow_total", (("source", "s"),))].value == 7
        assert values[("peak", ())].value == 5
        assert values[("lat", ())].counts == (0, 1, 0)
        assert values[("lat", ())].count == 1

    def test_restore_mutates_instruments_in_place(self):
        # Instrumentation points cache series handles: after a restore
        # the SAME objects must carry the restored values, or every
        # cached handle would silently write into an orphan.
        registry = self._populated()
        counter = registry.counter("flow_total", source="s")
        histogram = registry.histogram("lat", buckets=(1, 2))
        snapshot = registry.snapshot()
        counter.inc(100)
        histogram.observe(1)
        registry.restore(snapshot)
        assert counter is registry.counter("flow_total", source="s")
        assert counter.value == 7
        assert histogram is registry.histogram("lat", buckets=(1, 2))
        assert histogram.count == 1

    def test_restore_resets_series_absent_from_snapshot(self):
        registry = self._populated()
        snapshot = registry.snapshot()
        late = registry.counter("late_total")
        late.inc(4)
        registry.restore(snapshot)
        assert late.value == 0  # implicitly zero at snapshot time

    def test_restore_rejects_shape_mismatch(self):
        registry = self._populated()
        snapshot = registry.snapshot()
        other = MetricsRegistry()
        other.gauge("flow_total")  # was a counter in the snapshot
        with pytest.raises(ObserverError):
            other.restore(snapshot)


class TestMerge:
    def test_counters_and_histograms_sum(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("flow_total").inc(2)
        b.counter("flow_total").inc(3)
        a.histogram("lat", buckets=(1,)).observe(0)
        b.histogram("lat", buckets=(1,)).observe(5)
        a.merge(b)
        samples = {sample.name: sample for sample in a.collect()}
        assert samples["flow_total"].value == 5
        assert samples["lat"].counts == (1, 1)
        assert samples["lat"].count == 2

    @pytest.mark.parametrize(
        "mode, expected", [("max", 9), ("sum", 12), ("last", 9)]
    )
    def test_gauge_merge_modes(self, mode, expected):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.gauge("level", mode=mode).set(3)
        b.gauge("level", mode=mode).set(9)
        a.merge(b)
        assert next(iter(a.collect())).value == expected

    def test_merge_adopts_unknown_families(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        b.counter("only_b_total", shard="1").inc(4)
        a.merge(b)
        sample = next(iter(a.collect()))
        assert sample.name == "only_b_total"
        assert sample.value == 4

    def test_merge_rejects_shape_mismatch(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.gauge("level", mode="max")
        b.gauge("level", mode="sum")
        with pytest.raises(ObserverError):
            a.merge(b)

    def test_merged_classmethod_leaves_parts_untouched(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("flow_total").inc(1)
        b.counter("flow_total").inc(2)
        total = MetricsRegistry.merged([a, b])
        assert next(iter(total.collect())).value == 3
        assert a.counter("flow_total").value == 1
        assert b.counter("flow_total").value == 2


class TestDefaults:
    def test_default_buckets_strictly_increasing(self):
        assert list(DEFAULT_TICK_BUCKETS) == sorted(set(DEFAULT_TICK_BUCKETS))
