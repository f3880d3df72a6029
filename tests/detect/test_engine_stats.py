"""EngineStats hardening: derived-ratio guards and the field-wise merge.

``observations_per_s`` (and every other derived ratio) must read 0.0
instead of dividing by a zero or ``None`` denominator, and
``EngineStats.merge`` sums **every** dataclass field, so a newly added
counter can never silently vanish from multi-shard aggregation.
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.detect.engine import EngineStats


class TestDerivedRatioGuards:
    def test_observations_per_s_zero_elapsed_reads_zero(self):
        stats = EngineStats(entities_submitted=100, evaluation_time_s=0.0)
        assert stats.observations_per_s == 0.0

    def test_observations_per_s_none_elapsed_reads_zero(self):
        stats = EngineStats(entities_submitted=100)
        stats.evaluation_time_s = None  # a reset/stubbed timer
        assert stats.observations_per_s == 0.0

    def test_observations_per_s_none_numerator_reads_zero(self):
        stats = EngineStats(evaluation_time_s=2.0)
        stats.entities_submitted = None
        assert stats.observations_per_s == 0.0

    def test_observations_per_s_normal_path(self):
        stats = EngineStats(entities_submitted=100, evaluation_time_s=4.0)
        assert stats.observations_per_s == 25.0

    def test_cache_hit_rate_zero_lookups_reads_zero(self):
        assert EngineStats().cache_hit_rate == 0.0

    def test_cache_hit_rate_none_fields_read_zero(self):
        stats = EngineStats()
        stats.cache_hits = None
        stats.cache_misses = None
        assert stats.cache_hit_rate == 0.0

    def test_cache_hit_rate_normal_path(self):
        stats = EngineStats(cache_hits=3, cache_misses=1)
        assert stats.cache_hit_rate == 0.75


class TestMerge:
    def test_only_engine_facts_remain(self):
        """Stream-level facts live in ``repro.stream.StreamStats``; every
        field left here is a flow an engine sets, so merge is a sum."""
        assert [spec.name for spec in fields(EngineStats)] == [
            "entities_submitted",
            "batches_submitted",
            "bindings_evaluated",
            "candidates_pruned",
            "matches",
            "evaluation_errors",
            "cache_hits",
            "cache_misses",
            "evaluation_time_s",
        ]

    @pytest.mark.parametrize("name", [spec.name for spec in fields(EngineStats)])
    def test_merge_sums_each_field(self, name):
        base_value = 2.0 if name == "evaluation_time_s" else 2
        other_value = 5.0 if name == "evaluation_time_s" else 5
        a = replace(EngineStats(), **{name: base_value})
        b = replace(EngineStats(), **{name: other_value})
        total = EngineStats.merge([a, b])
        assert getattr(total, name) == base_value + other_value

    def test_merge_of_defaults_is_identity(self):
        stats = EngineStats(matches=3, cache_hits=4)
        assert EngineStats.merge([stats, EngineStats()]) == stats
