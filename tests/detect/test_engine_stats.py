"""EngineStats hardening: derived-ratio guards and the field-wise merge.

``cache_hit_rate`` must read 0.0 instead of dividing by a zero or
``None`` denominator, and ``EngineStats.merge`` sums **every** dataclass
field, so a newly added counter can never silently vanish from
multi-shard aggregation.
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.detect.engine import EngineStats


class TestDerivedRatioGuards:
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
        ]

    @pytest.mark.parametrize("name", [spec.name for spec in fields(EngineStats)])
    def test_merge_sums_each_field(self, name):
        a = replace(EngineStats(), **{name: 2})
        b = replace(EngineStats(), **{name: 5})
        total = EngineStats.merge([a, b])
        assert getattr(total, name) == 7

    def test_merge_of_defaults_is_identity(self):
        stats = EngineStats(matches=3, cache_hits=4)
        assert EngineStats.merge([stats, EngineStats()]) == stats
