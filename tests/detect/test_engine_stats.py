"""EngineStats hardening: derived-ratio guards and the field-wise merge.

``pruned_ratio`` must read 0.0 instead of dividing by a zero or
``None`` denominator, and ``EngineStats.merge`` sums **every** dataclass
field, so a newly added counter can never silently vanish from
multi-shard aggregation.
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.core.conditions import SpatialMeasureCondition
from repro.core.instance import PhysicalObservation
from repro.core.operators import RelationalOp
from repro.core.space_model import BoundingBox, PointLocation
from repro.core.spec import EntitySelector, EventSpecification
from repro.core.time_model import TimePoint
from repro.detect.engine import DetectionEngine, EngineStats
from repro.obs.export import render_report
from repro.shard import ShardedDetectionEngine


class TestDerivedRatioGuards:
    def test_pruned_ratio_idle_engine_reads_zero(self):
        assert EngineStats().pruned_ratio == 0.0

    def test_pruned_ratio_none_fields_read_zero(self):
        stats = EngineStats()
        stats.candidates_pruned = None
        stats.bindings_evaluated = None
        assert stats.pruned_ratio == 0.0

    def test_pruned_ratio_normal_path(self):
        stats = EngineStats(candidates_pruned=3, bindings_evaluated=1)
        assert stats.pruned_ratio == 0.75


class TestReportSaysWhetherThePlanPays:
    """``render_report`` prints ``pruned_ratio`` where it used to print
    the memo hit rate: once for the engine, once per shard."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_pruned_ratio_line(self, shards):
        spec = EventSpecification(
            event_id="far_pair",
            selectors={
                "a": EntitySelector(kinds={"v"}),
                "b": EntitySelector(kinds={"v"}),
            },
            condition=SpatialMeasureCondition(
                "distance", ("a", "b"), RelationalOp.GT, 50.0
            ),
            window=10,
        )
        engine = (
            DetectionEngine([spec])
            if shards == 1
            else ShardedDetectionEngine(
                [spec], bounds=BoundingBox(0.0, 0.0, 100.0, 100.0), shards=shards
            )
        )
        for seq, x in enumerate((0.0, 1.0, 2.0, 90.0)):
            entity = PhysicalObservation(
                f"M{seq}", "S", seq, TimePoint(seq), PointLocation(x, 0.0), {"v": 1.0}
            )
            engine.submit_batch([entity], seq)
        stats = engine.stats
        assert stats.matches == 6 and 0.0 < stats.pruned_ratio < 1.0
        lines = render_report(engine=engine).splitlines()
        ratio = f"pruned_ratio={stats.pruned_ratio * 100:.1f}%"
        assert sum(ratio in line for line in lines if not line.startswith("shard[")) == 1
        per_shard = [line for line in lines if line.startswith("shard[")]
        assert len(per_shard) == (shards if shards > 1 else 0)
        assert all("pruned_ratio=" in line for line in per_shard)


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
