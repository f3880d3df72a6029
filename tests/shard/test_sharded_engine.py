"""ShardedDetectionEngine surface parity, aggregation and merge state."""

import pytest

from repro.core.composite import all_of
from repro.core.conditions import (
    SpatialMeasureCondition,
    TemporalCondition,
    TimeOf,
)
from repro.core.errors import ObserverError
from repro.core.instance import PhysicalObservation
from repro.core.operators import RelationalOp, TemporalOp
from repro.core.space_model import BoundingBox, PointLocation
from repro.core.spec import EntitySelector, EventSpecification
from repro.core.time_model import TimePoint
from repro.detect.engine import DetectionEngine, EngineStats
from repro.shard.engine import ShardedDetectionEngine

BOUNDS = BoundingBox(0.0, 0.0, 100.0, 100.0)


def obs(i, x, y, tick):
    return PhysicalObservation(
        mote_id=f"MT{i}",
        sensor_id="SR0",
        seq=i,
        time=TimePoint(tick),
        location=PointLocation(x, y),
        attributes={"value": 1.0},
    )


def pair_spec(event_id="pair", radius=15.0, window=20, cooldown=0):
    return EventSpecification(
        event_id=event_id,
        selectors={
            "a": EntitySelector(kinds={"value"}),
            "b": EntitySelector(kinds={"value"}),
        },
        condition=all_of(
            TemporalCondition(TimeOf("a"), TemporalOp.BEFORE, TimeOf("b")),
            SpatialMeasureCondition(
                "distance", ("a", "b"), RelationalOp.LT, radius
            ),
        ),
        window=window,
        cooldown=cooldown,
    )


def engine_of(shards=4, **kw):
    return ShardedDetectionEngine(
        [pair_spec()], bounds=BOUNDS, shards=shards, **kw
    )


class TestSurfaceParity:
    def test_spec_accessors_mirror_single_engine(self):
        engine = engine_of()
        assert [s.event_id for s in engine.specs] == ["pair"]
        assert engine.spec("pair").event_id == "pair"
        assert engine.plan("pair").prunable
        with pytest.raises(ObserverError):
            engine.spec("nope")

    def test_duplicate_spec_rejected(self):
        engine = engine_of()
        with pytest.raises(ObserverError):
            engine.add_spec(pair_spec())

    def test_add_spec_at_runtime_installs_everywhere(self):
        engine = engine_of()
        engine.add_spec(pair_spec(event_id="second", radius=5.0))
        assert {s.event_id for s in engine.specs} == {"pair", "second"}
        for shard_engine in engine.engines:
            assert {s.event_id for s in shard_engine.specs} == {
                "pair", "second",
            }
        assert engine.router.mode_of("second") == pytest.approx(5.0, abs=1e-6)

    def test_submit_is_one_element_batch(self):
        engine = engine_of()
        first = obs(0, 10.0, 10.0, 0)
        second = obs(1, 12.0, 10.0, 1)
        assert engine.submit(first, 0) == []
        matches = engine.submit(second, 1)
        assert len(matches) == 1
        assert matches[0].spec.event_id == "pair"

    def test_clear_resets_windows_and_merge_state(self):
        engine = engine_of()
        engine.submit(obs(0, 10.0, 10.0, 0), 0)
        engine.submit(obs(1, 12.0, 10.0, 1), 1)
        assert engine.stats.matches == 1
        engine.clear()
        assert engine.merger.last_match == {}
        # Fresh pair after clear: windows were dropped, so it re-fires.
        engine.submit(obs(2, 10.0, 10.0, 5), 5)
        matches = engine.submit(obs(3, 12.0, 10.0, 6), 6)
        assert len(matches) == 1


class TestStatsAggregation:
    def test_entities_counted_once_despite_mirroring(self):
        engine = engine_of(shards=4)
        # Near the center: mirrored into several shards.
        batch = [obs(i, 49.0 + i, 49.0, 0) for i in range(4)]
        engine.submit_batch(batch, 0)
        assert engine.stats.entities_submitted == 4
        assert engine.stats.batches_submitted == 1
        mirrored = sum(s.entities_submitted for s in engine.shard_stats())
        assert mirrored >= 4  # halo copies inflate the per-shard tallies

    def test_matches_are_post_merge(self):
        engine = engine_of(shards=4)
        single = DetectionEngine([pair_spec()])
        merged, expected = [], []
        # Boundary-straddling arrivals over two ticks: the pairs fire
        # in several shards' windows but must emit exactly once.
        for tick in (0, 1):
            batch = [
                obs(4 * tick + i, 48.0 + 2 * i, 50.0, tick) for i in range(4)
            ]
            merged.extend(engine.submit_batch(batch, tick))
            expected.extend(single.submit_batch(batch, tick))
        assert len(expected) > 0
        assert len(merged) == len(expected)
        assert engine.stats.matches == single.stats.matches
        # Owner-shard evaluation means each binding is enumerated once
        # across the fleet, matching the single engine's tally.
        assert engine.stats.bindings_evaluated == single.stats.bindings_evaluated

    def test_shard_stats_shape(self):
        engine = engine_of(shards=6)
        assert engine.shard_count == 6
        assert len(engine.shard_stats()) == 6
        assert all(isinstance(s, EngineStats) for s in engine.shard_stats())


class TestSeqMapHygiene:
    def test_arrival_stamps_pruned_past_window_horizon(self):
        engine = engine_of()
        for tick in range(0, 200, 5):
            engine.submit_batch([obs(tick, 10.0, 10.0, tick)], tick)
        # Window is 20: the stamp store must stay bounded by the live
        # horizon, not grow with the run.
        assert len(engine._seq_map) <= 10

    def test_restamped_id_moves_to_tail_so_pruning_never_stalls(self):
        # Regression: re-stamping a recycled id() must re-insert at the
        # dict tail — a plain re-assignment keeps the key's original
        # (near-head) position, and the head-prune loop would stop at
        # its fresh tick while every expired stamp behind it leaked.
        engine = engine_of()
        early = obs(0, 10.0, 10.0, 0)
        stale = obs(1, 80.0, 80.0, 0)
        engine.submit_batch([early, stale], 0)
        # Same object re-submitted much later = the recycled-id shape
        # (identical id, new arrival tick) at the head of the map.
        engine.submit_batch([early], 100)
        engine.submit_batch([obs(2, 10.0, 10.0, 100)], 100)
        assert id(stale) not in engine._seq_map
        assert engine._seq_map[id(early)][1] == 100

    def test_cooldown_clock_synced_across_shards(self):
        engine = ShardedDetectionEngine(
            [pair_spec(cooldown=10)], bounds=BOUNDS, shards=2
        )
        engine.submit(obs(0, 10.0, 10.0, 0), 0)
        engine.submit(obs(1, 12.0, 10.0, 1), 1)
        # The match fired in one shard; every shard's clock must carry
        # the authoritative tick afterwards.
        for shard_engine in engine.engines:
            assert shard_engine._last_match.get("pair") == 1
