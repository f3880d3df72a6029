"""Unit tests for engine snapshot/restore and runtime checkpoints."""

from dataclasses import replace

import pytest

from repro.core.composite import all_of
from repro.core.conditions import (
    AttributeCondition,
    AttributeTerm,
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
from repro.detect.engine import DetectionEngine
from repro.obs import collect, to_prometheus
from repro.obs.tracing import Telemetry
from repro.shard.engine import ShardedDetectionEngine
from repro.stream import (
    AdmissionController,
    AdmissionLimits,
    JitteredSource,
    Quarantine,
    RedeliveryDeduper,
    ReplaySource,
    StreamingDetectionRuntime,
)
from repro.stream.runtime import arrival_groups

BOUNDS = BoundingBox(0.0, 0.0, 100.0, 10.0)


def obs(seq, tick, x=0.0, temp=50.0):
    return PhysicalObservation(
        f"MT{seq}", "SR1", seq, TimePoint(tick), PointLocation(x, 0.0),
        {"temp": temp},
    )


def pair_spec(window=15, cooldown=0):
    return EventSpecification(
        event_id="pair",
        selectors={
            "a": EntitySelector(kinds={"temp"}),
            "b": EntitySelector(kinds={"temp"}),
        },
        condition=all_of(
            TemporalCondition(TimeOf("a"), TemporalOp.BEFORE, TimeOf("b")),
            SpatialMeasureCondition(
                "distance", ("a", "b"), RelationalOp.LT, 12.0
            ),
        ),
        window=window,
        cooldown=cooldown,
    )


def hot_spec(cooldown=6):
    return EventSpecification(
        event_id="hot",
        selectors={"x": EntitySelector(kinds={"temp"})},
        condition=AttributeCondition(
            "last", (AttributeTerm("x", "temp"),), RelationalOp.GT, 40.0
        ),
        window=0,
        cooldown=cooldown,
    )


def stream(n):
    return [(tick, [obs(tick, tick, x=float(tick % 20))]) for tick in range(n)]


def feed(engine, batches):
    out = []
    for tick, entities in batches:
        out.extend(
            (m.spec.event_id, m.tick, frozenset(m.binding))
            for m in engine.submit_batch(entities, tick)
        )
    return out


class TestEngineSnapshotRestore:
    def test_resumed_engine_matches_uninterrupted(self):
        batches = stream(40)
        specs = lambda: [pair_spec(), hot_spec()]  # noqa: E731
        uninterrupted = DetectionEngine(specs())
        full = feed(uninterrupted, batches)

        first = DetectionEngine(specs())
        head = feed(first, batches[:23])
        snapshot = first.snapshot()
        resumed = DetectionEngine(specs())
        resumed.restore(snapshot)
        tail = feed(resumed, batches[23:])
        assert head + tail == full

    def test_snapshot_does_not_disturb_source_engine(self):
        batches = stream(30)
        engine = DetectionEngine([pair_spec()])
        head = feed(engine, batches[:15])
        engine.snapshot()
        tail = feed(engine, batches[15:])
        reference = DetectionEngine([pair_spec()])
        assert head + tail == feed(reference, batches)

    def test_restore_carries_cooldown_clock(self):
        engine = DetectionEngine([hot_spec(cooldown=10)])
        engine.submit(obs(0, 0), now=0)  # matches, starts cooldown
        snapshot = engine.snapshot()
        resumed = DetectionEngine([hot_spec(cooldown=10)])
        resumed.restore(snapshot)
        assert resumed.submit(obs(1, 5), now=5) == []  # still cooling
        assert len(resumed.submit(obs(2, 12), now=12)) == 1

    def test_restore_carries_dedup_state(self):
        engine = DetectionEngine([pair_spec(window=30)])
        a, b = obs(0, 0), obs(1, 1)
        engine.submit(a, now=0)
        assert len(engine.submit(b, now=1)) == 1
        snapshot = engine.snapshot()
        resumed = DetectionEngine([pair_spec(window=30)])
        resumed.restore(snapshot)
        # The (a, b) binding is already seen; a new arrival only pairs
        # with the window content, never re-emitting the old match.
        matches = resumed.submit(obs(2, 2), now=2)
        keys = {
            tuple(sorted(e.seq for e in m.entities())) for m in matches
        }
        assert (0, 1) not in keys

    def test_restore_carries_watermark(self):
        engine = DetectionEngine([hot_spec(cooldown=0)])
        engine.submit(obs(0, 9), now=9)
        resumed = DetectionEngine([hot_spec(cooldown=0)])
        resumed.restore(engine.snapshot())
        assert resumed.low_watermark == 9
        with pytest.raises(ObserverError, match="non-monotone"):
            resumed.submit(obs(1, 3), now=3)

    def test_restore_carries_stats(self):
        engine = DetectionEngine([hot_spec(cooldown=0)])
        feed(engine, stream(10))
        resumed = DetectionEngine([hot_spec(cooldown=0)])
        resumed.restore(engine.snapshot())
        assert resumed.stats.entities_submitted == 10
        assert resumed.stats.matches == engine.stats.matches
        assert resumed.tallies() == engine.tallies() == {"hot": (10, 10)}

    @pytest.mark.parametrize(
        "foreign, complaint",
        [
            (hot_spec(), "watches"),
            # Same id, other roles: used to pass the id check, clear()
            # the engine and only then die with a KeyError.
            (
                EventSpecification(
                    event_id="pair",
                    selectors={"x": EntitySelector(kinds={"temp"})},
                    condition=hot_spec().condition,
                ),
                "spec 'pair' has roles",
            ),
        ],
        ids=["other ids", "same id, other roles"],
    )
    def test_rejected_restore_changes_nothing(self, foreign, complaint):
        snapshot = DetectionEngine([foreign]).snapshot()
        engine = DetectionEngine([pair_spec()])
        feed(engine, stream(10))
        before = engine.snapshot()
        with pytest.raises(ObserverError, match=complaint):
            engine.restore(snapshot)
        assert engine.snapshot() == before

    def test_twin_roles_share_one_window_and_refuse_two(self):
        # pair_spec's roles select alike, so they share one window: a
        # snapshot lists it under both, and one that gives them two
        # different windows could only be restored by dropping one.
        engine = DetectionEngine([pair_spec()])
        feed(engine, stream(10))
        before = engine.snapshot()
        a, b = before.windows["pair"]["a"], before.windows["pair"]["b"]
        assert a is b and len(a) > 1
        torn = replace(before, windows={"pair": {"a": a, "b": a[1:]}})
        with pytest.raises(ObserverError, match="different windows"):
            engine.restore(torn)
        assert engine.snapshot() == before
        # Equal entries in two tuples (one window per role) still restore.
        equal = replace(before, windows={"pair": {"a": a, "b": tuple(list(a))}})
        resumed = DetectionEngine([pair_spec()])
        resumed.restore(equal)
        assert resumed.snapshot() == before


class TestShardedSnapshotRestore:
    def make(self, shards=4):
        return ShardedDetectionEngine(
            [pair_spec(), hot_spec()], bounds=BOUNDS, shards=shards
        )

    def test_resumed_sharded_matches_uninterrupted(self):
        batches = stream(40)
        full = feed(self.make(), batches)
        first = self.make()
        head = feed(first, batches[:19])
        resumed = self.make()
        resumed.restore(first.snapshot())
        tail = feed(resumed, batches[19:])
        assert head + tail == full

    def test_min_merged_watermark_advances_with_idle_shards(self):
        engine = self.make()
        assert engine.low_watermark is None
        # One observation only routes to some shards; advance() keeps
        # the rest moving, so the min-merge tracks the stream.
        engine.submit(obs(0, 0, x=1.0), now=0)
        assert engine.low_watermark == 0
        engine.submit(obs(1, 7, x=99.0), now=7)
        assert engine.low_watermark == 7

    def test_shard_count_mismatch_rejected(self):
        snapshot = self.make(shards=4).snapshot()
        with pytest.raises(ObserverError, match="shards"):
            self.make(shards=2).restore(snapshot)

    def test_partition_layout_mismatch_rejected(self):
        # Same shard count, different spatial layout: the restored
        # windows would hold entities placed by the old router.
        snapshot = self.make().snapshot()
        stripes = ShardedDetectionEngine(
            [pair_spec(), hot_spec()],
            bounds=BOUNDS,
            shards=4,
            partition="stripes",
        )
        with pytest.raises(ObserverError, match="layout"):
            stripes.restore(snapshot)
        other_bounds = ShardedDetectionEngine(
            [pair_spec(), hot_spec()],
            bounds=BoundingBox(0.0, 0.0, 50.0, 50.0),
            shards=4,
        )
        with pytest.raises(ObserverError, match="layout"):
            other_bounds.restore(snapshot)

    def test_rejected_restore_changes_nothing(self):
        # Shards 0-1 are valid; 2-3 come from an engine with other specs.
        # Every shard is checked before the first one is rewritten.
        engine = self.make()
        feed(engine, stream(10))
        donor = self.make().snapshot()
        foreign = ShardedDetectionEngine(
            [hot_spec()], bounds=BOUNDS, shards=4
        ).snapshot()
        mixed = replace(donor, shards=donor.shards[:2] + foreign.shards[2:])
        before = engine.snapshot()
        with pytest.raises(ObserverError, match="watches"):
            engine.restore(mixed)
        assert engine.snapshot() == before

    def test_regressing_tick_rejected_before_any_mutation(self):
        engine = self.make()
        engine.submit(obs(0, 5), now=5)
        entities = engine.stats.entities_submitted
        stamps = dict(engine._seq_map)
        with pytest.raises(ObserverError, match="non-monotone"):
            engine.submit(obs(1, 3), now=3)
        # The rejected batch left no trace: no stamps, no counters.
        assert engine.stats.entities_submitted == entities
        assert dict(engine._seq_map) == stamps
        # The engine keeps working afterwards.
        engine.submit(obs(2, 6), now=6)
        assert engine.low_watermark == 6


class TestRuntimeCheckpoint:
    def test_mid_stream_checkpoint_resumes_identically(self):
        source = ReplaySource(stream(50), name="t")
        jittered = JitteredSource(source, max_delay=5, seed=4)
        groups = list(arrival_groups(jittered))
        half = len(groups) // 2

        def runtime():
            r = StreamingDetectionRuntime(
                DetectionEngine([pair_spec(), hot_spec()]), lateness=5
            )
            r.register_source("t")
            return r

        first = runtime()
        for _, group in groups[:half]:
            first.ingest(group)
        checkpoint = first.snapshot()
        tail_expected = []
        for _, group in groups[half:]:
            tail_expected.extend(first.ingest(group))
        tail_expected.extend(first.finish())

        resumed = runtime()
        resumed.restore(checkpoint)
        tail = []
        for _, group in groups[half:]:
            tail.extend(resumed.ingest(group))
        tail.extend(resumed.finish())
        assert [(m.spec.event_id, m.tick, m.binding) for m in tail] == [
            (m.spec.event_id, m.tick, m.binding) for m in tail_expected
        ]
        assert resumed.stats.entities_submitted == first.stats.entities_submitted
        # Conservation survives the resume: the checkpoint carries the
        # released counter, so after finish() everything buffered was
        # accounted released and the totals match the uninterrupted run.
        assert resumed.released_items == resumed.stats.entities_submitted
        assert resumed.released_items == first.released_items
        # Rewinding the continued runtime also resets the counter.
        first.restore(checkpoint)
        assert first.released_items == checkpoint.stats.released_items

    def test_checkpoint_preserves_buffered_disorder(self):
        runtime = StreamingDetectionRuntime(None, lateness=10)
        runtime.register_source("t")
        base = ReplaySource(stream(12), name="t")
        items = list(base)
        runtime.ingest(items[:8])  # bound 10: everything still buffered
        assert runtime.buffer.occupancy > 0
        checkpoint = runtime.snapshot()
        resumed = StreamingDetectionRuntime(None, lateness=10)
        released = []
        resumed.on_release = lambda tick, group: released.extend(
            item.seq for item in group
        )
        resumed.restore(checkpoint)
        resumed.ingest(items[8:])
        resumed.finish()
        assert released == list(range(12))


def _half_run(steps, *, lateness=4, engine=None, **parts):
    """A runtime built with ``parts`` that has ingested ``steps`` steps."""
    runtime = StreamingDetectionRuntime(engine, lateness=lateness, **parts)
    runtime.register_source("t")
    groups = list(arrival_groups(ReplaySource(stream(12), name="t")))
    for _, group in groups[:steps]:
        runtime.ingest(group)
    return runtime


def _sharded(shards):
    return ShardedDetectionEngine([hot_spec()], bounds=BOUNDS, shards=shards)


_PARTS = {
    "quarantine": Quarantine,
    "dedup": RedeliveryDeduper,
    "admission": AdmissionController,
    "telemetry": lambda: Telemetry.create(trace_every=1),
    "engine": lambda: DetectionEngine([hot_spec()]),
}

# (how the checkpointed runtime was built, how the restoring one was,
# what the ObserverError names).  Builders are called per test: parts
# are stateful.  The late refusals carry a dedup record too, so a part
# ahead of the refusing one has already taken its snapshot by then.
_REFUSALS = [
    *(
        pytest.param(lambda: {}, lambda f=f, n=n: {n: f()}, n, id=f"missing-{n}")
        for n, f in _PARTS.items()
    ),
    *(
        pytest.param(lambda f=f, n=n: {n: f()}, lambda: {}, n, id=f"extra-{n}")
        for n, f in _PARTS.items()
    ),
    pytest.param(
        lambda: {"lateness": 5, "dedup": RedeliveryDeduper()},
        lambda: {"lateness": 6, "dedup": RedeliveryDeduper()},
        "lateness",
        id="lateness",
    ),
    pytest.param(
        lambda: {
            "dedup": RedeliveryDeduper(),
            "telemetry": Telemetry.create(trace_every=4),
        },
        lambda: {
            "dedup": RedeliveryDeduper(),
            "telemetry": Telemetry.create(trace_every=1),
        },
        "trace_every",
        id="trace-stride",
    ),
    pytest.param(
        lambda: {
            "dedup": RedeliveryDeduper(),
            "telemetry": Telemetry.create(trace_every=1, ring=8),
        },
        lambda: {
            "dedup": RedeliveryDeduper(),
            "telemetry": Telemetry.create(trace_every=1, ring=16),
        },
        "ring",
        id="trace-ring",
    ),
    pytest.param(
        lambda: {
            "dedup": RedeliveryDeduper(),
            "admission": AdmissionController(
                AdmissionLimits(rate=1.0, burst=1)
            ),
            "engine": DetectionEngine([hot_spec()]),
        },
        lambda: {
            "dedup": RedeliveryDeduper(),
            "admission": AdmissionController(),
            "engine": DetectionEngine([hot_spec()]),
        },
        "rate limit",
        id="buckets-without-rate",
    ),
    pytest.param(
        lambda: {
            "dedup": RedeliveryDeduper(),
            "engine": DetectionEngine([hot_spec()]),
        },
        lambda: {
            "dedup": RedeliveryDeduper(),
            "engine": DetectionEngine([pair_spec()]),
        },
        "watches",
        id="engine-specs",
    ),
    pytest.param(
        lambda: {"dedup": RedeliveryDeduper(), "engine": _sharded(4)},
        lambda: {"dedup": RedeliveryDeduper(), "engine": _sharded(2)},
        "shards",
        id="shard-count",
    ),
]


class TestRejectedRestoreChangesNothing:
    """One case per way a checkpoint can be refused: each raises a typed
    error and leaves the restoring runtime exactly as it was."""

    @pytest.mark.parametrize("checkpointed, restoring, names", _REFUSALS)
    def test_typed_error_and_unchanged_state(
        self, checkpointed, restoring, names
    ):
        checkpoint = _half_run(6, **checkpointed()).snapshot()
        runtime = _half_run(3, **restoring())
        before = runtime.snapshot()
        with pytest.raises(ObserverError, match=names):
            runtime.restore(checkpoint)
        assert runtime.snapshot() == before
        # Still usable: the stream continues from where it stood.
        runtime.ingest(
            list(arrival_groups(ReplaySource(stream(12), name="t")))[3][1]
        )

    def test_refused_restore_keeps_the_exported_series(self):
        telemetry = Telemetry.create(trace_every=1)
        runtime = _half_run(3, dedup=RedeliveryDeduper(), telemetry=telemetry)
        exported = to_prometheus(collect(runtime))
        sparse = _half_run(
            6,
            dedup=RedeliveryDeduper(),
            telemetry=Telemetry.create(trace_every=4),
        )
        with pytest.raises(ObserverError, match="trace_every"):
            runtime.restore(sparse.snapshot())
        assert to_prometheus(collect(runtime)) == exported
