"""Unit tests for engine snapshot/restore and runtime checkpoints."""

from dataclasses import replace
from fractions import Fraction

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
    CorruptObservation,
    JitteredSource,
    Quarantine,
    RedeliveryDeduper,
    ReorderBuffer,
    ReplaySource,
    StreamingDetectionRuntime,
    StreamItem,
    WatermarkTracker,
)
from repro.stream.runtime import arrival_groups
from tests.stream.test_runtime import RecordingEngine

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
            (hot_spec(), "EngineSnapshot.spec_ids"),
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

    def test_bounds_mismatch_rejected(self):
        # Same shard count, different bounds: the restored windows would
        # hold entities placed by the old router.
        snapshot = self.make().snapshot()
        other_bounds = ShardedDetectionEngine(
            [pair_spec(), hot_spec()],
            bounds=BoundingBox(0.0, 0.0, 50.0, 50.0),
            shards=4,
        )
        with pytest.raises(ObserverError, match="bounds"):
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
        with pytest.raises(ObserverError, match="EngineSnapshot.spec_ids"):
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

        def runtime(matches):
            r = StreamingDetectionRuntime(
                DetectionEngine([pair_spec(), hot_spec()]), lateness=5,
                on_match=matches.append,
            )
            r.register_source("t")
            return r

        seen = []
        first = runtime(seen)
        for _, group in groups[:half]:
            first.ingest(group)
        checkpoint = first.snapshot()
        head = len(seen)
        for _, group in groups[half:]:
            first.ingest(group)
        first.finish()

        tail = []
        resumed = runtime(tail)
        resumed.restore(checkpoint)
        for _, group in groups[half:]:
            resumed.ingest(group)
        resumed.finish()
        assert [(m.spec.event_id, m.tick, m.binding) for m in tail] == [
            (m.spec.event_id, m.tick, m.binding) for m in seen[head:]
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
        runtime = StreamingDetectionRuntime(RecordingEngine(), lateness=10)
        runtime.register_source("t")
        base = ReplaySource(stream(12), name="t")
        items = list(base)
        runtime.ingest(items[:8])  # bound 10: everything still buffered
        assert runtime.buffer.occupancy > 0
        checkpoint = runtime.snapshot()
        engine = RecordingEngine()
        resumed = StreamingDetectionRuntime(engine, lateness=10)
        resumed.restore(checkpoint)
        resumed.ingest(items[8:])
        resumed.finish()
        assert engine.released == [item.entity for item in items]


def _half_run(steps, *, lateness=4, engine=None, **parts):
    """A runtime built with ``parts`` (and an engine watching nothing
    unless one is given) that has ingested ``steps`` steps."""
    if engine is None:
        engine = DetectionEngine()
    runtime = StreamingDetectionRuntime(engine, lateness=lateness, **parts)
    runtime.register_source("t")
    groups = list(arrival_groups(ReplaySource(stream(12), name="t")))
    for _, group in groups[:steps]:
        runtime.ingest(group)
    return runtime


def _sharded(shards):
    return ShardedDetectionEngine([hot_spec()], bounds=BOUNDS, shards=shards)


_SCREENS = {"quarantine": Quarantine, "dedup": RedeliveryDeduper}
"""The parts a runtime may be built without (admission and telemetry
are always there: their presence rows are setting mismatches below)."""


def _capped(**shedding):
    return AdmissionController(AdmissionLimits(max_pending=8), **shedding)


def _stage(name, **changes):
    """A checkpoint edit: the ``name`` stage's snapshot with ``changes``."""

    def edit(checkpoint):
        stages = dict(checkpoint.stages)
        stages[name] = replace(stages[name], **changes)
        return replace(checkpoint, stages=stages)

    return edit


def _watermark(snapshot):
    def edit(checkpoint):
        return replace(
            checkpoint, stages={**checkpoint.stages, "watermark": snapshot}
        )

    return edit


_FULL = dict(dedup=RedeliveryDeduper, quarantine=Quarantine)


def _corrupt(edit, names, id):
    """A checkpoint of a dedup + quarantine runtime whose ``edit``-ed
    copy the same build must refuse."""
    return pytest.param(
        lambda: {n: f() for n, f in _FULL.items()},
        lambda: {n: f() for n, f in _FULL.items()},
        names,
        edit,
        id=id,
    )


# (how the checkpointed runtime was built, how the restoring one was,
# what the ObserverError names, an edit made to the checkpoint before it
# is restored).  Builders are called per test: parts are stateful.  The
# late refusals carry a dedup record too, so a part ahead of the
# refusing one has already taken its snapshot by then.
_REFUSALS = [
    *(
        pytest.param(
            lambda: {}, lambda f=f, n=n: {n: f()}, n, None, id=f"missing-{n}"
        )
        for n, f in _SCREENS.items()
    ),
    *(
        pytest.param(
            lambda f=f, n=n: {n: f()}, lambda: {}, n, None, id=f"extra-{n}"
        )
        for n, f in _SCREENS.items()
    ),
    pytest.param(
        lambda: {"dedup": RedeliveryDeduper()},
        lambda: {"dedup": RedeliveryDeduper(), "admission": _capped()},
        "max_pending",
        None,
        id="admission-limits-added",
    ),
    pytest.param(
        lambda: {"dedup": RedeliveryDeduper(), "admission": _capped()},
        lambda: {"dedup": RedeliveryDeduper()},
        "max_pending",
        None,
        id="admission-limits-dropped",
    ),
    pytest.param(
        lambda: {"dedup": RedeliveryDeduper(), "admission": _capped()},
        lambda: {
            "dedup": RedeliveryDeduper(),
            "admission": _capped(shedding="drop_lowest_priority"),
        },
        "shedding",
        None,
        id="admission-shedding-rule",
    ),
    pytest.param(
        lambda: {"dedup": RedeliveryDeduper()},
        lambda: {
            "dedup": RedeliveryDeduper(),
            "telemetry": Telemetry.create(trace_every=1),
        },
        "trace_every",
        None,
        id="trace-stride-0-vs-1",
    ),
    pytest.param(
        lambda: {"lateness": 5, "dedup": RedeliveryDeduper()},
        lambda: {"lateness": 6, "dedup": RedeliveryDeduper()},
        "lateness",
        None,
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
        None,
        id="trace-stride",
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
        "AdmissionSnapshot.limits",
        None,
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
        "EngineSnapshot.spec_ids",
        None,
        id="engine-specs",
    ),
    pytest.param(
        lambda: {"dedup": RedeliveryDeduper(), "engine": _sharded(4)},
        lambda: {"dedup": RedeliveryDeduper(), "engine": _sharded(2)},
        "shards",
        None,
        id="shard-count",
    ),
    # A malformed value inside a stage's snapshot.  Each of these used
    # to install (or half-install) and leave the runtime holding it.
    _corrupt(_stage("watermark", max_seen={"t": "x"}),
             "WatermarkSnapshot.max_seen", "watermark-tick-not-an-int"),
    _corrupt(_stage("watermark", max_seen={"t": 2.5}),
             "WatermarkSnapshot.max_seen", "watermark-tick-a-float"),
    _corrupt(_stage("watermark", ended=frozenset()),
             "WatermarkSnapshot.ended", "watermark-ended-not-a-flag"),
    # The tuple the tracker's snapshot was before it became a record.
    _corrupt(_watermark((4, {"t": 2}, False)), "not a WatermarkSnapshot",
             "watermark-a-tuple"),
    _corrupt(_stage("reorder", late_count=-1),
             "ReorderSnapshot.late_count", "reorder-negative-late-count"),
    _corrupt(_stage("reorder", peak_occupancy=-1),
             "ReorderSnapshot.peak_occupancy", "reorder-negative-peak"),
    _corrupt(_stage("reorder", released_through="x"),
             "ReorderSnapshot.released_through",
             "reorder-frontier-not-an-int"),
    _corrupt(_stage("dedup", in_flight={"t": 5}),
             "DedupSnapshot.in_flight", "dedup-in-flight-not-iterable"),
    _corrupt(_stage("dedup", high_water={"t": "x"}),
             "DedupSnapshot.high_water", "dedup-high-water-not-an-int"),
    _corrupt(_stage("dedup", duplicates_dropped=-1),
             "DedupSnapshot.duplicates_dropped", "dedup-negative-drops"),
    _corrupt(_stage("quarantine", count=-1), "QuarantineSnapshot.count",
             "quarantine-negative-count"),
    # The engine installs after every other part has been checked: its
    # own check must refuse all its install cannot take.
    pytest.param(
        lambda: {"dedup": RedeliveryDeduper(), "engine": DetectionEngine(
            [hot_spec()])},
        lambda: {"dedup": RedeliveryDeduper(), "engine": DetectionEngine(
            [hot_spec()])},
        "EngineSnapshot.seen",
        _stage("engine", seen={"hot": ((([1],), 0),)}),
        id="engine-dedup-identity-unhashable",
    ),
    _corrupt(lambda c: replace(c, stats="x"), "RuntimeCheckpoint.stats",
             "stats-not-counters"),
    _corrupt(lambda c: object(), "not a RuntimeCheckpoint",
             "not-a-checkpoint"),
]


class TestRejectedRestoreChangesNothing:
    """One case per way a checkpoint can be refused: each raises a typed
    error and leaves the restoring runtime exactly as it was."""

    @pytest.mark.parametrize(
        "checkpointed, restoring, names, edit", _REFUSALS
    )
    def test_typed_error_and_unchanged_state(
        self, checkpointed, restoring, names, edit
    ):
        checkpoint = _half_run(6, **checkpointed()).snapshot()
        if edit is not None:
            checkpoint = edit(checkpoint)
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


def _item(seq, entity=None):
    return StreamItem(
        entity=("obs", seq) if entity is None else entity,
        event_tick=seq,
        seq=seq,
        arrival_tick=seq,
        source="s",
    )


def _dedup():
    dedup = RedeliveryDeduper()
    for seq in (0, 1, 5):
        dedup.admit(_item(seq))
    dedup.admit(_item(1))
    return dedup


def _quarantine():
    quarantine = Quarantine()
    for seq in range(3):
        quarantine.admit(_item(seq, CorruptObservation(source="s", seq=seq)))
    return quarantine


def _reorder():
    buffer = ReorderBuffer()
    buffer.offer_many([_item(seq) for seq in (3, 1, 2)])
    buffer.release(1)
    buffer.offer(_item(0))  # late
    return buffer


def _tracker():
    tracker = WatermarkTracker(lateness=2)
    tracker.observe("s", 7)
    tracker.register("quiet")
    return tracker


def _admission():
    controller = AdmissionController(
        AdmissionLimits(rate=0.5, burst=1.0, max_deferred=1)
    )
    controller.intake([_item(seq) for seq in range(4)])
    return controller


def _telemetry():
    telemetry = Telemetry.create(trace_every=1)
    items = [_item(seq) for seq in range(3)]
    telemetry.observe_step(2)
    for item in items:
        telemetry.admit(item)
    telemetry.release(items[:1])
    telemetry.lost(items[1:2], "shed")
    return telemetry


# (the stage, how its snapshot is spoiled, what the ObserverError names).
_STAGE_REFUSALS = [
    pytest.param(_dedup, lambda s: replace(s, in_flight={"s": 5}),
                 "DedupSnapshot.in_flight", id="dedup-in-flight-not-iterable"),
    pytest.param(_dedup, lambda s: replace(s, in_flight={"s": (-3,)}),
                 "DedupSnapshot.in_flight", id="dedup-negative-seq"),
    pytest.param(_dedup, lambda s: replace(s, in_flight={"s": (6.0,)}),
                 "DedupSnapshot.in_flight", id="dedup-float-seq"),
    pytest.param(_dedup, lambda s: replace(s, high_water={"s": "x"}),
                 "DedupSnapshot.high_water", id="dedup-high-water-not-an-int"),
    pytest.param(_dedup, lambda s: replace(s, high_water={"s": True}),
                 "DedupSnapshot.high_water", id="dedup-high-water-a-bool"),
    pytest.param(_dedup, lambda s: replace(s, high_water={"s": -2}),
                 "DedupSnapshot.high_water", id="dedup-high-water-below-none"),
    pytest.param(_dedup, lambda s: replace(s, duplicates_dropped=-1),
                 "DedupSnapshot.duplicates_dropped",
                 id="dedup-negative-drops"),
    pytest.param(_quarantine, lambda s: replace(s, count=-1),
                 "QuarantineSnapshot.count", id="quarantine-negative-count"),
    pytest.param(_quarantine, lambda s: replace(s, count="3"),
                 "QuarantineSnapshot.count", id="quarantine-count-not-an-int"),
    pytest.param(_quarantine, lambda s: replace(s, count=2),
                 "QuarantineSnapshot.count",
                 id="quarantine-count-below-retained"),
    pytest.param(_reorder, lambda s: replace(s, late_count=-1),
                 "ReorderSnapshot.late_count",
                 id="reorder-negative-late-count"),
    pytest.param(_reorder, lambda s: replace(s, late_count=0),
                 "ReorderSnapshot.late_count",
                 id="reorder-late-count-below-retained"),
    pytest.param(_reorder, lambda s: replace(s, peak_occupancy=-1),
                 "ReorderSnapshot.peak_occupancy", id="reorder-negative-peak"),
    pytest.param(_reorder, lambda s: replace(s, released_through="x"),
                 "ReorderSnapshot.released_through",
                 id="reorder-frontier-not-an-int"),
    pytest.param(_reorder, lambda s: replace(s, highest_offered=1.5),
                 "ReorderSnapshot.highest_offered",
                 id="reorder-highest-a-float"),
    pytest.param(_reorder, lambda s: replace(s, pending=("x",)),
                 "ReorderSnapshot.pending", id="reorder-pending-not-items"),
    pytest.param(_tracker, lambda s: replace(s, max_seen={"s": "x"}),
                 "WatermarkSnapshot.max_seen", id="watermark-tick-not-an-int"),
    pytest.param(_tracker, lambda s: replace(s, max_seen={"s": 7.0}),
                 "WatermarkSnapshot.max_seen", id="watermark-tick-a-float"),
    pytest.param(_tracker, lambda s: replace(s, max_seen={"s": True}),
                 "WatermarkSnapshot.max_seen", id="watermark-tick-a-bool"),
    pytest.param(_tracker, lambda s: replace(s, max_seen={7: 7}),
                 "WatermarkSnapshot.max_seen",
                 id="watermark-source-not-a-name"),
    pytest.param(_tracker, lambda s: replace(s, ended="no"),
                 "WatermarkSnapshot.ended", id="watermark-ended-not-a-flag"),
    pytest.param(_telemetry, lambda s: replace(s, sampled=-3),
                 "TelemetrySnapshot.sampled", id="telemetry-negative-sampled"),
    pytest.param(_telemetry, lambda s: replace(s, finished="q"),
                 "TelemetrySnapshot.finished",
                 id="telemetry-finished-not-an-int"),
    pytest.param(_telemetry, lambda s: replace(s, offered=-1),
                 "TelemetrySnapshot.offered", id="telemetry-negative-offered"),
    pytest.param(_telemetry, lambda s: replace(s, residency=()),
                 "TelemetrySnapshot.residency",
                 id="telemetry-residency-empty"),
    pytest.param(_telemetry, lambda s: replace(s, active=(("s",),)),
                 "TelemetrySnapshot.active",
                 id="telemetry-active-row-malformed"),
    pytest.param(_telemetry, lambda s: replace(s, completed=5),
                 "TelemetrySnapshot.completed",
                 id="telemetry-completed-not-rows"),
    pytest.param(_telemetry, lambda s: replace(s, offered=True),
                 "TelemetrySnapshot.offered", id="telemetry-offered-a-bool"),
    pytest.param(_telemetry, lambda s: replace(s, now="2"),
                 "TelemetrySnapshot.now", id="telemetry-now-not-an-int"),
    pytest.param(_telemetry, lambda s: replace(s, now=2.0),
                 "TelemetrySnapshot.now", id="telemetry-now-a-float"),
    pytest.param(_telemetry, lambda s: replace(s, residency=s.residency[:-1]),
                 "TelemetrySnapshot.residency",
                 id="telemetry-residency-a-stage-short"),
    pytest.param(_telemetry,
                 lambda s: replace(s, residency=tuple(
                     (counts[:-1], total, count)
                     for counts, total, count in s.residency)),
                 "TelemetrySnapshot.residency",
                 id="telemetry-histogram-a-bucket-short"),
    pytest.param(_telemetry,
                 lambda s: replace(s, residency=tuple(
                     ((-1,) + counts[1:], total, count)
                     for counts, total, count in s.residency)),
                 "TelemetrySnapshot.residency",
                 id="telemetry-histogram-negative-bucket"),
    pytest.param(_telemetry,
                 lambda s: replace(s, residency=tuple(
                     (counts, -1, count)
                     for counts, total, count in s.residency)),
                 "TelemetrySnapshot.residency",
                 id="telemetry-histogram-negative-total"),
    pytest.param(_telemetry,
                 lambda s: replace(s, residency=tuple(
                     (counts, Fraction(total), count)
                     for counts, total, count in s.residency)),
                 "TelemetrySnapshot.residency",
                 id="telemetry-histogram-total-a-fraction"),
    pytest.param(_telemetry,
                 lambda s: replace(s, residency=tuple(
                     (counts, total) for counts, total, _ in s.residency)),
                 "TelemetrySnapshot.residency",
                 id="telemetry-histogram-not-a-triple"),
    pytest.param(_telemetry, lambda s: replace(s, discarded=(("shed", -1),)),
                 "TelemetrySnapshot.discarded",
                 id="telemetry-negative-discarded"),
    pytest.param(_telemetry, lambda s: replace(s, discarded=((5, 1),)),
                 "TelemetrySnapshot.discarded",
                 id="telemetry-discard-reason-not-a-name"),
    pytest.param(_telemetry, lambda s: replace(s, discarded=(5,)),
                 "TelemetrySnapshot.discarded",
                 id="telemetry-discarded-not-pairs"),
    pytest.param(_telemetry,
                 lambda s: replace(s, completed=(("s", -1, s.completed[0][2]),)),
                 "TelemetrySnapshot.completed",
                 id="telemetry-completed-row-negative-seq"),
    pytest.param(_telemetry,
                 lambda s: replace(s, completed=(
                     ("s", 0, s.completed[0][2][:2]),)),
                 "TelemetrySnapshot.completed",
                 id="telemetry-completed-row-a-stage-short"),
    pytest.param(_telemetry,
                 lambda s: replace(s, completed=(
                     ("s", 0, s.completed[0][2][::-1]),)),
                 "TelemetrySnapshot.completed",
                 id="telemetry-completed-row-stages-out-of-order"),
    pytest.param(_telemetry,
                 lambda s: replace(s, completed=(
                     ("s", 0, (("ENGINE", 0, 2),) + s.completed[0][2][1:]),)),
                 "TelemetrySnapshot.completed",
                 id="telemetry-completed-row-unknown-stage"),
    pytest.param(_telemetry,
                 lambda s: replace(s, completed=(
                     ("s", 0, (("ADMISSION", 0, None),)
                      + s.completed[0][2][1:]),)),
                 "TelemetrySnapshot.completed",
                 id="telemetry-completed-row-stamp-unset"),
    pytest.param(_telemetry, lambda s: replace(s, active=((5, 2, 2, 2),)),
                 "TelemetrySnapshot.active",
                 id="telemetry-active-row-source-not-a-name"),
    pytest.param(_telemetry, lambda s: replace(s, active=(("s", 2, 2),)),
                 "TelemetrySnapshot.active",
                 id="telemetry-active-row-a-tick-short"),
    pytest.param(_telemetry, lambda s: replace(s, active=(("s", 2, 0.5, 2),)),
                 "TelemetrySnapshot.active",
                 id="telemetry-active-row-arrival-a-float"),
    pytest.param(_telemetry,
                 lambda s: replace(s, active=(("s", 2, 2, None),)),
                 "TelemetrySnapshot.active",
                 id="telemetry-active-row-admitted-unset"),
    pytest.param(_admission, lambda s: replace(s, shed_total=-5),
                 "AdmissionSnapshot.shed_total", id="admission-negative-shed"),
    pytest.param(_admission, lambda s: replace(s, deferred_total="x"),
                 "AdmissionSnapshot.deferred_total",
                 id="admission-deferred-not-an-int"),
    pytest.param(_admission, lambda s: replace(s, deferred=("junk",)),
                 "AdmissionSnapshot.deferred",
                 id="admission-deferred-not-items"),
    pytest.param(_admission, lambda s: replace(s, buckets=5),
                 "AdmissionSnapshot.buckets",
                 id="admission-buckets-not-a-map"),
    pytest.param(_admission, lambda s: replace(s, buckets={"s": ("x", None)}),
                 "AdmissionSnapshot.buckets",
                 id="admission-bucket-tokens-not-a-number"),
    pytest.param(_admission, lambda s: replace(s, shed_total="x"),
                 "AdmissionSnapshot.shed_total",
                 id="admission-shed-not-an-int"),
    pytest.param(_admission, lambda s: replace(s, shed_total=True),
                 "AdmissionSnapshot.shed_total", id="admission-shed-a-bool"),
    pytest.param(_admission, lambda s: replace(s, deferred_total=-1),
                 "AdmissionSnapshot.deferred_total",
                 id="admission-negative-deferred"),
    pytest.param(_admission, lambda s: replace(s, deferred=5),
                 "AdmissionSnapshot.deferred",
                 id="admission-deferred-not-iterable"),
    pytest.param(_admission, lambda s: replace(s, buckets={5: (0.5, 3)}),
                 "AdmissionSnapshot.buckets",
                 id="admission-bucket-source-not-a-name"),
    pytest.param(_admission, lambda s: replace(s, buckets={"s": (-0.5, 3)}),
                 "AdmissionSnapshot.buckets",
                 id="admission-bucket-tokens-negative"),
    pytest.param(_admission, lambda s: replace(s, buckets={"s": (1.5, 3)}),
                 "AdmissionSnapshot.buckets",
                 id="admission-bucket-tokens-above-burst"),
    pytest.param(_admission,
                 lambda s: replace(s, buckets={"s": (Fraction(1, 2), 3)}),
                 "AdmissionSnapshot.buckets",
                 id="admission-bucket-tokens-a-fraction"),
    pytest.param(_admission, lambda s: replace(s, buckets={"s": (0.5, 3.0)}),
                 "AdmissionSnapshot.buckets",
                 id="admission-bucket-tick-a-float"),
    pytest.param(_admission, lambda s: replace(s, buckets={"s": (0.5,)}),
                 "AdmissionSnapshot.buckets",
                 id="admission-bucket-state-not-a-pair"),
    pytest.param(lambda: AdmissionController(),
                 lambda s: replace(s, buckets={"s": (1.0, 3)}),
                 "no rate limit", id="admission-buckets-without-rate"),
    pytest.param(_admission,
                 lambda s: replace(s, buckets={"s": (0.5, 3), "t": (True, 3)}),
                 "AdmissionSnapshot.buckets",
                 id="admission-second-bucket-tokens-a-bool"),
]


class TestStageRestoreChecksFirst:
    """Every stage checks a snapshot before it changes anything: a
    malformed value raises ObserverError and leaves the stage as it
    was."""

    @pytest.mark.parametrize("build, spoil, names", _STAGE_REFUSALS)
    def test_refused_and_unchanged(self, build, spoil, names):
        stage = build()
        before = stage.snapshot()
        with pytest.raises(ObserverError, match=names):
            stage.restore(spoil(before))
        assert stage.snapshot() == before
        stage.restore(before)  # the stage's own snapshot still restores
        assert stage.snapshot() == before
