"""Unit tests for the streaming detection runtime."""

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
from repro.core.space_model import PointLocation
from repro.core.spec import EntitySelector, EventSpecification
from repro.core.time_model import TimePoint
from repro.detect.engine import DetectionEngine
from repro.obs import Telemetry, collect
from repro.stream import (
    AdmissionController,
    AdmissionLimits,
    JitteredSource,
    Quarantine,
    RedeliveryDeduper,
    ReplaySource,
    StreamingDetectionRuntime,
    StreamItem,
)
from repro.stream.runtime import arrival_groups


def obs(seq, tick, x=0.0, temp=50.0):
    return PhysicalObservation(
        f"MT{seq}", "SR1", seq, TimePoint(tick), PointLocation(x, 0.0),
        {"temp": temp},
    )


def pair_spec(window=20):
    return EventSpecification(
        event_id="pair",
        selectors={
            "a": EntitySelector(kinds={"temp"}),
            "b": EntitySelector(kinds={"temp"}),
        },
        condition=all_of(
            TemporalCondition(TimeOf("a"), TemporalOp.BEFORE, TimeOf("b")),
            SpatialMeasureCondition(
                "distance", ("a", "b"), RelationalOp.LT, 10.0
            ),
        ),
        window=window,
    )


def hot_spec(cooldown=0):
    return EventSpecification(
        event_id="hot",
        selectors={"x": EntitySelector(kinds={"temp"})},
        condition=AttributeCondition(
            "last", (AttributeTerm("x", "temp"),), RelationalOp.GT, 40.0
        ),
        window=0,
        cooldown=cooldown,
    )


def batches(n, period=1):
    return [(tick * period, [obs(tick, tick * period)]) for tick in range(n)]


class RecordingEngine:
    """A detection-less engine: it records every entity the runtime
    releases, in release order, and matches nothing.  Its snapshot is
    empty, so a restored runtime's recording starts where it is."""

    def __init__(self):
        self.released = []

    def submit_batch(self, entities, tick):
        self.released.extend(entities)
        return []

    def snapshot(self):
        return None

    def restore(self, snapshot):
        pass

    def tallies(self):
        return {}


class TestArrivalGroups:
    def test_groups_by_arrival_tick(self):
        source = ReplaySource([(0, ["a", "b"]), (0, ["c"]), (2, ["d"])])
        groups = list(arrival_groups(source))
        assert [(tick, len(items)) for tick, items in groups] == [(0, 3), (2, 1)]

    def test_rejects_regressing_arrivals(self):
        items = [
            StreamItem(entity="a", event_tick=0, seq=0, arrival_tick=5),
            StreamItem(entity="b", event_tick=0, seq=1, arrival_tick=3),
        ]
        with pytest.raises(ObserverError, match="arrival order"):
            list(arrival_groups(items))


class TestRuntimeOrdering:
    def test_jittered_run_equals_inorder_run(self):
        source = ReplaySource(batches(40), name="t")
        expected, got = [], []
        inorder = StreamingDetectionRuntime(
            DetectionEngine([pair_spec()]), lateness=6, on_match=expected.append
        )
        # A whole-source drain keeps no list: on_match is its one channel.
        assert inorder.run(source) is None
        jittered = StreamingDetectionRuntime(
            DetectionEngine([pair_spec()]), lateness=6, on_match=got.append
        )
        jittered.run(JitteredSource(source, max_delay=6, seed=5))
        assert [(m.spec.event_id, m.tick) for m in got] == [
            (m.spec.event_id, m.tick) for m in expected
        ]
        assert [m.binding for m in got] == [m.binding for m in expected]
        assert jittered.stats.late_observations == 0
        assert jittered.stats.entities_submitted == 40
        assert jittered.stats.reorder_peak >= 1

    def test_cooldown_behavior_preserved_under_jitter(self):
        source = ReplaySource(batches(30), name="t")
        expected, got = [], []
        inorder = StreamingDetectionRuntime(
            DetectionEngine([hot_spec(cooldown=4)]),
            lateness=5,
            on_match=lambda match: expected.append(match.tick),
        )
        inorder.run(source)
        jittered = StreamingDetectionRuntime(
            DetectionEngine([hot_spec(cooldown=4)]),
            lateness=5,
            on_match=lambda match: got.append(match.tick),
        )
        jittered.run(JitteredSource(source, 5, seed=2))
        assert got == expected

    def test_pipeline_releases_in_order(self):
        engine = RecordingEngine()
        runtime = StreamingDetectionRuntime(engine, lateness=4)
        source = ReplaySource(batches(25), name="t")
        runtime.run(JitteredSource(source, 4, seed=7))
        assert engine.released == [item.entity for item in source]

    def test_an_engine_is_required(self):
        with pytest.raises(ObserverError, match="needs an engine"):
            StreamingDetectionRuntime(None, lateness=4)

    def test_on_match_fires_in_emission_order(self):
        seen = []
        runtime = StreamingDetectionRuntime(
            DetectionEngine([hot_spec()]),
            lateness=3,
            on_match=lambda match: seen.append(match.tick),
        )
        source = JitteredSource(ReplaySource(batches(12), name="t"), 3, seed=1)
        for _, group in arrival_groups(source):
            assert runtime.ingest(group) is None
        assert runtime.finish() is None
        assert seen == sorted(seen)
        assert len(seen) == runtime.stats.matches > 0


class TestRuntimeLateness:
    def test_beyond_bound_jitter_is_counted_not_dropped(self):
        source = ReplaySource(batches(60), name="t")
        runtime = StreamingDetectionRuntime(DetectionEngine(), lateness=2)
        # Jitter up to 12 against a bound of 2: lates are likely.
        runtime.run(JitteredSource(source, 12, seed=3))
        assert runtime.stats.late_observations == len(runtime.late_items) > 0
        # Conservation: everything offered is either released or late.
        assert runtime.released_items + runtime.stats.late_observations == 60

    def test_within_bound_jitter_never_late(self):
        source = ReplaySource(batches(60), name="t")
        for seed in range(5):
            runtime = StreamingDetectionRuntime(DetectionEngine(), lateness=9)
            runtime.run(JitteredSource(source, 9, seed=seed))
            assert runtime.stats.late_observations == 0
            assert runtime.released_items == 60

    def test_silent_source_holds_the_frontier_until_finish(self):
        engine = RecordingEngine()
        runtime = StreamingDetectionRuntime(engine, lateness=0)
        runtime.register_source("live")
        runtime.register_source("silent")
        items = list(ReplaySource(batches(6), name="live"))
        runtime.ingest(items[:3])
        # The silent second source pins the watermark: nothing released.
        assert engine.released == []
        runtime.finish()
        assert engine.released == [item.entity for item in items[:3]]

    def test_throughput_counters_populated(self):
        runtime = StreamingDetectionRuntime(
            DetectionEngine([hot_spec()]), lateness=3
        )
        runtime.run(JitteredSource(ReplaySource(batches(30), name="t"), 3))
        stats = runtime.stats
        assert stats.batches_submitted > 0
        assert stats.matches == 30


class TestStepBoundaryRefresh:
    """Regression: ``finish()`` released items without refreshing the
    exported occupancy gauge, so a drained stream still read full and
    under pressure; and the exported watermark kept its last value after
    ``finish()`` had closed every source and left no merged watermark."""

    @staticmethod
    def exported(runtime, name):
        values = [s.value for s in collect(runtime) if s.name == name]
        return values[0] if values else None

    def test_finish_leaves_an_empty_released_reading(self):
        runtime = StreamingDetectionRuntime(
            DetectionEngine(),
            lateness=30,  # wide bound: nothing releases before finish()
            admission=AdmissionController(AdmissionLimits(max_pending=4)),
            telemetry=Telemetry.create(),
        )
        runtime.register_source("t")
        for item in ReplaySource(batches(4), name="t"):
            runtime.ingest([item])
        assert self.exported(runtime, "stream_reorder_occupancy") == 4
        assert runtime.admission.engaged(runtime.buffer.occupancy)
        runtime.finish()
        assert runtime.buffer.occupancy == 0
        assert self.exported(runtime, "stream_reorder_occupancy") == 0
        assert not runtime.admission.engaged(runtime.buffer.occupancy)
        # finish() is not a delivery step: the duty cycle's numerator
        # and denominator both stay where the four steps left them.
        assert runtime.stats.delivery_steps == 4
        assert runtime.stats.backpressure_events == 2

    def test_finish_leaves_no_watermark(self):
        runtime = StreamingDetectionRuntime(
            DetectionEngine(),
            lateness=0, telemetry=Telemetry.create()
        )
        runtime.register_source("t")
        for item in ReplaySource(batches(4), name="t"):
            runtime.ingest([item])
        assert self.exported(runtime, "stream_watermark") == 3
        runtime.finish()
        assert runtime.tracker.watermark() is None
        assert self.exported(runtime, "stream_watermark") is None

    def test_finish_refreshes_the_gauges(self):
        runtime = StreamingDetectionRuntime(
            DetectionEngine(), lateness=0, telemetry=Telemetry.create()
        )
        runtime.register_source("live")
        runtime.register_source("silent")  # pins the watermark
        runtime.ingest(list(ReplaySource(batches(1), name="live")))
        assert self.exported(runtime, "stream_reorder_occupancy") == 1
        runtime.finish()
        assert runtime.buffer.occupancy == 0
        assert self.exported(runtime, "stream_reorder_occupancy") == 0
        released = self.exported(runtime, "stream_observations_released_total")
        assert released == runtime.released_items == 1


class TestAtomicIngest:
    """Each way a delivery step can be refused raises before anything
    mutates and leaves ``runtime.snapshot()`` as it was."""

    @staticmethod
    def _stamped(seq, event, arrival, source="a"):
        return StreamItem(entity=obs(seq, event), event_tick=event, seq=seq,
                          arrival_tick=arrival, source=source)

    @pytest.mark.parametrize(
        "step, complaint",
        [
            # The whole step arrives before the bucket's last take.
            pytest.param([(1, 3, 4), (2, 4, 4)], "clock would regress",
                         id="step-behind-its-bucket"),
            # Only the deferred item's bucket ("a") is ahead of the step.
            pytest.param([(1, 3, 4, "b")], "clock would regress",
                         id="step-behind-a-deferred-source"),
            # In step order the second arrival precedes the first.
            pytest.param([(1, 5, 6), (2, 5, 5)], "arrival ticks regress",
                         id="arrivals-regress-within-the-step"),
            # Across two sources neither of which has anything deferred:
            # each bucket alone would have taken this step (a narrowing,
            # on purpose — whichever item survives screening first sets
            # the tick the deferred items are re-offered at).
            pytest.param([(1, 6, 7, "b"), (2, 6, 6, "c")],
                         "arrival ticks regress",
                         id="arrivals-regress-across-sources"),
        ],
    )
    def test_rate_limited_step_with_a_regressing_clock_changes_nothing(
        self, step, complaint
    ):
        """Regression: the token bucket refused the regressing clock from
        inside ``intake`` — after ``delivery_steps`` had moved and the
        deduper had recorded the step's seqs, so the caller's corrected
        retry was dropped as duplicates: lost without being late, shed
        or released."""
        runtime = StreamingDetectionRuntime(
            DetectionEngine(),
            lateness=4,
            admission=AdmissionController(AdmissionLimits(rate=1.0, burst=1)),
            quarantine=Quarantine(),
            dedup=RedeliveryDeduper(),
        )
        for source in "abc":
            runtime.register_source(source)
        # Tick 5: one token, so the second item waits in the deferral
        # queue and "a"'s bucket clock stands at 5.
        runtime.ingest([self._stamped(0, 5, 5), self._stamped(9, 5, 5)])
        assert runtime.admission.metrics_view()["deferred_depth"] == 1
        before = runtime.snapshot()
        bad = [self._stamped(*fields) for fields in step]
        with pytest.raises(ObserverError, match=complaint):
            runtime.ingest(bad)
        assert runtime.snapshot() == before
        # The corrected step is admitted, not dropped as a redelivery.
        retry = [
            self._stamped(it.seq, it.event_tick, 6, it.source) for it in bad
        ]
        runtime.ingest(retry)
        runtime.finish()
        stats = runtime.stats
        assert stats.duplicates_dropped == 0
        assert (
            stats.released_items + stats.late_observations
            == 2 + len(retry)
        )

    @pytest.mark.parametrize(
        "step",
        [
            pytest.param([object()], id="an-object"),
            pytest.param([None], id="none"),
            pytest.param(5, id="not-a-sequence"),
            pytest.param("ab", id="a-string"),
            pytest.param(
                lambda: [TestAtomicIngest._stamped(1, 1, 1), None],
                id="a-bad-item-after-a-good-one",
            ),
        ],
    )
    @pytest.mark.parametrize(
        "quarantine", [None, Quarantine], ids=["bare", "quarantined"]
    )
    def test_a_malformed_step_is_refused_whole(self, step, quarantine):
        runtime = StreamingDetectionRuntime(
            DetectionEngine(),
            lateness=4,
            quarantine=quarantine and quarantine(),
        )
        runtime.register_source("a")
        runtime.ingest([self._stamped(0, 0, 0)])
        before, stats = runtime.snapshot(), runtime.stats
        with pytest.raises(ObserverError, match="list or tuple of StreamItem"):
            runtime.ingest(step() if callable(step) else step)
        assert runtime.snapshot() == before
        assert runtime.stats == stats

    def test_a_tuple_is_a_step(self):
        runtime = StreamingDetectionRuntime(DetectionEngine(), lateness=0)
        runtime.register_source("a")
        runtime.ingest((self._stamped(0, 0, 1), self._stamped(1, 1, 1)))
        runtime.finish()
        assert runtime.stats.released_items == 2

    def test_arrival_order_is_a_precondition_only_under_a_rate_limit(self):
        # No rate, no bucket clocks: the same cross-source step is fine.
        runtime = StreamingDetectionRuntime(
            DetectionEngine(),
            lateness=4,
            admission=AdmissionController(AdmissionLimits(max_pending=8)),
        )
        runtime.ingest(
            [self._stamped(1, 6, 7, "b"), self._stamped(2, 6, 6, "c")]
        )
        assert runtime.buffer.occupancy == 2

    @pytest.mark.parametrize(
        "late",
        [
            pytest.param(lambda r: r.ingest([TestAtomicIngest._stamped(
                1, 5, 5)]), id="ingest-known-source"),
            pytest.param(lambda r: r.ingest([TestAtomicIngest._stamped(
                1, 5, 5, "new")]), id="ingest-new-source"),
            pytest.param(lambda r: r.ingest([]), id="ingest-empty-step"),
            pytest.param(lambda r: r.register_source("new"),
                         id="register-new-source"),
            pytest.param(lambda r: r.register_source("a"),
                         id="register-known-source"),
        ],
    )
    def test_nothing_enters_after_finish(self, late):
        """Regression: after ``finish()`` a step naming a source the
        runtime had never seen was still accepted: it was buffered,
        counted and never released."""
        runtime = StreamingDetectionRuntime(
            DetectionEngine(),
            lateness=2,
            admission=AdmissionController(AdmissionLimits(max_pending=8)),
            dedup=RedeliveryDeduper(),
        )
        runtime.register_source("a")
        runtime.ingest([self._stamped(0, 0, 0)])
        runtime.finish()
        before = runtime.snapshot()
        with pytest.raises(ObserverError, match="stream has ended"):
            late(runtime)
        assert runtime.snapshot() == before


class TestUncooperativeSources:
    def test_non_callable_throttle_attribute_is_ignored(self):
        # A source may carry a `throttle` attribute that is plain
        # metadata; run() must treat it as a non-cooperating source,
        # not call it.
        class OddSource:
            name = "t"
            throttle = "busy"

            def __iter__(self):
                return iter(ReplaySource(batches(10), name="t"))

        engine = RecordingEngine()
        runtime = StreamingDetectionRuntime(engine, lateness=4)
        runtime.run(OddSource())
        assert engine.released == [
            item.entity for item in ReplaySource(batches(10), name="t")
        ]


class TestEveryRuntimeHasTheSameStages:
    def test_admission_and_telemetry_are_always_stages(self):
        runtime = StreamingDetectionRuntime(DetectionEngine(), lateness=4)
        assert list(runtime.stages) == [
            "admission", "reorder", "watermark", "engine", "telemetry",
        ]
        assert runtime.stages["admission"] is runtime.admission
        assert runtime.stages["telemetry"] is runtime.telemetry
        assert runtime.admission.limits == AdmissionLimits()
        assert not runtime.telemetry.enabled


_OPTIONAL_PARTS = {
    "quarantine": Quarantine,
    "dedup": RedeliveryDeduper,
    "admission": lambda: AdmissionController(
        AdmissionLimits(max_pending=10**6, rate=1e6, burst=1e6)
    ),
    "telemetry": lambda: Telemetry.create(trace_every=1),
}
"""The screens, and the two parts every runtime has, set so they act on
every step without changing anything on a clean feed."""


def _subsets():
    names = list(_OPTIONAL_PARTS)
    for mask in range(1 << len(names)):
        chosen = tuple(n for i, n in enumerate(names) if mask >> i & 1)
        yield pytest.param(chosen, id="+".join(chosen) or "bare")


class TestAbsentStageIsANoOpStage:
    """Every part in :data:`_OPTIONAL_PARTS` changes nothing on a clean
    feed: a screen may be listed in the stage table or not, admission
    may have slack limits or none, telemetry may trace or not."""

    GROUPS = list(
        arrival_groups(
            JitteredSource(
                ReplaySource(batches(40), name="t"), max_delay=6, seed=3
            )
        )
    )

    def _runtime(self, parts, matches):
        runtime = StreamingDetectionRuntime(
            DetectionEngine([pair_spec(), hot_spec()]),
            lateness=6,
            on_match=matches.append,
            **{name: _OPTIONAL_PARTS[name]() for name in parts},
        )
        runtime.register_source("t")
        return runtime

    @staticmethod
    def _keys(matches):
        return [(m.spec.event_id, m.tick, m.binding) for m in matches]

    @staticmethod
    def _drive(runtime, groups):
        for _, group in groups:
            runtime.ingest(group)

    @pytest.mark.parametrize("parts", _subsets())
    def test_same_matches_balance_and_resume(self, parts):
        expected = []
        bare = self._runtime((), expected)
        self._drive(bare, self.GROUPS)
        bare.finish()

        half = len(self.GROUPS) // 2
        matches = []
        runtime = self._runtime(parts, matches)
        self._drive(runtime, self.GROUPS[:half])
        checkpoint = runtime.snapshot()
        head = len(matches)
        self._drive(runtime, self.GROUPS[half:])
        runtime.finish()
        assert self._keys(matches) == self._keys(expected)

        stats = runtime.stats
        offered = sum(len(group) for _, group in self.GROUPS)
        assert offered == (
            stats.released_items
            + stats.late_observations
            + stats.shed_observations
            + stats.duplicates_dropped
            + stats.quarantined_observations
        )

        again = []
        resumed = self._runtime(parts, again)
        resumed.restore(checkpoint)
        self._drive(resumed, self.GROUPS[half:])
        resumed.finish()
        assert self._keys(again) == self._keys(matches[head:])
