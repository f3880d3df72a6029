"""Unit tests for the bounded-ingestion admission layer."""

import pytest

from repro.core.errors import ObserverError
from repro.detect.engine import DetectionEngine
from repro.stream import (
    AdmissionController,
    AdmissionLimits,
    Backpressure,
    PacedSource,
    Priority,
    PriorityMap,
    ReplaySource,
    StreamingDetectionRuntime,
    StreamItem,
)
from repro.stream.admission import (
    DegradeToSampling,
    DropLowestPriority,
    DropOldestLate,
    TokenBucket,
    resolve_policy,
)
from repro.stream.reorder import ReorderBuffer
from repro.stream.runtime import arrival_groups

from tests.stream.test_runtime import batches, hot_spec, obs


def item(tick, seq=None, arrival=None, source="replay"):
    return StreamItem(
        entity=obs(seq if seq is not None else tick, tick),
        event_tick=tick,
        seq=seq if seq is not None else tick,
        arrival_tick=arrival if arrival is not None else tick,
        source=source,
    )


class TestTokenBucket:
    def test_starts_full_then_drains(self):
        bucket = TokenBucket(rate=1.0, burst=3)
        assert [bucket.try_take(0) for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refills_with_ticks_up_to_burst(self):
        bucket = TokenBucket(rate=0.5, burst=2)
        assert bucket.try_take(0) and bucket.try_take(0)
        assert not bucket.try_take(1)  # only 0.5 refilled
        assert bucket.try_take(2)  # 1.0 refilled
        assert bucket.try_take(100)  # capped at burst, not 49 tokens
        assert bucket.try_take(100)
        assert not bucket.try_take(100)

    def test_clock_regression_raises(self):
        bucket = TokenBucket(rate=1.0)
        bucket.try_take(5)
        with pytest.raises(ObserverError, match="regress"):
            bucket.try_take(4)

    def test_validation(self):
        with pytest.raises(ObserverError, match="rate"):
            TokenBucket(rate=0.0)
        with pytest.raises(ObserverError, match="burst"):
            TokenBucket(rate=1.0, burst=0.5)

    def test_state_round_trip(self):
        bucket = TokenBucket(rate=0.25, burst=4)
        for _ in range(3):
            bucket.try_take(8)
        clone = TokenBucket(rate=0.25, burst=4)
        clone.restore(bucket.state())
        assert clone.tokens == bucket.tokens
        assert [clone.try_take(12), bucket.try_take(12)] == [True, True]
        assert clone.state() == bucket.state()


class TestPriorityMap:
    def test_default_class(self):
        assert PriorityMap().of(item(0)) is Priority.OPERATIONAL

    def test_source_override(self):
        priorities = PriorityMap(sources={"safety": Priority.SAFETY_CRITICAL})
        assert priorities.of(item(0, source="safety")) is (
            Priority.SAFETY_CRITICAL
        )
        assert priorities.of(item(0, source="other")) is Priority.OPERATIONAL

    def test_classifier_wins_and_none_falls_through(self):
        priorities = PriorityMap(
            default=Priority.ANALYTICS,
            sources={"s": Priority.OPERATIONAL},
            classify=lambda it: (
                Priority.SAFETY_CRITICAL if it.event_tick == 7 else None
            ),
        )
        assert priorities.of(item(7, source="s")) is Priority.SAFETY_CRITICAL
        assert priorities.of(item(3, source="s")) is Priority.OPERATIONAL
        assert priorities.of(item(3, source="x")) is Priority.ANALYTICS


class TestSheddingPolicies:
    def _full_buffer(self, ticks=(5, 9, 3)):
        # Filed under the default map's classes, as the runtime wires it.
        buffer = ReorderBuffer(rank=PriorityMap().of)
        items = [item(t) for t in ticks]
        for it in items:
            buffer.offer(it)
        return buffer, items

    def test_drop_oldest_late_names_event_time_oldest(self):
        buffer, items = self._full_buffer()
        victim = DropOldestLate().make_room(item(20), buffer, PriorityMap(), {})
        assert victim is items[2]  # tick 3

    def test_drop_lowest_priority_prefers_weaker_class(self):
        priorities = PriorityMap(
            sources={
                "safety": Priority.SAFETY_CRITICAL,
                "analytics": Priority.ANALYTICS,
            }
        )
        buffer = ReorderBuffer(rank=priorities.of)
        weak = item(4, source="analytics")
        strong = item(2, source="safety")
        buffer.offer(weak)
        buffer.offer(strong)
        incoming = item(9, source="safety")
        victim = DropLowestPriority().make_room(
            incoming, buffer, priorities, {}
        )
        assert victim is weak

    def test_drop_lowest_priority_never_displaces_equal_class(self):
        buffer, _ = self._full_buffer()
        assert (
            DropLowestPriority().make_room(item(9), buffer, PriorityMap(), {})
            is None
        )

    def test_drop_lowest_priority_refuses_a_buffer_without_classes(self):
        # The policy reads the classes the buffer filed its items under;
        # a buffer built without a classifier has none, and saying so
        # beats silently shedding the wrong item.
        buffer = ReorderBuffer()
        buffer.offer(item(4))
        with pytest.raises(ObserverError, match="without a classifier"):
            DropLowestPriority().make_room(item(9), buffer, PriorityMap(), {})

    def test_degrade_to_sampling_admits_every_stride_th(self):
        buffer, _ = self._full_buffer()
        policy = DegradeToSampling(stride=3)
        state = {}
        verdicts = [
            policy.make_room(item(20 + i), buffer, PriorityMap(), state)
            is not None
            for i in range(6)
        ]
        assert verdicts == [True, False, False, True, False, False]

    @pytest.mark.parametrize(
        "value", [0, -1, True, False, 2.5, 2.0, float("nan"), float("inf"), "2", None]
    )
    def test_sampling_stride_must_be_a_positive_int(self, value):
        with pytest.raises(ObserverError, match="stride"):
            DegradeToSampling(stride=value)

    def test_sampling_stride_accepts_one(self):
        assert DegradeToSampling(stride=1).stride == 1

    def test_sampling_counters_are_per_source(self):
        buffer, _ = self._full_buffer()
        policy = DegradeToSampling(stride=2)
        state = {}
        assert policy.make_room(item(20, source="a"), buffer, PriorityMap(), state)
        assert policy.make_room(item(21, source="b"), buffer, PriorityMap(), state)
        assert state == {"sample:a": 1, "sample:b": 1}

    def test_resolve_policy(self):
        assert resolve_policy("drop_oldest_late").name == "drop_oldest_late"
        custom = DegradeToSampling(stride=5)
        assert resolve_policy(custom) is custom
        with pytest.raises(ObserverError, match="unknown shedding policy"):
            resolve_policy("nope")


class TestAdmissionLimits:
    def test_validation(self):
        with pytest.raises(ObserverError, match="max_pending"):
            AdmissionLimits(max_pending=-1)
        with pytest.raises(ObserverError, match="max_deferred"):
            AdmissionLimits(max_deferred=-2)
        with pytest.raises(ObserverError, match="backpressure_ratio"):
            AdmissionLimits(backpressure_ratio=0.0)
        with pytest.raises(ObserverError, match="rate"):
            AdmissionLimits(rate=-1.0)

    @pytest.mark.parametrize(
        "limits, complaint",
        [
            ({"rate": 1.0, "burst": 0.5}, "burst"),
            ({"rate": 1.0, "burst": float("nan")}, "burst"),
            ({"rate": 1.0, "burst": float("inf")}, "burst"),
            ({"rate": float("nan")}, "rate"),
            ({"rate": float("inf")}, "rate"),
            ({"max_pending": 1.5}, "max_pending"),
            ({"max_pending": True}, "max_pending"),
            ({"max_deferred": 2.5}, "max_deferred"),
            ({"late_retention": -1}, "late_retention"),
            ({"late_retention": 4.0}, "late_retention"),
        ],
        ids=[
            "burst below 1",
            "nan burst",
            "inf burst",
            "nan rate",
            "inf rate",
            "fractional cap",
            "bool cap",
            "fractional deferral cap",
            "negative late retention",
            "float late retention",
        ],
    )
    def test_a_bucket_that_cannot_be_built_is_refused_up_front(
        self, limits, complaint
    ):
        # A bucket is built at the first rate-limited intake, and a cap
        # or a retention is first used when the runtime builds its buffer
        # or takes a step, after the screens ahead of admission recorded
        # it: refusing either there would lose the step's items to the
        # dedup record.
        with pytest.raises(ObserverError, match=complaint):
            AdmissionLimits(**limits)


class TestAdmissionController:
    def test_no_rate_admits_everything(self):
        controller = AdmissionController()
        assert len(controller.intake([item(t) for t in range(10)])) == 10
        assert controller.shed_total == 0 and controller.deferred_total == 0

    def test_over_rate_defers_then_drains_on_refill(self):
        controller = AdmissionController(AdmissionLimits(rate=1.0, burst=2))
        first = controller.intake([item(0, seq=s, arrival=0) for s in range(4)])
        assert [i.seq for i in first] == [0, 1]
        assert controller.deferred_depth == controller.deferred_total == 2
        second = controller.intake([item(0, seq=9, arrival=3)])
        # 3 ticks refill 3 tokens, capped at burst 2: both deferred items
        # drain, the new arrival waits its turn behind them.
        assert [i.seq for i in second] == [2, 3]
        assert controller.deferred_total == 3

    def test_deferral_overflow_sheds_and_counts_class(self):
        controller = AdmissionController(
            AdmissionLimits(rate=1.0, burst=1, max_deferred=1)
        )
        admitted = controller.intake(
            [item(0, seq=s, arrival=0) for s in range(4)]
        )
        assert len(admitted) == 1
        assert controller.deferred_total == 1
        assert controller.shed_by_priority == {"OPERATIONAL": 2}
        assert controller.shed_total == 2

    def test_flush_deferred_empties_the_queue(self):
        controller = AdmissionController(AdmissionLimits(rate=1.0, burst=1))
        controller.intake([item(0, seq=s, arrival=0) for s in range(3)])
        assert len(controller.flush_deferred()) == 2
        assert controller.deferred_depth == 0

    def test_backpressure_levels(self):
        controller = AdmissionController(
            AdmissionLimits(max_pending=10, backpressure_ratio=0.75)
        )
        calm = controller.backpressure(occupancy=5, watermark=3)
        assert not calm.engaged and calm.level == 0.5
        hot = controller.backpressure(occupancy=9, watermark=3)
        assert hot.engaged and hot.level == 0.9
        assert hot.pending_limit == 10 and hot.watermark == 3

    def test_deferral_engages_backpressure(self):
        # Unbounded deferral: any parked item is full pressure (only
        # bucket refill ever drains the queue).
        controller = AdmissionController(AdmissionLimits(rate=1.0, burst=1))
        controller.intake([item(0, seq=s, arrival=0) for s in range(3)])
        signal = controller.backpressure(occupancy=0, watermark=None)
        assert signal.engaged and signal.level == 1.0 and signal.deferred == 2

    def test_deferral_depth_is_gated_by_backpressure_ratio(self):
        controller = AdmissionController(
            AdmissionLimits(rate=1.0, burst=1, max_deferred=4)
        )
        controller.intake([item(0, seq=s, arrival=0) for s in range(2)])
        shallow = controller.backpressure(occupancy=0, watermark=None)
        assert not shallow.engaged and shallow.level == 0.25
        controller.intake([item(0, seq=s, arrival=0) for s in range(2, 4)])
        deep = controller.backpressure(occupancy=0, watermark=None)
        assert deep.engaged and deep.level == 0.75 and deep.deferred == 3

    def test_zero_occupancy_cap_reads_saturated(self):
        # max_pending=0 sheds every in-order offer; the signal must say
        # so instead of reporting level 0 forever.
        controller = AdmissionController(AdmissionLimits(max_pending=0))
        signal = controller.backpressure(occupancy=0, watermark=None)
        assert signal.engaged and signal.level == 1.0

    def test_snapshot_restore_round_trip(self):
        limits = AdmissionLimits(rate=0.5, burst=2, max_deferred=8)
        controller = AdmissionController(limits, shedding="degrade_to_sampling")
        controller.intake([item(0, seq=s, arrival=0) for s in range(5)])
        controller.note_shed(item(1, seq=90, arrival=1))
        controller.policy_state["sample:replay"] = 3
        clone = AdmissionController(limits, shedding="degrade_to_sampling")
        clone.restore(controller.snapshot())
        assert clone.deferred_depth == controller.deferred_depth
        assert clone.shed_by_priority == controller.shed_by_priority
        assert clone.policy_state == controller.policy_state
        assert clone.deferred_total == controller.deferred_total == 3
        left = clone.intake([item(0, seq=50, arrival=10)])
        right = controller.intake([item(0, seq=50, arrival=10)])
        assert [i.seq for i in left] == [i.seq for i in right]

    def test_restore_rejects_bucket_state_without_rate(self):
        limited = AdmissionController(AdmissionLimits(rate=1.0))
        limited.intake([item(0)])
        unlimited = AdmissionController()
        with pytest.raises(ObserverError, match="rate limit"):
            unlimited.restore(limited.snapshot())


class TestBoundedRuntime:
    def _surge(self, n=40, per_tick=4):
        """A bursty in-order feed: ``per_tick`` co-arriving items."""
        out = []
        seq = 0
        for tick in range(n):
            for _ in range(per_tick):
                out.append(item(tick, seq=seq, arrival=tick))
                seq += 1
        return out

    def test_zero_limit_controller_is_behavior_identical(self):
        groups = list(arrival_groups(ReplaySource(batches(30))))
        plain = StreamingDetectionRuntime(
            DetectionEngine([hot_spec()]), lateness=2
        )
        bounded = StreamingDetectionRuntime(
            DetectionEngine([hot_spec()]), lateness=2,
            admission=AdmissionController(),
        )
        plain_matches, bounded_matches = [], []
        for _, group in groups:
            plain_matches.extend(plain.ingest(group))
            bounded_matches.extend(bounded.ingest(group))
        plain_matches.extend(plain.finish())
        bounded_matches.extend(bounded.finish())
        assert [
            (m.spec.event_id, m.tick, dict(m.binding))
            for m in bounded_matches
        ] == [
            (m.spec.event_id, m.tick, dict(m.binding))
            for m in plain_matches
        ]
        assert bounded.stats.shed_observations == 0
        assert bounded.stats.deferred_observations == 0
        assert bounded.stats.entities_submitted == (
            plain.stats.entities_submitted
        )

    def test_occupancy_cap_is_enforced_with_exact_accounting(self):
        cap = 6
        runtime = StreamingDetectionRuntime(
            lateness=30,  # wide bound: watermark barely releases
            admission=AdmissionController(AdmissionLimits(max_pending=cap)),
        )
        offered = self._surge()
        runtime.run(iter(offered))
        stats = runtime.stats
        assert stats.reorder_peak <= cap
        assert stats.shed_observations > 0
        assert (
            runtime.released_items
            + runtime.buffer.late_count
            + stats.shed_observations
            == len(offered)
        )

    def test_rate_limit_conserves_every_observation(self):
        runtime = StreamingDetectionRuntime(
            lateness=1,
            admission=AdmissionController(
                AdmissionLimits(rate=1.0, burst=1)
            ),
        )
        offered = self._surge(n=10, per_tick=3)
        runtime.run(iter(offered))
        stats = runtime.stats
        assert stats.deferred_observations > 0
        # Deferral is resolved by finish(): everything offered ends up
        # released, late or shed — nothing is silently parked.
        assert (
            runtime.released_items
            + runtime.buffer.late_count
            + stats.shed_observations
            == len(offered)
        )

    def test_deferred_item_can_pay_the_lateness_cost(self):
        runtime = StreamingDetectionRuntime(
            lateness=0,
            admission=AdmissionController(
                AdmissionLimits(rate=1.0, burst=1)
            ),
        )
        fresh = item(9, seq=0, arrival=9)
        stale = item(0, seq=1, arrival=9)
        runtime.ingest([fresh, stale])  # one token: ``stale`` defers
        assert runtime.stats.deferred_observations == 1
        runtime.finish()
        # While ``stale`` waited, the watermark passed its event tick:
        # the deferral cost surfaces as a counted late observation.
        assert runtime.buffer.late_count == 1
        assert runtime.released_items == 1
        assert (
            runtime.released_items
            + runtime.buffer.late_count
            + runtime.stats.shed_observations
            == 2
        )

    def test_deferred_item_from_since_closed_source_drains_cleanly(self):
        runtime = StreamingDetectionRuntime(
            lateness=0,
            admission=AdmissionController(
                AdmissionLimits(rate=1.0, burst=1)
            ),
        )
        runtime.register_source("a")
        runtime.register_source("b")
        runtime.ingest(
            [
                item(0, seq=0, arrival=0, source="a"),
                item(0, seq=1, arrival=0, source="a"),  # over rate: defers
            ]
        )
        assert runtime.admission.deferred_depth == 1
        runtime.close_source("a")
        # The deferred item's source closed while it waited.  The next
        # step names only open sources, so it must drain the refilled
        # deferral queue without raising mid-mutation — the straggler is
        # offered without re-opening "a" and stays on the books.
        runtime.ingest([item(5, seq=2, arrival=5, source="b")])
        assert runtime.admission.deferred_depth == 0
        runtime.finish()
        assert (
            runtime.released_items
            + runtime.buffer.late_count
            + runtime.stats.shed_observations
            == 3
        )

    def test_priority_protects_safety_critical_under_cap(self):
        priorities = PriorityMap(
            sources={
                "safety": Priority.SAFETY_CRITICAL,
                "analytics": Priority.ANALYTICS,
            }
        )
        controller = AdmissionController(
            AdmissionLimits(max_pending=3),
            priorities=priorities,
            shedding="drop_lowest_priority",
        )
        runtime = StreamingDetectionRuntime(
            lateness=100, admission=controller
        )
        runtime.register_source("analytics")
        runtime.register_source("safety")
        analytics = [
            item(t, seq=t, arrival=10, source="analytics") for t in range(3)
        ]
        safety = [
            item(5 + t, seq=10 + t, arrival=10, source="safety")
            for t in range(3)
        ]
        runtime.ingest(analytics + safety)
        kept = {it.source for it in runtime.buffer.pending()}
        assert kept == {"safety"}
        assert controller.shed_by_priority == {"ANALYTICS": 3}

    def test_a_cap_introduced_between_steps_finds_the_buffer_classified(self):
        # ``controller.limits`` may be replaced while the runtime runs, so
        # even a controller that cannot shed as built keeps the buffer's
        # class index: items buffered before the cap existed lose by class.
        controller = AdmissionController(
            priorities=PriorityMap(
                sources={
                    "safety": Priority.SAFETY_CRITICAL,
                    "analytics": Priority.ANALYTICS,
                }
            ),
            shedding="drop_lowest_priority",
        )
        runtime = StreamingDetectionRuntime(lateness=100, admission=controller)
        runtime.register_source("analytics")
        runtime.register_source("safety")
        runtime.ingest(
            [item(t, seq=t, arrival=10, source="analytics") for t in range(3)]
        )
        controller.limits = AdmissionLimits(max_pending=3)
        runtime.ingest(
            [item(5, seq=10, arrival=11, source="safety")]
        )
        assert controller.shed_by_priority == {"ANALYTICS": 1}
        assert [it.seq for it in runtime.buffer.pending()] == [0, 1, 10]

    def test_backpressure_throttles_paced_source(self):
        def bounded(source):
            controller = AdmissionController(
                AdmissionLimits(rate=1.0, burst=4, max_deferred=2)
            )
            runtime = StreamingDetectionRuntime(
                lateness=30, admission=controller
            )
            runtime.run(source)
            return runtime

        offered = self._surge(n=12, per_tick=4)
        unpaced = bounded(iter(offered))
        paced_source = PacedSource(iter(offered), slowdown=4, name="replay")
        paced = bounded(paced_source)
        assert paced.stats.backpressure_events > 0
        assert paced_source.throttle_count > 0
        # Spacing deliveries gives the token buckets time to refill, so
        # a cooperating producer loses strictly less than a firehose.
        assert paced.stats.shed_observations < unpaced.stats.shed_observations

    def test_restore_recomputes_backpressure_from_restored_state(self):
        # A checkpoint taken under pressure must surface that pressure
        # immediately on restore — a paced source resuming from it
        # would otherwise run unthrottled for its first step.
        limits = AdmissionLimits(max_pending=4, backpressure_ratio=0.5)

        def runtime():
            return StreamingDetectionRuntime(
                lateness=30, admission=AdmissionController(limits)
            )

        loaded = runtime()
        loaded.register_source("replay")
        for _, group in arrival_groups(iter(self._surge(n=1, per_tick=3))):
            loaded.ingest(group)
        assert loaded.last_backpressure is not None
        assert loaded.last_backpressure.engaged
        resumed = runtime()
        resumed.restore(loaded.snapshot())
        assert resumed.last_backpressure is not None
        assert resumed.last_backpressure.engaged
        assert resumed.last_backpressure == loaded.last_backpressure

    def test_checkpoint_through_active_shedding(self):
        limits = AdmissionLimits(max_pending=5, rate=2.0, burst=2)

        def runtime():
            return StreamingDetectionRuntime(
                lateness=30,
                admission=AdmissionController(limits),
            )

        offered = self._surge(n=20, per_tick=4)
        groups = list(arrival_groups(iter(offered)))
        half = len(groups) // 2
        first = runtime()
        for _, group in groups[:half]:
            first.ingest(group)
        assert first.stats.shed_observations > 0, "cut mid-shedding"
        checkpoint = first.snapshot()
        resumed = runtime()
        resumed.restore(checkpoint)
        for _, group in groups[half:]:
            first.ingest(group)
            resumed.ingest(group)
        first.finish()
        resumed.finish()
        assert resumed.released_items == first.released_items
        assert resumed.stats.shed_observations == (
            first.stats.shed_observations
        )
        assert resumed.buffer.late_count == first.buffer.late_count
        assert (
            resumed.released_items
            + resumed.buffer.late_count
            + resumed.stats.shed_observations
            == len(offered)
        )


class TestPacedSource:
    def test_zero_throttles_is_identity(self):
        offered = [item(t, arrival=t + 1) for t in range(5)]
        paced = PacedSource(iter(offered), name="replay")
        assert list(paced) == offered

    def test_throttle_delays_remaining_arrivals_in_order(self):
        offered = [item(t, arrival=t) for t in range(4)]
        paced = PacedSource(iter(offered), slowdown=3, name="replay")
        iterator = iter(paced)
        first = next(iterator)
        assert first.arrival_tick == 0
        paced.throttle(
            Backpressure(True, 1.0, 9, 8, 0, None)
        )
        rest = list(iterator)
        assert [it.arrival_tick for it in rest] == [4, 5, 6]
        assert paced.throttle_count == 1

    def test_slowdown_validation(self):
        with pytest.raises(ObserverError, match="slowdown"):
            PacedSource(iter([]), slowdown=0, name="replay")
