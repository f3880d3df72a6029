"""Unit tests for the bounded-ingestion admission layer."""

from fractions import Fraction

import pytest

from repro.core.errors import ObserverError
from repro.detect.engine import DetectionEngine
from repro.stream import (
    AdmissionController,
    AdmissionLimits,
    PacedSource,
    ReplaySource,
    StreamingDetectionRuntime,
    StreamItem,
)
from repro.stream.admission import TokenBucket
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

    def test_state_round_trip(self):
        bucket = TokenBucket(rate=0.25, burst=4)
        for _ in range(3):
            bucket.try_take(8)
        clone = TokenBucket(rate=0.25, burst=4)
        clone.restore(bucket.state())
        assert clone.tokens == bucket.tokens
        assert [clone.try_take(12), bucket.try_take(12)] == [True, True]
        assert clone.state() == bucket.state()

    @pytest.mark.parametrize(
        "state",
        [(0, None), (0.0, 3), (4, 7), (4.0, 0)],
        ids=["empty-never-ticked", "empty-float", "full-int", "full-float"],
    )
    def test_restore_accepts_every_state_in_bounds(self, state):
        # 0 <= tokens <= burst, both ends included, int or float tokens.
        bucket = TokenBucket(rate=0.25, burst=4)
        bucket.restore(state)
        assert bucket.state() == (float(state[0]), state[1])
        assert bucket.tokens == float(state[0])


class TestSheddingRules:
    def _full_buffer(self, ticks=(5, 9, 3)):
        buffer = ReorderBuffer()
        items = [item(t) for t in ticks]
        for it in items:
            buffer.offer(it)
        return buffer, items

    def test_drop_oldest_late_evicts_the_event_time_oldest(self):
        buffer, items = self._full_buffer()
        controller = AdmissionController()
        assert controller.make_room(item(20), buffer) is items[2]  # tick 3
        assert buffer.pending() == [items[0], items[1]]
        assert controller.shed_total == 1

    def test_drop_lowest_priority_sheds_every_at_cap_arrival(self):
        # One class: nothing buffered ranks below an arrival, so the
        # arrival is the loser every time, whatever its event tick.
        cap = 3
        controller = AdmissionController(
            AdmissionLimits(max_pending=cap), shedding="drop_lowest_priority"
        )
        runtime = StreamingDetectionRuntime(
            DetectionEngine(), lateness=100, admission=controller
        )
        runtime.register_source("replay")
        runtime.ingest([item(t, arrival=10) for t in (5, 9, 3)])
        held = runtime.buffer.pending()
        assert runtime.buffer.occupancy == cap
        arrivals = [item(t, seq=20 + t, arrival=40) for t in (0, 4, 7, 30)]
        for shed, arrival in enumerate(arrivals, start=1):
            runtime.ingest([arrival])
            assert controller.shed_total == shed
            assert runtime.buffer.occupancy == cap
            pending = runtime.buffer.pending()
            assert len(pending) == len(held)
            assert all(a is b for a, b in zip(pending, held))
        assert runtime.stats.shed_observations == len(arrivals)
        assert runtime.stats.reorder_peak == cap

    @pytest.mark.parametrize(
        "shedding",
        [
            "degrade_to_sampling",
            object(),
            None,
            "",
            "DROP_OLDEST_LATE",
        ],
        ids=["removed rule", "policy object", "none", "empty", "wrong case"],
    )
    def test_only_the_two_built_in_rules_are_accepted(self, shedding):
        with pytest.raises(
            ObserverError, match="drop_oldest_late, drop_lowest_priority"
        ):
            AdmissionController(shedding=shedding)


class TestAdmissionLimits:
    def test_validation(self):
        with pytest.raises(ObserverError, match="max_pending"):
            AdmissionLimits(max_pending=-1)
        with pytest.raises(ObserverError, match="max_deferred"):
            AdmissionLimits(max_deferred=-2)
        with pytest.raises(ObserverError, match="rate"):
            AdmissionLimits(rate=-1.0)

    @pytest.mark.parametrize(
        "limits, complaint",
        [
            ({"rate": 1.0, "burst": 0.5}, "burst"),
            ({"rate": 1.0, "burst": 0}, "burst"),
            ({"rate": 1.0, "burst": -1.0}, "burst"),
            ({"rate": 1.0, "burst": float("nan")}, "burst"),
            ({"rate": 1.0, "burst": float("inf")}, "burst"),
            ({"rate": 1.0, "burst": None}, "burst"),
            ({"rate": 0.0}, "rate"),
            ({"rate": float("nan")}, "rate"),
            ({"rate": float("inf")}, "rate"),
            ({"max_pending": 1.5}, "max_pending"),
            ({"max_pending": True}, "max_pending"),
            ({"max_deferred": 2.5}, "max_deferred"),
        ],
        ids=[
            "burst below 1",
            "zero burst",
            "negative burst",
            "nan burst",
            "inf burst",
            "no burst",
            "zero rate",
            "nan rate",
            "inf rate",
            "fractional cap",
            "bool cap",
            "fractional deferral cap",
        ],
    )
    def test_a_bucket_that_cannot_be_built_is_refused_up_front(
        self, limits, complaint
    ):
        # A bucket is built at the first rate-limited intake, and a cap
        # is first used when the runtime takes a step, after the screens
        # ahead of admission recorded it: refusing either there would
        # lose the step's items to the dedup record.
        with pytest.raises(ObserverError, match=complaint):
            AdmissionLimits(**limits)

    @pytest.mark.parametrize("name", ["rate", "burst"])
    @pytest.mark.parametrize(
        "value",
        [True, False, "2", b"2", 2 + 0j, [2.0]],
        ids=["true", "false", "text", "bytes", "complex", "list"],
    )
    def test_rate_and_burst_must_be_real_numbers(self, name, value):
        # Checked before the range: ``True`` would pass it as 1, and
        # text would fail it with a bare TypeError.
        with pytest.raises(ObserverError, match=f"AdmissionLimits.{name} "):
            AdmissionLimits(**{name: value})

    @pytest.mark.parametrize(
        "rate, burst",
        [(1e-9, 1), (2, 1.0), (Fraction(1, 3), Fraction(3, 2))],
        ids=["tiny rate, smallest burst", "int rate", "fractions"],
    )
    def test_rate_and_burst_accept_the_bounds(self, rate, burst):
        limits = AdmissionLimits(rate=rate, burst=burst)
        controller = AdmissionController(limits)
        assert len(controller.intake([item(0)])) == 1


class TestAdmissionController:
    def test_no_rate_admits_everything(self):
        controller = AdmissionController()
        assert len(controller.intake([item(t) for t in range(10)])) == 10
        assert controller.shed_total == 0 and controller.deferred_total == 0

    def test_over_rate_defers_then_drains_on_refill(self):
        controller = AdmissionController(AdmissionLimits(rate=1.0, burst=2))
        first = controller.intake([item(0, seq=s, arrival=0) for s in range(4)])
        assert [i.seq for i in first] == [0, 1]
        assert controller.deferred_total == 2
        assert controller.metrics_view()["deferred_depth"] == 2
        second = controller.intake([item(0, seq=9, arrival=3)])
        # 3 ticks refill 3 tokens, capped at burst 2: both deferred items
        # drain, the new arrival waits its turn behind them.
        assert [i.seq for i in second] == [2, 3]
        assert controller.deferred_total == 3

    def test_deferral_overflow_sheds_and_counts(self):
        controller = AdmissionController(
            AdmissionLimits(rate=1.0, burst=1, max_deferred=1)
        )
        admitted = controller.intake(
            [item(0, seq=s, arrival=0) for s in range(4)]
        )
        assert len(admitted) == 1
        assert controller.deferred_total == 1
        assert controller.shed_total == 2

    def test_flush_deferred_empties_the_queue(self):
        controller = AdmissionController(AdmissionLimits(rate=1.0, burst=1))
        controller.intake([item(0, seq=s, arrival=0) for s in range(3)])
        assert len(controller.flush_deferred()) == 2
        assert controller.metrics_view()["deferred_depth"] == 0

    def test_backpressure_engages_at_three_quarters_occupancy(self):
        controller = AdmissionController(
            AdmissionLimits(max_pending=10)
        )
        assert not controller.engaged(occupancy=5)
        assert not controller.engaged(occupancy=7)
        assert controller.engaged(occupancy=8)
        assert controller.engaged(occupancy=9)

    def test_no_limits_never_engage(self):
        assert not AdmissionController().engaged(occupancy=10**6)

    def test_deferral_engages_backpressure(self):
        # Unbounded deferral: any parked item is full pressure (only
        # bucket refill ever drains the queue).
        controller = AdmissionController(AdmissionLimits(rate=1.0, burst=1))
        controller.intake([item(0, seq=s, arrival=0) for s in range(3)])
        assert controller.metrics_view()["deferred_depth"] == 2
        assert controller.engaged(occupancy=0)

    def test_deferral_depth_is_gated_at_three_quarters(self):
        controller = AdmissionController(
            AdmissionLimits(rate=1.0, burst=1, max_deferred=4)
        )
        controller.intake([item(0, seq=s, arrival=0) for s in range(2)])
        assert controller.metrics_view()["deferred_depth"] == 1
        assert not controller.engaged(occupancy=0)
        controller.intake([item(0, seq=s, arrival=0) for s in range(2, 4)])
        assert controller.metrics_view()["deferred_depth"] == 3
        assert controller.engaged(occupancy=0)

    def test_zero_occupancy_cap_reads_saturated(self):
        # max_pending=0 sheds every in-order offer; backpressure must
        # say so instead of never engaging.
        controller = AdmissionController(AdmissionLimits(max_pending=0))
        assert controller.engaged(occupancy=0)

    def test_snapshot_restore_round_trip(self):
        limits = AdmissionLimits(rate=0.5, burst=2, max_deferred=2)
        controller = AdmissionController(limits)
        controller.intake([item(0, seq=s, arrival=0) for s in range(5)])
        clone = AdmissionController(limits)
        clone.restore(controller.snapshot())
        assert clone.metrics_view() == controller.metrics_view()
        assert clone.metrics_view()["deferred_depth"] == 2
        assert clone.shed_total == controller.shed_total == 1
        assert clone.deferred_total == controller.deferred_total == 2
        left = clone.intake([item(0, seq=50, arrival=10)])
        right = controller.intake([item(0, seq=50, arrival=10)])
        assert [i.seq for i in left] == [i.seq for i in right]

    def test_restore_rejects_bucket_state_without_rate(self):
        limited = AdmissionController(AdmissionLimits(rate=1.0))
        limited.intake([item(0)])
        unlimited = AdmissionController()
        with pytest.raises(ObserverError, match="AdmissionSnapshot.limits"):
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
        plain_matches, bounded_matches = [], []
        plain = StreamingDetectionRuntime(
            DetectionEngine([hot_spec()]), lateness=2,
            on_match=plain_matches.append,
        )
        bounded = StreamingDetectionRuntime(
            DetectionEngine([hot_spec()]), lateness=2,
            admission=AdmissionController(),
            on_match=bounded_matches.append,
        )
        for _, group in groups:
            plain.ingest(group)
            bounded.ingest(group)
        plain.finish()
        bounded.finish()
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
            DetectionEngine(),
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
            DetectionEngine(),
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
            DetectionEngine(),
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

    def test_a_cap_introduced_between_steps_takes_effect(self):
        # ``controller.limits`` may be replaced while the runtime runs:
        # items buffered before the cap existed are the ones it evicts.
        controller = AdmissionController()
        runtime = StreamingDetectionRuntime(
            DetectionEngine(), lateness=100, admission=controller
        )
        runtime.register_source("replay")
        runtime.ingest([item(t, seq=t, arrival=10) for t in range(3)])
        controller.limits = AdmissionLimits(max_pending=3)
        runtime.ingest([item(5, seq=10, arrival=11)])
        assert controller.shed_total == 1
        assert [it.seq for it in runtime.buffer.pending()] == [1, 2, 10]

    def test_backpressure_throttles_paced_source(self):
        def bounded(source):
            controller = AdmissionController(
                AdmissionLimits(rate=1.0, burst=4, max_deferred=2)
            )
            runtime = StreamingDetectionRuntime(
                DetectionEngine(),
                lateness=30, admission=controller
            )
            runtime.run(source)
            return runtime

        offered = self._surge(n=12, per_tick=4)
        unpaced = bounded(iter(offered))
        paced_source = PacedSource(Replay(offered), slowdown=4)
        paced = bounded(paced_source)
        assert paced.stats.backpressure_events > 0
        # One throttle() per delivery step that ended engaged.
        assert paced_source.throttle_count == paced.stats.backpressure_events
        # Spacing deliveries gives the token buckets time to refill, so
        # a cooperating producer loses strictly less than a firehose.
        assert paced.stats.shed_observations < unpaced.stats.shed_observations

    def test_restore_recomputes_backpressure_from_restored_state(self):
        # A checkpoint taken under pressure must surface that pressure
        # immediately on restore — a paced source resuming from it
        # would otherwise run unthrottled for its first step.
        limits = AdmissionLimits(max_pending=4)

        def runtime():
            return StreamingDetectionRuntime(
                DetectionEngine(),
                lateness=30, admission=AdmissionController(limits)
            )

        loaded = runtime()
        loaded.register_source("replay")
        for _, group in arrival_groups(iter(self._surge(n=1, per_tick=3))):
            loaded.ingest(group)
        assert loaded.admission.engaged(loaded.buffer.occupancy)
        resumed = runtime()
        resumed.restore(loaded.snapshot())
        assert resumed.buffer.occupancy == loaded.buffer.occupancy
        assert resumed.admission.engaged(resumed.buffer.occupancy)

    def test_checkpoint_through_active_shedding(self):
        limits = AdmissionLimits(max_pending=5, rate=2.0, burst=2)

        def runtime():
            return StreamingDetectionRuntime(
                DetectionEngine(),
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


class Replay(list):
    """Stream items in arrival order, from the source named ``replay``."""

    name = "replay"


class TestPacedSource:
    def test_zero_throttles_is_identity(self):
        offered = [item(t, arrival=t + 1) for t in range(5)]
        paced = PacedSource(Replay(offered))
        assert list(paced) == offered

    def test_throttle_delays_remaining_arrivals_in_order(self):
        offered = [item(t, arrival=t) for t in range(4)]
        paced = PacedSource(Replay(offered), slowdown=3)
        iterator = iter(paced)
        first = next(iterator)
        assert first.arrival_tick == 0
        paced.throttle()
        rest = list(iterator)
        assert [it.arrival_tick for it in rest] == [4, 5, 6]
        assert paced.throttle_count == 1

    # Accepted, True would pace by one tick, "3" would fail with a bare
    # TypeError, and a fractional or nan slowdown would fail mid-stream
    # at the first throttle.
    @pytest.mark.parametrize(
        "slowdown", [True, 2.5, "3", 0, -1, float("nan")]
    )
    def test_slowdown_must_be_a_positive_int(self, slowdown):
        with pytest.raises(ObserverError, match="slowdown"):
            PacedSource(Replay(), slowdown=slowdown)
