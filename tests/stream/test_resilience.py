"""Unit tests for fault injection and supervised crash recovery."""

import pytest

from repro.core.errors import ObserverError
from repro.obs import collect, parse_prometheus, to_prometheus
from repro.obs.tracing import Telemetry
from repro.stream import (
    AdmissionController,
    AdmissionLimits,
    BackoffPolicy,
    CheckpointPolicy,
    CorruptObservation,
    FaultPlan,
    FaultySource,
    Quarantine,
    RecoveryExhausted,
    RedeliveryDeduper,
    SourceCrash,
    StreamingDetectionRuntime,
    StreamItem,
    SupervisedRuntime,
)
from repro.stream.resilience.faulty import RECENT_WINDOW
from repro.stream.resilience.quarantine import default_validator
from repro.stream.runtime import arrival_groups


def item(seq, tick=None, arrival=None, source="s", entity=None):
    tick = tick if tick is not None else seq
    return StreamItem(
        entity=entity if entity is not None else ("obs", seq),
        event_tick=tick,
        seq=seq,
        arrival_tick=arrival if arrival is not None else tick,
        source=source,
    )


def stream(n, per_step=2):
    """``n`` in-order items, ``per_step`` sharing each arrival tick.

    The arrival clock is offset by ``n`` so every arrival trails every
    event tick (a StreamItem invariant) while step structure stays
    ``seq // per_step``.
    """
    return [
        item(seq, tick=seq, arrival=seq // per_step + n) for seq in range(n)
    ]


def keys(items):
    return [(it.source, it.seq, it.event_tick) for it in items]


class RecordingHost:
    """Minimal supervised host: an engineless runtime plus an output log
    that genuinely rolls back (the exactly-once contract under test)."""

    def __init__(self, lateness=4, **parts):
        self.records = []
        self.runtime = StreamingDetectionRuntime(
            None,
            lateness=lateness,
            on_release=lambda tick, group: self.records.extend(keys(group)),
            **parts,
        )

    def ingest(self, items):
        self.runtime.ingest(items)
        return []

    def finish(self):
        self.runtime.finish()
        return []

    def snapshot(self):
        return (self.runtime.snapshot(), len(self.records))

    def rollback(self, state):
        checkpoint, count = state
        self.runtime.restore(checkpoint)
        del self.records[count:]


def unfaulted_records(items, lateness=4):
    host = RecordingHost(lateness=lateness)
    host.runtime.register_source("s")
    for _, group in arrival_groups(items):
        host.ingest(group)
    host.finish()
    return host.records


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ObserverError, match="negative"):
            FaultPlan(crashes=((-1, 0),))
        with pytest.raises(ObserverError, match="negative"):
            FaultPlan(crashes=((2, -1),))
        with pytest.raises(ObserverError, match="duplicates"):
            FaultPlan(duplicates={3: 0})
        with pytest.raises(ObserverError, match="corruptions"):
            FaultPlan(corruptions={-1: 1})
        with pytest.raises(ObserverError, match="stalls"):
            FaultPlan(stalls={0: -2})

    def test_fault_count(self):
        plan = FaultPlan(
            crashes=((0, 1), (4, 0)),
            duplicates={1: 2},
            corruptions={2: 1, 3: 1},
            stalls={5: 3},
        )
        assert plan.fault_count == 6

    def test_seeded_is_deterministic(self):
        a = FaultPlan.seeded(7, steps=20)
        b = FaultPlan.seeded(7, steps=20)
        assert a == b
        assert a != FaultPlan.seeded(8, steps=20)

    def test_seeded_guarantees_coverage(self):
        plan = FaultPlan.seeded(
            3, steps=30, crashes=2, duplicate_bursts=3, corruptions=2,
            stalls=2,
        )
        assert len(plan.crashes) == 2
        assert len(plan.duplicates) == 3
        assert len(plan.corruptions) == 2
        assert len(plan.stalls) == 2
        for step, _ in plan.crashes:
            assert 0 <= step < 30
        for schedule in (plan.duplicates, plan.corruptions, plan.stalls):
            assert all(0 <= step < 30 for step in schedule)

    def test_seeded_needs_positive_steps(self):
        with pytest.raises(ObserverError, match="positive"):
            FaultPlan.seeded(1, steps=0)

    # Steps and counts index the delivered stream.  Accepted, a
    # fractional crash step would never fire, a fractional delivered
    # count would crash early, a fractional burst would fail mid-stream
    # on a slice and True would count as 1.
    @pytest.mark.parametrize(
        "plan, complaint",
        [
            (dict(crashes=((2.5, 1),)), "crash entry"),
            (dict(crashes=((True, 1),)), "crash entry"),
            (dict(crashes=((1, 1.5),)), "crash entry"),
            (dict(crashes=((1, float("nan")),)), "crash entry"),
            (dict(duplicates={1: 2.5}), "duplicates"),
            (dict(duplicates={1: True}), "duplicates"),
            (dict(duplicates={1.5: 2}), "duplicates"),
            (dict(corruptions={1: float("inf")}), "corruptions"),
            (dict(corruptions={False: 1}), "corruptions"),
            (dict(stalls={1: 2.0}), "stalls"),
            (dict(stalls={1: "3"}), "stalls"),
        ],
    )
    def test_non_int_steps_and_counts_rejected(self, plan, complaint):
        with pytest.raises(ObserverError, match=complaint):
            FaultPlan(**plan)

    # The least each field takes: a crash at step 0 may deliver
    # nothing, and a burst, corruption or stall is at least one.
    @pytest.mark.parametrize(
        "plan",
        [
            dict(crashes=((0, 0),)),
            dict(duplicates={0: 1}),
            dict(corruptions={0: 1}),
            dict(stalls={0: 1}),
        ],
        ids=["crashes", "duplicates", "corruptions", "stalls"],
    )
    def test_least_steps_and_counts_accepted(self, plan):
        assert FaultPlan(**plan).fault_count == 1


class TestFaultySource:
    def test_no_plan_is_passthrough(self):
        items = stream(10)
        assert list(FaultySource(items)) == items

    def test_len_and_steps_count_the_base_stream(self):
        src = FaultySource(stream(10, per_step=2), FaultPlan(duplicates={0: 2}))
        assert len(src) == 10
        assert src.steps == 5

    def test_crash_carries_step_and_delivered(self):
        src = FaultySource(stream(10), FaultPlan(crashes=((2, 1),)))
        delivered = []
        with pytest.raises(SourceCrash) as exc:
            for it in src:
                delivered.append(it.seq)
        assert exc.value.step == 2
        assert exc.value.delivered == 1
        assert delivered == [0, 1, 2, 3, 4]  # steps 0-1 + 1 item of step 2
        assert src.crash_count == 1

    def test_reconnect_redelivers_from_ack_floor_minus_overlap(self):
        src = FaultySource(
            stream(12), FaultPlan(crashes=((4, 0),)), redelivery_overlap=1
        )
        first = []
        with pytest.raises(SourceCrash):
            for it in src:
                first.append(it)
        src.ack(3)
        assert src.reconnect(delay=2) == 2
        tail = list(src)
        # Redelivery restarts at step 2: seqs 4.. delivered again.
        assert [it.seq for it in tail] == list(range(4, 12))
        assert src.reconnect_count == 1
        # Backoff is measured on the arrival clock: the first
        # redelivered arrival lands at least `delay` past the last
        # pre-crash delivery.
        last_before = max(it.arrival_tick for it in first)
        assert tail[0].arrival_tick >= last_before + 2
        # Event-time identity is untouched.
        assert [(it.seq, it.event_tick) for it in tail] == [
            (seq, seq) for seq in range(4, 12)
        ]

    def test_redelivered_arrivals_stay_monotone(self):
        src = FaultySource(
            stream(16),
            FaultPlan(crashes=((5, 1),), stalls={3: 4}),
        )
        arrivals = []
        with pytest.raises(SourceCrash):
            for it in src:
                arrivals.append(it.arrival_tick)
        src.ack(4)
        src.reconnect(delay=3)
        arrivals.extend(it.arrival_tick for it in src)
        assert arrivals == sorted(arrivals)

    def test_duplicates_resend_recent_identities(self):
        src = FaultySource(stream(8, per_step=2), FaultPlan(duplicates={1: 3}))
        out = list(src)
        assert len(out) == 8 + 3
        assert src.duplicates_sent == 3
        # The burst re-sends the most recent deliveries at the current
        # arrival tick, identity (source, seq, event tick) unchanged.
        burst = out[4:7]
        assert [it.seq for it in burst] == [1, 2, 3]
        assert all(it.arrival_tick == out[2].arrival_tick for it in burst)
        assert all(it.event_tick == it.seq for it in burst)

    def test_burst_is_bounded_by_recent_window(self):
        src = FaultySource(
            stream(4, per_step=2), FaultPlan(duplicates={0: RECENT_WINDOW + 9})
        )
        out = list(src)
        assert src.duplicates_sent == 2  # only two items delivered so far

    def test_corrupt_copies_precede_their_originals(self):
        src = FaultySource(stream(6, per_step=2), FaultPlan(corruptions={1: 2}))
        out = list(src)
        assert len(out) == 8
        corrupt = [it for it in out if isinstance(it.entity, CorruptObservation)]
        assert [it.seq for it in corrupt] == [2, 3]
        assert all(it.entity.source == "s" for it in corrupt)
        assert [it.entity.seq for it in corrupt] == [2, 3]
        # Copies arrive in the same arrival group, before the originals.
        assert out.index(corrupt[0]) < next(
            i for i, it in enumerate(out)
            if it.seq == 2 and not isinstance(it.entity, CorruptObservation)
        )
        assert src.corruptions_sent == 2

    def test_stall_shifts_arrivals_once(self):
        base = stream(8, per_step=2)
        src = FaultySource(base, FaultPlan(stalls={2: 5}))
        out = list(src)
        assert [it.arrival_tick for it in out] == [8, 8, 9, 9, 15, 15, 16, 16]
        assert [it.event_tick for it in out] == [it.event_tick for it in base]

    def test_flapping_crashes_consume_one_entry_per_attempt(self):
        src = FaultySource(stream(6), FaultPlan(crashes=((1, 0), (1, 0))))
        with pytest.raises(SourceCrash):
            list(src)
        src.reconnect()
        with pytest.raises(SourceCrash):
            list(src)
        src.reconnect()
        assert [it.seq for it in src] == list(range(6))
        assert src.crash_count == 2

    def test_argument_validation(self):
        with pytest.raises(ObserverError, match="redelivery_overlap"):
            FaultySource(stream(2), redelivery_overlap=-1)
        src = FaultySource(stream(2))
        with pytest.raises(ObserverError, match="negative step"):
            src.ack(-1)
        with pytest.raises(ObserverError, match="delay"):
            src.reconnect(delay=-1)

    @pytest.mark.parametrize("overlap", [1.5, True, "1"])
    def test_non_int_overlap_rejected(self, overlap):
        with pytest.raises(ObserverError, match="redelivery_overlap"):
            FaultySource(stream(2), redelivery_overlap=overlap)


class TestRedeliveryDeduper:
    def test_first_delivery_once(self):
        dedup = RedeliveryDeduper()
        first = item(0)
        assert dedup.admit(first)
        assert not dedup.admit(first)
        assert dedup.duplicates_dropped == 1

    def test_high_water_compaction_bounds_in_flight(self):
        dedup = RedeliveryDeduper()
        assert dedup.admit(item(2))
        assert dedup.in_flight("s") == 1
        assert dedup.admit(item(0))
        assert dedup.admit(item(1))
        # 0..2 contiguous: the prefix folds into the high water.
        assert dedup.in_flight("s") == 0
        assert not dedup.admit(item(1))

    def test_is_duplicate_does_not_mutate(self):
        dedup = RedeliveryDeduper()
        probe = item(5)
        assert not dedup.is_duplicate(probe)
        assert not dedup.is_duplicate(probe)
        assert dedup.admit(probe)

    def test_sources_are_independent(self):
        dedup = RedeliveryDeduper()
        assert dedup.admit(item(0, source="a"))
        assert dedup.admit(item(0, source="b"))
        assert dedup.tracked_sources == ("a", "b")

    def test_snapshot_restore_round_trip(self):
        dedup = RedeliveryDeduper()
        for seq in (0, 1, 5):
            dedup.admit(item(seq))
        snapshot = dedup.snapshot()
        fresh = RedeliveryDeduper()
        fresh.restore(snapshot)
        assert not fresh.admit(item(1))
        assert not fresh.admit(item(5))
        assert fresh.admit(item(2))


class TestQuarantine:
    def test_default_validator_rejects_corruption_and_none(self):
        assert default_validator(item(0))
        assert not default_validator(
            item(0, entity=CorruptObservation(source="s", seq=0))
        )
        bad = StreamItem(
            entity=None, event_tick=0, seq=0, arrival_tick=0, source="s"
        )
        assert not default_validator(bad)

    def test_count_is_exact_beyond_retention(self):
        quarantine = Quarantine(retention=2)
        for seq in range(5):
            assert not quarantine.admit(
                item(seq, entity=CorruptObservation(source="s", seq=seq))
            )
        assert quarantine.count == 5
        assert [it.seq for it in quarantine.items] == [3, 4]  # newest kept

    def test_zero_retention_counts_only(self):
        quarantine = Quarantine(retention=0)
        quarantine.admit(item(0, entity=CorruptObservation(source="s", seq=0)))
        assert quarantine.count == 1
        assert quarantine.items == []

    def test_custom_validator(self):
        quarantine = Quarantine(lambda it: it.seq % 2 == 0)
        assert quarantine.admit(item(0))
        assert not quarantine.admit(item(1))
        assert quarantine.count == 1

    def test_snapshot_restore_round_trip(self):
        quarantine = Quarantine(retention=2)
        for seq in range(3):
            quarantine.admit(
                item(seq, entity=CorruptObservation(source="s", seq=seq))
            )
        snapshot = quarantine.snapshot()
        quarantine.admit(item(9, entity=CorruptObservation(source="s", seq=9)))
        quarantine.restore(snapshot)
        assert quarantine.count == 3
        assert [it.seq for it in quarantine.items] == [1, 2]

    def test_validation(self):
        with pytest.raises(ObserverError, match="callable"):
            Quarantine("not-a-validator")
        with pytest.raises(ObserverError, match="retention"):
            Quarantine(retention=-1)

    @pytest.mark.parametrize("retention", [1.5, True, "2"])
    def test_non_int_retention_rejected(self, retention):
        with pytest.raises(ObserverError, match="retention"):
            Quarantine(retention=retention)


class TestPolicies:
    def test_checkpoint_policy_needs_a_trigger(self):
        with pytest.raises(ObserverError, match="every_steps"):
            CheckpointPolicy(every_steps=None, every_released=None)
        with pytest.raises(ObserverError, match="positive"):
            CheckpointPolicy(every_steps=0)
        with pytest.raises(ObserverError, match="positive"):
            CheckpointPolicy(every_steps=None, every_released=-1)

    @pytest.mark.parametrize("value", [4.5, True, "4"])
    @pytest.mark.parametrize("trigger", ["every_steps", "every_released"])
    def test_checkpoint_triggers_must_be_ints(self, trigger, value):
        with pytest.raises(ObserverError, match=trigger):
            CheckpointPolicy(**{trigger: value})

    def test_either_trigger_suffices(self):
        policy = CheckpointPolicy(every_steps=4, every_released=10)
        assert not policy.due(3, 9)
        assert policy.due(4, 0)
        assert policy.due(0, 10)

    def test_backoff_schedule_is_clamped_exponential(self):
        policy = BackoffPolicy(base_delay=2, factor=3, max_delay=10,
                               max_attempts=4)
        assert policy.schedule() == (2, 6, 10, 10)
        with pytest.raises(ObserverError, match="1-based"):
            policy.delay(0)

    def test_backoff_validation(self):
        with pytest.raises(ObserverError, match="base_delay"):
            BackoffPolicy(base_delay=-1)
        with pytest.raises(ObserverError, match="factor"):
            BackoffPolicy(factor=0)
        with pytest.raises(ObserverError, match="max_delay"):
            BackoffPolicy(base_delay=5, max_delay=4)
        with pytest.raises(ObserverError, match="max_attempts"):
            BackoffPolicy(max_attempts=0)

    @pytest.mark.parametrize("value", [2.0, 1.5, True])
    @pytest.mark.parametrize(
        "field", ["base_delay", "factor", "max_delay", "max_attempts"]
    )
    def test_backoff_fields_must_be_ints(self, field, value):
        with pytest.raises(ObserverError, match=field):
            BackoffPolicy(**{field: value})


PLAN = FaultPlan(
    crashes=((3, 1), (7, 0)),
    duplicates={2: 2, 9: 3},
    corruptions={1: 1, 8: 2},
    stalls={4: 3},
)


class TestSupervisedRuntime:
    def test_recovered_run_matches_unfaulted_exactly(self):
        items = stream(30, per_step=2)
        golden = unfaulted_records(items)
        host = RecordingHost(dedup=RedeliveryDeduper(), quarantine=Quarantine())
        supervisor = SupervisedRuntime(
            host, checkpoints=CheckpointPolicy(every_steps=3)
        )
        supervisor.run(FaultySource(items, PLAN, name="s"))
        assert host.records == golden
        assert supervisor.recoveries == 2
        assert host.runtime.stats.recoveries == 2
        assert host.runtime.stats.duplicates_dropped > 0
        assert host.runtime.stats.quarantined_observations == 3
        # Exactly-once on the originals: every base observation is
        # accounted released, late or shed — nothing double-counted.
        stats = host.runtime.stats
        assert (
            host.runtime.released_items
            + stats.late_observations
            + stats.shed_observations
            == len(items)
        )

    def test_checkpoints_ack_the_redelivery_floor(self):
        items = stream(24, per_step=2)
        src = FaultySource(items, FaultPlan(crashes=((10, 0),)), name="s")
        host = RecordingHost(dedup=RedeliveryDeduper())
        supervisor = SupervisedRuntime(
            host, checkpoints=CheckpointPolicy(every_steps=4)
        )
        supervisor.run(src)
        assert host.records == unfaulted_records(items)
        # Crash at step 10, last checkpoint at step 8, overlap 1:
        # redelivery resumed at step 7.
        assert src.reconnect_count == 1
        assert supervisor.checkpoints_taken >= 3

    def test_released_trigger_checkpoints_between_steps(self):
        items = stream(20, per_step=2)
        host = RecordingHost()
        supervisor = SupervisedRuntime(
            host,
            checkpoints=CheckpointPolicy(every_steps=None, every_released=4),
        )
        supervisor.run(FaultySource(items, name="s"))
        assert host.records == unfaulted_records(items)
        assert supervisor.checkpoints_taken > 2

    def test_consecutive_crashes_grow_backoff_then_exhaust(self):
        crashes = tuple((0, 0) for _ in range(4))
        host = RecordingHost()
        supervisor = SupervisedRuntime(
            host,
            backoff=BackoffPolicy(base_delay=2, factor=3, max_delay=10,
                                  max_attempts=3),
        )
        supervisor.run(FaultySource(stream(6), FaultPlan(crashes=crashes[:3])))
        assert supervisor.backoff_delays == [2, 6, 10]
        assert supervisor.recoveries == 3

        host = RecordingHost()
        supervisor = SupervisedRuntime(
            host, backoff=BackoffPolicy(max_attempts=3)
        )
        with pytest.raises(RecoveryExhausted):
            supervisor.run(FaultySource(stream(6), FaultPlan(crashes=crashes)))

    def test_delivered_step_resets_the_attempt_budget(self):
        # One recovery attempt allowed per crash; crashes at distinct
        # steps each succeed because progress resets the counter.  The
        # deduper absorbs the overlap redeliveries each recovery sends.
        host = RecordingHost(dedup=RedeliveryDeduper())
        supervisor = SupervisedRuntime(
            host,
            checkpoints=CheckpointPolicy(every_steps=1),
            backoff=BackoffPolicy(max_attempts=1),
        )
        items = stream(12, per_step=2)
        supervisor.run(
            FaultySource(
                items,
                FaultPlan(crashes=((1, 0), (3, 0), (5, 0))),
                name="s",
            )
        )
        assert host.records == unfaulted_records(items)
        assert supervisor.recoveries == 3

    def test_non_reconnectable_crash_is_fatal(self):
        class BrittleSource:
            name = "s"

            def __iter__(self):
                yield item(0)
                raise SourceCrash("uplink died", step=0, delivered=1)

        supervisor = SupervisedRuntime(RecordingHost())
        with pytest.raises(SourceCrash):
            supervisor.run(BrittleSource())

    def test_run_returns_outputs_exactly_once(self):
        released = []

        class MatchyHost(RecordingHost):
            def ingest(self, items):
                before = len(self.records)
                self.runtime.ingest(items)
                return self.records[before:]

            def finish(self):
                before = len(self.records)
                self.runtime.finish()
                return self.records[before:]

        items = stream(20, per_step=2)
        host = MatchyHost(dedup=RedeliveryDeduper())
        supervisor = SupervisedRuntime(
            host, checkpoints=CheckpointPolicy(every_steps=2)
        )
        outputs = supervisor.run(
            FaultySource(items, FaultPlan(crashes=((5, 1),)), name="s")
        )
        assert outputs == unfaulted_records(items)

    def test_exported_supervision_history_survives_a_late_recovery(self):
        # Regression: the checkpoint captured the exported copy before
        # the checkpoint was counted, so a recovery after the last
        # checkpoint rolled the exported count back one short.
        host = RecordingHost(
            dedup=RedeliveryDeduper(), telemetry=Telemetry.create()
        )
        supervisor = SupervisedRuntime(
            host, checkpoints=CheckpointPolicy(every_steps=4)
        )
        supervisor.run(
            FaultySource(
                stream(11, per_step=1),
                FaultPlan(crashes=((10, 0),)),
                name="s",
            )
        )
        exported = {
            sample.name: sample.value for sample in collect(host.runtime)
        }
        assert supervisor.checkpoints_taken == 3
        assert (
            exported["resilience_checkpoints_total"]
            == supervisor.checkpoints_taken
        )
        assert (
            exported["resilience_recoveries_total"]
            == supervisor.recoveries
            == 1
        )
        assert exported["resilience_backoff_ticks_total"] == sum(
            supervisor.backoff_delays
        )

    def test_export_carries_every_loss_counter(self):
        """A faulted, overloaded replay's Prometheus export reads the
        same late / shed / duplicate / quarantined counts as
        ``runtime.stats`` — the export reads the counters' owners, it
        keeps no count beside them."""
        items = stream(30, per_step=2)
        # Stragglers far behind the released frontier: counted late.
        items += [
            item(30 + n, tick=0, arrival=items[-1].arrival_tick + 1 + n)
            for n in range(3)
        ]
        host = RecordingHost(
            dedup=RedeliveryDeduper(),
            quarantine=Quarantine(),
            admission=AdmissionController(AdmissionLimits(max_pending=3)),
            telemetry=Telemetry.create(trace_every=1),
        )
        SupervisedRuntime(
            host, checkpoints=CheckpointPolicy(every_steps=3)
        ).run(FaultySource(items, PLAN, name="s"))
        stats = host.runtime.stats
        exported = parse_prometheus(to_prometheus(collect(host.runtime)))
        for series, value in (
            ("stream_observations_late_total", stats.late_observations),
            ("stream_observations_shed_total", stats.shed_observations),
            ("stream_duplicates_dropped_total", stats.duplicates_dropped),
            (
                "stream_observations_quarantined_total",
                stats.quarantined_observations,
            ),
            ("stream_observations_released_total", stats.released_items),
            ("resilience_recoveries_total", stats.recoveries),
        ):
            assert value > 0, series
            assert exported[(series, ())] == value, series
        # Conservation, read off the export alone.
        assert (
            exported[("stream_observations_released_total", ())]
            + exported[("stream_observations_late_total", ())]
            + exported[("stream_observations_shed_total", ())]
            == len(items)
        )
