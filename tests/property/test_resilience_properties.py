"""Property-based tests for supervised crash recovery (hypothesis).

The exactly-once contract, over randomized in-order streams, randomized
fault plans and randomized checkpoint intervals:

* **recovery exactness** — a supervised, fault-injected run (crashes,
  duplicate bursts, corrupt payloads, stalls, overlap redelivery)
  releases the identical entity sequence as the unfaulted run;
* **conservation** — every *original* observation is accounted released,
  late or shed exactly once, while every injected extra is measured as a
  dropped duplicate or a quarantined dead letter;
* **first deliveries survive** — the deduper never swallows an identity
  it has not accepted before;
* **deterministic backoff** — the same seed yields the same fault plan,
  the same recovery count and the same backoff-delay schedule.

At most 3 crashes are drawn, under the supervisor's budget of
:data:`~repro.stream.resilience.supervisor.MAX_ATTEMPTS` consecutive
recoveries, so every drawn plan recovers.
"""

from hypothesis import given, settings, strategies as st

from repro.stream import (
    CheckpointPolicy,
    FaultPlan,
    FaultySource,
    Quarantine,
    RedeliveryDeduper,
    StreamItem,
    SupervisedRuntime,
)
from repro.stream.resilience.supervisor import MAX_ATTEMPTS, backoff_delay
from tests.stream.test_resilience import Feed, RecordingHost


@st.composite
def faulted_cases(draw):
    """A random in-order stream plus a seeded fault plan over its steps."""
    n = draw(st.integers(min_value=1, max_value=60))
    per_step = draw(st.integers(min_value=1, max_value=4))
    lateness = draw(st.integers(min_value=0, max_value=8))
    items = Feed(
        StreamItem(
            entity=("obs", seq),
            event_tick=seq,
            seq=seq,
            arrival_tick=seq // per_step + n,
            source="s",
        )
        for seq in range(n)
    )
    steps = len({item.arrival_tick for item in items})
    plan_seed = draw(st.integers(min_value=0, max_value=10_000))
    counts = dict(
        crashes=draw(st.integers(min_value=1, max_value=3)),
        duplicate_bursts=draw(st.integers(min_value=1, max_value=3)),
        corruptions=draw(st.integers(min_value=1, max_value=2)),
        stalls=draw(st.integers(min_value=1, max_value=2)),
    )
    plan = FaultPlan.seeded(plan_seed, steps, **counts)
    every_steps = draw(st.integers(min_value=1, max_value=max(1, steps)))
    overlap = draw(st.integers(min_value=0, max_value=3))
    return items, lateness, plan, every_steps, overlap, (plan_seed, counts)


def unfaulted(items, lateness):
    host = RecordingHost(lateness)
    host.runtime.run(items)
    return host.records


def supervised(items, lateness, plan, every_steps, overlap):
    host = RecordingHost(
        lateness, dedup=RedeliveryDeduper(), quarantine=Quarantine()
    )
    supervisor = SupervisedRuntime(
        host, checkpoints=CheckpointPolicy(every_steps=every_steps)
    )
    supervisor.run(FaultySource(items, plan, redelivery_overlap=overlap))
    return host, supervisor


class TestRecoveryExactness:
    @settings(max_examples=80, deadline=None)
    @given(faulted_cases())
    def test_recovered_release_sequence_is_identical(self, case):
        items, lateness, plan, every_steps, overlap, _ = case
        golden = unfaulted(items, lateness)
        host, supervisor = supervised(
            items, lateness, plan, every_steps, overlap
        )
        assert host.records == golden
        assert supervisor.recoveries == len(plan.crashes)
        assert host.runtime.stats.recoveries == supervisor.recoveries

    @settings(max_examples=80, deadline=None)
    @given(faulted_cases())
    def test_conservation_extends_to_injected_extras(self, case):
        items, lateness, plan, every_steps, overlap, _ = case
        host, _ = supervised(items, lateness, plan, every_steps, overlap)
        stats = host.runtime.stats
        # Exactly-once on the originals...
        assert (
            host.runtime.released_items
            + stats.late_observations
            + stats.shed_observations
            == len(items)
        )
        # ...and every injected extra is measured, never silent: the
        # effective offered load is the originals plus what the dedup
        # and quarantine gates absorbed.
        offered = (
            len(items)
            + stats.duplicates_dropped
            + stats.quarantined_observations
        )
        assert (
            host.runtime.released_items
            + stats.late_observations
            + stats.shed_observations
            + stats.duplicates_dropped
            + stats.quarantined_observations
            == offered
        )
        assert stats.quarantined_observations >= 1  # plan guarantees one
        assert host.runtime.quarantine.count == (
            stats.quarantined_observations
        )

    @settings(max_examples=60, deadline=None)
    @given(faulted_cases())
    def test_dedup_never_drops_a_first_delivery(self, case):
        items, lateness, plan, every_steps, overlap, _ = case
        host, _ = supervised(items, lateness, plan, every_steps, overlap)
        # Every original identity made it through the gates exactly
        # once: the release log holds no duplicates and no gaps.
        released = sorted(seq for _, seq in host.records)
        late = sorted(
            item.seq for item in host.runtime.late_items
        )
        assert sorted(released + late) == list(range(len(items)))


class TestDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(faulted_cases())
    def test_same_seed_same_recovery_history(self, case):
        items, lateness, plan, every_steps, overlap, seeding = case
        plan_seed, counts = seeding
        steps = len({item.arrival_tick for item in items})
        assert plan == FaultPlan.seeded(plan_seed, steps, **counts)
        first_host, first = supervised(
            items, lateness, plan, every_steps, overlap
        )
        second_host, second = supervised(
            items, lateness, plan, every_steps, overlap
        )
        assert first.backoff_delays == second.backoff_delays
        assert first.recoveries == second.recoveries
        assert first.checkpoints_taken == second.checkpoints_taken
        assert first_host.records == second_host.records
        assert len(plan.crashes) <= 3 < MAX_ATTEMPTS
        expected = {backoff_delay(attempt) for attempt in (1, 2, 3)}
        assert set(first.backoff_delays) <= expected
