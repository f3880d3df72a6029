"""Property-based tests for bounded ingestion (hypothesis).

The admission contract, over randomized streams, limits and both
shedding rules:

* **conservation** — after ``finish()``, every offered observation has
  exactly one fate: ``released + late + shed == offered``.  Nothing is
  silently parked in a deferral queue or dropped off the books,
  whatever combination of occupancy cap, rate limit, deferral bound and
  shedding rule is active;
* **the cap holds** — peak reorder occupancy never exceeds
  ``max_pending``;
* **slack-limit identity** — a controller whose cap, rate and burst
  are set above anything a case reaches releases the identical stream
  (same seqs, same order, same counters) as the default controller,
  which sets no limits;
* **checkpoint transparency under shedding** — cutting the delivery
  steps anywhere, snapshotting (buckets, deferral queue and shed
  counter included) and resuming in a fresh bounded runtime
  yields the same released stream and the same final accounting as the
  uninterrupted run.
"""

from hypothesis import given, settings, strategies as st

from repro.stream import (
    AdmissionController,
    AdmissionLimits,
    StreamingDetectionRuntime,
    StreamItem,
)
from repro.stream.runtime import arrival_groups
from tests.stream.test_runtime import RecordingEngine

RULES = ("drop_oldest_late", "drop_lowest_priority")

SOURCES = ("s0", "s1")


@st.composite
def bounded_cases(draw):
    """A random two-source stream plus random admission configuration."""
    n = draw(st.integers(min_value=0, max_value=70))
    lateness = draw(st.integers(min_value=0, max_value=10))
    ticks = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=50),
                min_size=n,
                max_size=n,
            )
        )
    )
    items = []
    for seq, tick in enumerate(ticks):
        delay = draw(st.integers(min_value=0, max_value=lateness + 6))
        items.append(
            StreamItem(
                entity=seq,
                event_tick=tick,
                seq=seq,
                arrival_tick=tick + delay,
                source=draw(st.sampled_from(SOURCES)),
            )
        )
    items.sort(key=lambda item: (item.arrival_tick, item.seq))
    limits = AdmissionLimits(
        max_pending=draw(
            st.one_of(st.none(), st.integers(min_value=0, max_value=12))
        ),
        rate=draw(
            st.one_of(
                st.none(),
                st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
            )
        ),
        burst=draw(st.integers(min_value=1, max_value=6)),
        max_deferred=draw(
            st.one_of(st.none(), st.integers(min_value=0, max_value=8))
        ),
    )
    rule = draw(st.sampled_from(RULES))
    return items, lateness, limits, rule


def run_bounded(items, lateness, controller):
    """Drive a recording bounded runtime over the items' steps; return
    (released seqs, runtime).  Each item's entity is its seq."""
    engine = RecordingEngine()
    released = engine.released
    runtime = StreamingDetectionRuntime(
        engine, lateness=lateness, admission=controller
    )
    for source in SOURCES:
        runtime.register_source(source)
    for _, group in arrival_groups(items):
        runtime.ingest(group)
    runtime.finish()
    return released, runtime


class TestConservation:
    @settings(max_examples=150, deadline=None)
    @given(bounded_cases())
    def test_released_late_shed_partition_the_offer(self, case):
        items, lateness, limits, rule = case
        controller = AdmissionController(limits, shedding=rule)
        released, runtime = run_bounded(items, lateness, controller)
        stats = runtime.stats
        assert (
            len(released) + runtime.buffer.late_count + stats.shed_observations
            == len(items)
        ), "every offered observation must be released, late or shed"
        assert len(released) == runtime.released_items
        assert stats.shed_observations == controller.shed_total
        # finish() drains deferral.
        assert controller.metrics_view()["deferred_depth"] == 0
        # Released seqs are unique offered seqs (no duplication, no
        # fabrication), in exact event-time order.
        offered_seqs = {item.seq for item in items}
        assert len(set(released)) == len(released)
        assert set(released) <= offered_seqs
        by_seq = {item.seq: item for item in items}
        keys = [by_seq[seq].order_key for seq in released]
        assert keys == sorted(keys)

    @settings(max_examples=150, deadline=None)
    @given(bounded_cases())
    def test_occupancy_cap_holds(self, case):
        items, lateness, limits, rule = case
        controller = AdmissionController(limits, shedding=rule)
        _, runtime = run_bounded(items, lateness, controller)
        if limits.max_pending is not None:
            assert runtime.stats.reorder_peak <= limits.max_pending

    @settings(max_examples=100, deadline=None)
    @given(bounded_cases())
    def test_slack_limit_identity(self, case):
        items, lateness, _, rule = case
        slack = AdmissionLimits(max_pending=10**6, rate=1e6, burst=1e6)
        bounded_released, bounded = run_bounded(
            items,
            lateness,
            AdmissionController(slack, shedding=rule),
        )
        plain_released, plain = run_bounded(items, lateness, None)
        assert bounded_released == plain_released
        assert bounded.stats.shed_observations == 0
        assert bounded.stats.deferred_observations == 0
        assert bounded.buffer.late_count == plain.buffer.late_count
        assert (
            bounded.stats.entities_submitted == plain.stats.entities_submitted
        )


class TestCheckpointUnderShedding:
    @settings(max_examples=100, deadline=None)
    @given(bounded_cases(), st.integers(min_value=0, max_value=1_000_000))
    def test_cut_anywhere_resume_identical(self, case, cut_seed):
        items, lateness, limits, rule = case

        def fresh():
            engine = RecordingEngine()
            released = engine.released
            runtime = StreamingDetectionRuntime(
                engine,
                lateness=lateness,
                admission=AdmissionController(limits, shedding=rule),
            )
            for source in SOURCES:
                runtime.register_source(source)
            return released, runtime

        groups = [group for _, group in arrival_groups(items)]
        cut = cut_seed % (len(groups) + 1)

        whole_released, whole = fresh()
        for group in groups:
            whole.ingest(group)
        whole.finish()

        head_released, head = fresh()
        for group in groups[:cut]:
            head.ingest(group)
        checkpoint = head.snapshot()

        tail_released, tail = fresh()
        tail.restore(checkpoint)
        for group in groups[cut:]:
            tail.ingest(group)
        tail.finish()

        assert head_released + tail_released == whole_released
        assert tail.stats.shed_observations == whole.stats.shed_observations
        assert tail.buffer.late_count == whole.buffer.late_count
        assert tail.released_items == whole.released_items
        assert (
            tail.stats.deferred_observations
            == whole.stats.deferred_observations
        )
