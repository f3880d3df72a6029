"""Property-based tests for the streaming reorder pipeline (hypothesis).

The bounded-disorder contract, over randomized event-time streams and
randomized jitter:

* **within the bound** — if every delay is at most the lateness bound,
  the reorder buffer's released stream equals the sorted (in-order)
  replay exactly, with zero late observations;
* **beyond the bound** — arbitrary delays may produce late
  observations, but they are *counted and retained*, never silently
  dropped: released + late is a permutation of the input, the released
  part is in exact event-time order, and every late item genuinely
  missed the frontier (its event tick was already released when it
  arrived);
* **checkpoint transparency** — cutting any prefix of the delivery
  steps, snapshotting and resuming in a fresh runtime yields the same
  released stream as the uninterrupted run.
"""

from hypothesis import given, settings, strategies as st

from repro.detect.engine import DetectionEngine
from repro.stream import (
    JitteredSource,
    ReplaySource,
    StreamingDetectionRuntime,
    StreamItem,
)
from repro.stream.runtime import arrival_groups
from tests.stream.test_runtime import RecordingEngine


@st.composite
def jittered_streams(draw, max_delay_past_bound: int = 0):
    """A random in-order stream, a lateness bound, and bounded delays."""
    n = draw(st.integers(min_value=0, max_value=80))
    lateness = draw(st.integers(min_value=0, max_value=12))
    ticks = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=60),
                min_size=n,
                max_size=n,
            )
        )
    )
    bound = lateness + max_delay_past_bound
    delays = [
        draw(st.integers(min_value=0, max_value=bound)) for _ in range(n)
    ]
    items = [
        StreamItem(
            entity=seq,
            event_tick=tick,
            seq=seq,
            arrival_tick=tick + delay,
            source="s",
        )
        for seq, (tick, delay) in enumerate(zip(ticks, delays))
    ]
    items.sort(key=lambda item: (item.arrival_tick, item.seq))
    return items, lateness


def run_pipeline(items, lateness):
    """Drive a recording runtime; return (released seqs, runtime).
    Each item's entity is its seq."""
    engine = RecordingEngine()
    runtime = StreamingDetectionRuntime(engine, lateness=lateness)
    runtime.register_source("s")
    for _, group in arrival_groups(items):
        runtime.ingest(group)
    runtime.finish()
    return engine.released, runtime


class TestWithinBound:
    @settings(max_examples=200, deadline=None)
    @given(jittered_streams())
    def test_output_equals_sorted_replay(self, case):
        items, lateness = case
        released, runtime = run_pipeline(items, lateness)
        assert released == sorted(item.seq for item in items)
        assert runtime.stats.late_observations == 0
        assert runtime.late_items == []

    @settings(max_examples=100, deadline=None)
    @given(jittered_streams())
    def test_peak_occupancy_bounds_buffered_state(self, case):
        items, lateness = case
        _, runtime = run_pipeline(items, lateness)
        assert runtime.stats.reorder_peak <= len(items)
        assert runtime.buffer.occupancy == 0  # finish() drains everything


class TestBeyondBound:
    @settings(max_examples=200, deadline=None)
    @given(jittered_streams(max_delay_past_bound=25))
    def test_late_counted_never_dropped(self, case):
        items, lateness = case
        released, runtime = run_pipeline(items, lateness)
        late = [item.seq for item in runtime.late_items]
        # Conservation: every observation is accounted for exactly once.
        assert sorted(released + late) == sorted(item.seq for item in items)
        assert runtime.stats.late_observations == len(late)
        # The released part is still in exact event-time order.
        keys = {item.seq: item.order_key for item in items}
        assert [keys[seq] for seq in released] == sorted(
            keys[seq] for seq in released
        )

    @settings(max_examples=100, deadline=None)
    @given(jittered_streams(max_delay_past_bound=25))
    def test_every_late_item_genuinely_missed_the_frontier(self, case):
        items, lateness = case
        runtime = StreamingDetectionRuntime(
            DetectionEngine(), lateness=lateness
        )
        runtime.register_source("s")
        late_checked = 0
        for _, group in arrival_groups(items):
            before = runtime.buffer.metrics_view()["released_through"]
            runtime.ingest(group)
            # Every item recorded late in this step arrived with an
            # event tick at or below the frontier released before it.
            for item in runtime.late_items[late_checked:]:
                assert before is not None
                assert item.event_tick <= before
                late_checked += 1
        runtime.finish()


class TestCheckpointTransparency:
    @settings(max_examples=60, deadline=None)
    @given(jittered_streams(max_delay_past_bound=8), st.integers(0, 100))
    def test_cut_anywhere_resume_identical(self, case, cut_seed):
        items, lateness = case
        groups = list(arrival_groups(items))
        cut = cut_seed % (len(groups) + 1)

        def runtime():
            r = StreamingDetectionRuntime(RecordingEngine(), lateness=lateness)
            r.register_source("s")
            return r

        reference = runtime()
        for _, group in groups:
            reference.ingest(group)
        reference.finish()

        first = runtime()
        for _, group in groups[:cut]:
            first.ingest(group)
        checkpoint = first.snapshot()
        resumed = runtime()
        resumed.restore(checkpoint)
        for _, group in groups[cut:]:
            resumed.ingest(group)
        resumed.finish()
        assert (
            first.engine.released + resumed.engine.released
            == reference.engine.released
        )
        # The restored runtime carries the head's late records forward.
        assert resumed.stats.late_observations >= first.stats.late_observations


class TestJitteredSourceModel:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_jittered_replay_through_runtime_is_exact(self, n, bound, seed):
        base = ReplaySource([(tick, [f"e{tick}"]) for tick in range(n)])
        engine = RecordingEngine()
        runtime = StreamingDetectionRuntime(engine, lateness=bound)
        runtime.run(JitteredSource(base, max_delay=bound, seed=seed))
        assert engine.released == [f"e{tick}" for tick in range(n)]
        assert runtime.stats.late_observations == 0
