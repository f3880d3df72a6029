"""Stream conformance: jittered replay reproduces the golden digests.

The contract of the event-time streaming runtime, pinned for *every*
registered scenario (small preset, registered seed):

* **capture** — every sink's and CCU's engine feed is recorded by a
  :class:`~repro.stream.capture.StreamTap` during one ordinary run (the
  run itself stays golden-identical: taps only observe);
* **jittered replay, shards=1 and shards=4** — the captured feed is
  disordered by seeded bounded jitter (delays up to the lateness bound)
  and replayed through
  :class:`~repro.stream.runtime.StreamingDetectionRuntime`; the reorder
  buffer + watermark release must restore the exact in-order submission
  sequence, so every replayed observer re-emits its original instance
  rows — and splicing those rows back into the behavioral trace
  reproduces the checked-in golden digest **byte-for-byte**;
* **no silent drops** — within-bound jitter must produce zero late
  observations (the provable guarantee the property suite generalizes);
* **checkpoint/restore** — a checkpoint taken mid-stream (engine
  windows + dedup + cooldowns + reorder buffer + watermarks) restores
  into a fresh runtime that produces the identical remaining instance
  stream, on both the single and the sharded backend;
* **jittery_corridor** — the registered scenario family whose *live*
  network fabric delivers sensor events out of event-time order, so
  the streaming discipline is exercised by a real transport, not only
  by synthetic jitter.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from pathlib import Path

import pytest

from repro.core.time_model import TimeInterval
from repro.sim.trace import trace_digest
from repro.stream import (
    AdmissionController,
    AdmissionLimits,
    JitteredSource,
    PacedSource,
    ReplayObserver,
    profile_of,
)
from repro.stream.runtime import StreamingDetectionRuntime, arrival_groups
from repro.workloads import build_scenario, scenario_names

GOLDEN_DIR = Path(__file__).parent / "golden"

BEHAVIOR_CATEGORIES = ("instance.emit", "command.executed")

LATENESS = 8
"""Replay lateness bound (ticks); also the jitter's max delay, so every
replayed stream is bounded-disordered and must come out late-free."""

JITTER_SEED = 20260729
"""Seed of the replay jitter stream (deterministic disorder)."""


_cache: dict[str, tuple] = {}


def _run(name: str):
    """Build + tap + run one registered scenario (memoized per session)."""
    if name not in _cache:
        scenario = build_scenario(name, preset="small")
        taps = scenario.system.attach_stream_taps()
        scenario.system.run(until=scenario.params["horizon"])
        _cache[name] = (scenario, taps)
    return _cache[name]


def _observer(system, name: str):
    if name in system.sinks:
        return system.sinks[name]
    return system.ccus[name]


def _original_rows(scenario, name: str):
    return [
        record
        for record in scenario.system.trace.by_category("instance.emit")
        if record.source == name
    ]


def _replay_all(scenario, taps, shards: int = 1, partition: str = "grid"):
    """Jitter + replay every tapped observer; return the replayers."""
    bounds = scenario.system.detection_bounds() if shards > 1 else None
    replays: dict[str, ReplayObserver] = {}
    for name, tap in taps.items():
        source = JitteredSource(tap, max_delay=LATENESS, seed=JITTER_SEED)
        replayer = ReplayObserver(
            profile_of(_observer(scenario.system, name)),
            lateness=LATENESS,
            shards=shards,
            bounds=bounds,
            partition=partition,
        )
        replayer.replay(source)
        replays[name] = replayer
    return replays


def _spliced_digest(scenario, replays) -> str:
    """Digest of the behavioral trace with replayed rows spliced in.

    Every ``instance.emit`` row of a replayed observer is substituted by
    the row the streaming replay reconstructed; everything else (mote
    emissions, executed commands) comes from the original run.  If the
    replay is exact, the result digests to the checked-in golden.
    """
    queues = {
        name: deque(replayer.trace_rows) for name, replayer in replays.items()
    }
    rows = []
    for record in scenario.system.trace.filtered(BEHAVIOR_CATEGORIES):
        if record.category == "instance.emit" and record.source in queues:
            queue = queues[record.source]
            assert queue, (
                f"streaming replay of {record.source!r} emitted fewer "
                f"instances than the original run (missing a row for "
                f"tick {record.tick})"
            )
            rows.append(queue.popleft())
        else:
            rows.append(record)
    assert all(not queue for queue in queues.values()), (
        "streaming replay emitted more instances than the original run"
    )
    return trace_digest(rows)


def _golden_digest(name: str) -> str:
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), f"no golden trace for scenario {name!r}"
    return json.loads(path.read_text())["digest"]


@pytest.mark.parametrize("name", scenario_names())
class TestStreamedGoldenConformance:
    def test_jitter_actually_disorders(self, name):
        scenario, taps = _run(name)
        # Disorder is only achievable where two observations lie within
        # the delay bound of each other (smart_building's interval
        # events are minutes apart — no bounded jitter can swap them).
        achievable = []
        for tap in taps.values():
            ticks = sorted(
                item.event_tick for item in JitteredSource(tap, 0)
            )
            if any(b - a <= LATENESS for a, b in zip(ticks, ticks[1:])):
                achievable.append(tap)
        if not achievable:
            pytest.skip(f"{name!r} streams are sparser than the bound")
        # At least one dense feed must come out genuinely out of order
        # under some deterministic seed, or the replay legs below would
        # prove nothing.  (Sparse feeds — a handful of pairs — can
        # survive one particular seed unshuffled by chance.)
        shuffled = [
            tap.name
            for tap in achievable
            for seed in (JITTER_SEED, 1, 2, 3)
            if JitteredSource(tap, max_delay=LATENESS, seed=seed).is_shuffled()
        ]
        assert shuffled, f"jitter left every stream of {name!r} in order"

    def test_streamed_replay_matches_golden(self, name):
        scenario, taps = _run(name)
        replays = _replay_all(scenario, taps, shards=1)
        for observer_name, replayer in replays.items():
            assert replayer.runtime.stats.late_observations == 0
            assert replayer.trace_rows == _original_rows(
                scenario, observer_name
            ), f"streamed replay of {observer_name!r} diverged"
        assert _spliced_digest(scenario, replays) == _golden_digest(name)

    def test_streamed_replay_matches_golden_sharded(self, name):
        scenario, taps = _run(name)
        replays = _replay_all(scenario, taps, shards=4)
        for observer_name, replayer in replays.items():
            assert replayer.runtime.stats.late_observations == 0
            assert replayer.trace_rows == _original_rows(
                scenario, observer_name
            ), f"sharded streamed replay of {observer_name!r} diverged"
        assert _spliced_digest(scenario, replays) == _golden_digest(name)

    def test_replayed_instances_identical(self, name):
        scenario, taps = _run(name)
        replays = _replay_all(scenario, taps, shards=1)
        for observer_name, replayer in replays.items():
            live = _observer(scenario.system, observer_name)
            assert [i.key for i in replayer.emitted] == [
                i.key for i in live.emitted
            ]
            for replayed, original in zip(replayer.emitted, live.emitted):
                assert replayed == original


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("name", scenario_names())
class TestMidStreamCheckpoint:
    def test_checkpoint_restores_identical_tail(self, name, shards):
        scenario, taps = _run(name)
        # The busiest feed exercises the most engine state.
        tap = max(taps.values(), key=lambda t: t.observation_count)
        bounds = scenario.system.detection_bounds() if shards > 1 else None
        profile = profile_of(_observer(scenario.system, tap.name))

        def replayer() -> ReplayObserver:
            rep = ReplayObserver(
                profile, lateness=LATENESS, shards=shards, bounds=bounds
            )
            rep.runtime.register_source(tap.name)
            return rep

        groups = list(
            arrival_groups(
                JitteredSource(tap, max_delay=LATENESS, seed=JITTER_SEED)
            )
        )
        half = len(groups) // 2
        first = replayer()
        for _, group in groups[:half]:
            first.ingest(group)
        checkpoint = first.snapshot()
        # The original continues past its checkpoint untouched...
        for _, group in groups[half:]:
            first.ingest(group)
        first.finish()
        assert first.trace_rows == _original_rows(scenario, tap.name)
        # ...and the restored runtime replays the identical tail.
        resumed = replayer()
        resumed.restore(checkpoint)
        for _, group in groups[half:]:
            resumed.ingest(group)
        resumed.finish()
        assert (
            resumed.trace_rows
            == first.trace_rows[checkpoint.emitted_count:]
        )
        # Rewinding the continued observer back to the checkpoint must
        # also drop its post-checkpoint emissions and replay the same
        # tail, not accumulate stale instances.
        first.restore(checkpoint)
        for _, group in groups[half:]:
            first.ingest(group)
        first.finish()
        assert first.trace_rows == resumed.trace_rows


class TestLiveFabricDisorder:
    def test_jittery_corridor_sink_feed_is_out_of_event_time_order(self):
        """The registered family's *fabric* reorders — not just replays."""
        scenario, taps = _run("jittery_corridor")
        tap = taps["MT0_0"]

        def occurred(entity) -> int:
            time = entity.occurrence_time
            return (
                time.start.tick
                if isinstance(time, TimeInterval)
                else time.tick
            )

        occurrence_order = [
            occurred(entity)
            for _, entities in tap.batches
            for entity in entities
        ]
        assert occurrence_order != sorted(occurrence_order), (
            "jittery_corridor's radio should deliver sensor events out of "
            "event-time order"
        )


@pytest.mark.parametrize("name", scenario_names())
class TestAdmissionZeroLimitIdentity:
    """A bounded runtime whose limits never trigger is golden-identical.

    Installing an :class:`~repro.stream.AdmissionController` with the
    default (no-op) :class:`~repro.stream.AdmissionLimits` must leave
    every scenario's jittered replay byte-for-byte on its golden digest
    with zero shed, deferred or backpressure events — admission is a
    strict superset of the unbounded runtime, never a new behavior.
    """

    def test_no_limit_replay_matches_golden(self, name):
        scenario, taps = _run(name)
        replays = {}
        for tap_name, tap in taps.items():
            source = JitteredSource(tap, max_delay=LATENESS, seed=JITTER_SEED)
            replayer = ReplayObserver(
                profile_of(_observer(scenario.system, tap_name)),
                lateness=LATENESS,
                admission=AdmissionController(),
            )
            replayer.replay(source)
            stats = replayer.runtime.stats
            assert stats.shed_observations == 0
            assert stats.deferred_observations == 0
            assert stats.backpressure_events == 0
            assert stats.late_observations == 0
            replays[tap_name] = replayer
        assert _spliced_digest(scenario, replays) == _golden_digest(name)


class TestOverloadSurgeBounded:
    """The overload family genuinely saturates a bound — and stays exact
    when unbounded (the CI overload-smoke leg)."""

    CAP = 32

    POLICIES = ("drop_oldest_late", "drop_lowest_priority", "degrade_to_sampling")

    _replays: dict = {}

    def _sink_tap(self):
        scenario, taps = _run("overload_surge")
        return scenario, taps["MT0_0"]

    def _jittered(self) -> JitteredSource:
        _, tap = self._sink_tap()
        return JitteredSource(tap, max_delay=LATENESS, seed=JITTER_SEED)

    def _replay(self, admission=None, source=None) -> ReplayObserver:
        """Replay the jittered surge feed (or ``source``) through the
        sink's specs."""
        scenario, tap = self._sink_tap()
        replayer = ReplayObserver(
            profile_of(_observer(scenario.system, tap.name)),
            lateness=LATENESS,
            admission=admission,
        )
        replayer.replay(self._jittered() if source is None else source)
        return replayer

    def _half_peak_replay(self, policy: str | None) -> ReplayObserver:
        """Replay capped at half the unbounded peak under ``policy``
        (``None``: the unbounded reference), memoized per session."""
        if policy not in self._replays:
            controller = None
            if policy is not None:
                peak = self._half_peak_replay(None).runtime.stats.reorder_peak
                controller = AdmissionController(
                    AdmissionLimits(max_pending=peak // 2), shedding=policy
                )
            self._replays[policy] = self._replay(controller)
        return self._replays[policy]

    def _emitted_keys(self, policy: str | None) -> Counter:
        return Counter(i.key for i in self._half_peak_replay(policy).emitted)

    def test_surge_feed_overloads_an_unbounded_buffer(self):
        scenario, tap = self._sink_tap()
        source = JitteredSource(tap, max_delay=LATENESS, seed=JITTER_SEED)
        runtime = StreamingDetectionRuntime(lateness=LATENESS)
        runtime.run(source)
        assert runtime.stats.reorder_peak > self.CAP, (
            "overload_surge must push unbounded occupancy past the cap "
            "or the bounded leg proves nothing"
        )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_bounded_replay_holds_the_cap_and_counts_losses(self, policy):
        scenario, tap = self._sink_tap()
        runtime = self._half_peak_replay(policy).runtime
        controller = runtime.admission
        stats = runtime.stats
        assert stats.reorder_peak <= controller.limits.max_pending
        assert stats.shed_observations > 0
        assert stats.backpressure_events > 0
        offered = sum(len(entities) for _, entities in tap.batches)
        assert (
            runtime.released_items
            + runtime.buffer.late_count
            + stats.shed_observations
            == offered
        )
        assert stats.shed_observations == controller.shed_total
        # Shedding loses matches; it never invents one.
        assert not self._emitted_keys(policy) - self._emitted_keys(None)

    def test_best_policy_keeps_half_the_matches_under_a_half_peak_cap(self):
        golden = self._emitted_keys(None)
        kept = max(
            sum((self._emitted_keys(policy) & golden).values())
            for policy in self.POLICIES
        )
        assert kept >= 0.5 * sum(golden.values())

    def test_paced_source_sheds_no_more_than_an_unpaced_one(self):
        limits = AdmissionLimits(rate=3.0, burst=6.0, max_deferred=16)
        unpaced = self._replay(AdmissionController(limits))
        source = PacedSource(self._jittered(), slowdown=2)
        paced = self._replay(AdmissionController(limits), source)
        unpaced_shed = unpaced.runtime.stats.shed_observations
        assert unpaced_shed > 0, "the rate limit never shed: comparing zeros"
        assert source.throttle_count > 0
        assert paced.runtime.stats.shed_observations <= unpaced_shed

    def test_sharded_bounded_replay_holds_the_cap(self):
        scenario, tap = self._sink_tap()
        source = JitteredSource(tap, max_delay=LATENESS, seed=JITTER_SEED)
        controller = AdmissionController(AdmissionLimits(max_pending=self.CAP))
        replayer = ReplayObserver(
            profile_of(_observer(scenario.system, tap.name)),
            lateness=LATENESS,
            shards=4,
            bounds=scenario.system.detection_bounds(),
            admission=controller,
        )
        replayer.replay(source)
        assert replayer.runtime.stats.reorder_peak <= self.CAP
        assert replayer.runtime.stats.shed_observations > 0
