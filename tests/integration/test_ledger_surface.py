"""Tier-1 guard for the surface the performance ledger patches and reads.

``benchmarks/ledger`` lives outside ``testpaths`` and is frozen by
``BENCHMARK.json``: it wraps 31 public methods *by name on their
defining class* (``SpanRecorder.patch`` reads ``cls.__dict__``, so a
renamed **or merely inherited** method is a ``KeyError``) and its
correctness gate reads a fixed set of attributes off a finished replay.
Without this file, a refactor that moves one of them would first fail
inside the benchmark run.  The tests below run the ledger's own code —
``install_spans`` and ``gate_replay`` — against the current ``src/``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.event import EventLayer
from repro.detect.engine import EngineStats
from repro.shard import ShardedDetectionEngine
from repro.stream import (
    CheckpointPolicy,
    FaultPlan,
    FaultySource,
    JitteredSource,
    Quarantine,
    RedeliveryDeduper,
    ReplayObserver,
    SupervisedRuntime,
    arrival_groups,
    profile_of,
)
from repro.workloads import build_scenario

from tests.integration.test_conformance import _observer, _run

LEDGER = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger"


@pytest.fixture
def ledger(monkeypatch):
    """The ledger's modules, imported the way ``run.py`` finds them."""
    monkeypatch.syspath_prepend(str(LEDGER))
    import harness
    import run
    from spans import SpanRecorder

    return harness, run, SpanRecorder


def test_every_span_names_a_method_its_class_defines(ledger):
    _, run, SpanRecorder = ledger
    recorder = SpanRecorder()
    try:
        run.install_spans(recorder)
    finally:
        recorder.unpatch()


def test_front_stage_spans_count_what_their_metrics_divide_by(ledger):
    """``stream.quarantine.admit.us_per_obs`` and ``.dedup.admit.us_per_obs``
    divide by the span's calls, ``stream.admission.intake.us_per_obs`` by
    the offered observations and ``.make_room.us_per_shed`` by the shed
    count: each span must fire once per delivered item, once per delivery
    step and once per at-cap offer (every one of which sheds exactly one
    observation, the incoming one or a buffered victim)."""
    harness, run, SpanRecorder = ledger
    from speed import SpeedMeter

    workload = harness.WORKLOADS["stream_overload"]
    meter = SpeedMeter()
    inputs = workload.setup(0, "small", meter)
    (feed,) = inputs.feeds
    recorder = SpanRecorder()
    run.install_spans(recorder)
    try:
        result = workload.run_pass(inputs, meter, recorder)
    finally:
        recorder.unpatch()
    assert result.failed == 0, result.problems
    totals = recorder.totals()
    replays = harness.OVERLOAD_REPLAYS
    delivered = replays * sum(len(group) for group in feed.steps)
    assert totals["stream.quarantine.admit"].calls == delivered
    assert totals["stream.dedup.admit"].calls == delivered
    assert totals["stream.admission.intake"].calls == replays * len(feed.steps)
    assert (
        totals["stream.admission.make_room"].calls
        == result.counts["shed"]
        > 0
    )


def test_gate_reads_a_finished_supervised_replay(ledger):
    harness, _, _ = ledger
    scenario, taps = _run("jittery_corridor")
    tap = max(taps.values(), key=lambda t: t.observation_count)
    observer = _observer(scenario.system, tap.name)
    source = JitteredSource(tap, max_delay=harness.LATENESS, seed=0)
    feed = harness.Feed(
        name=tap.name,
        profile=profile_of(observer),
        source=source,
        steps=[group for _, group in arrival_groups(source)],
        observations=tap.observation_count,
        reference=[instance.key for instance in observer.emitted],
    )
    plan = FaultPlan.seeded(
        0, len(feed.steps), crashes=2, duplicate_bursts=2, corruptions=2
    )
    supervisor = SupervisedRuntime(
        ReplayObserver(
            feed.profile,
            lateness=harness.LATENESS,
            quarantine=Quarantine(),
            dedup=RedeliveryDeduper(),
        ),
        checkpoints=CheckpointPolicy(
            every_steps=harness.CHECKPOINT_EVERY_STEPS
        ),
    )
    supervisor.run(FaultySource(feed.source, plan, redelivery_overlap=1))

    result = harness.PassResult(
        wall_s=0.0,
        raw_wall_s=0.0,
        cpu_s=0.0,
        observations=feed.observations,
        step_us=[],
    )
    harness.gate_replay(feed, supervisor.host, result, lossless=True)
    assert result.failed == 0, result.problems
    assert result.recall == 1.0
    # What the faulted workload reads off the supervisor itself.
    assert supervisor.recoveries == len(plan.crashes)
    assert supervisor.checkpoints_taken > supervisor.recoveries
    # The counters the gate collected are the runtime's own.
    stats = supervisor.host.runtime.stats
    assert result.counts["reorder_peak"] == stats.reorder_peak
    assert result.counts["duplicates_dropped"] == stats.duplicates_dropped > 0
    assert (
        result.counts["quarantined"] == stats.quarantined_observations > 0
    )
    assert result.counts["entities"] == stats.released_items


def test_an_on_match_bound_after_construction_sees_every_match(ledger):
    """``harness.trace_emit`` re-binds ``runtime.on_match`` on a built
    replayer to span ``stream.emit``: the runtime must read the callback
    when it calls it, once per match."""
    harness, _, _ = ledger
    scenario, taps = _run("jittery_corridor")
    tap = max(taps.values(), key=lambda t: t.observation_count)
    replayer = ReplayObserver(
        profile_of(_observer(scenario.system, tap.name)),
        lateness=harness.LATENESS,
    )

    class Recorder:
        calls = 0

        def wrap(self, function, name):
            assert name == "stream.emit"

            def counted(match):
                self.calls += 1
                return function(match)

            return counted

    recorder = Recorder()
    harness.trace_emit(replayer, recorder)
    replayer.replay(JitteredSource(tap, max_delay=harness.LATENESS, seed=0))
    stats = replayer.runtime.engine.stats
    assert recorder.calls == stats.matches == len(replayer.emitted) > 0


def test_sharded_workload_builds_and_gates_its_replayers(ledger):
    """``build_scenario`` → ``detection_bounds()`` → ``profile_of`` →
    ``ReplayObserver(shards=4, bounds=...)``, as the harness chains them."""
    harness, _, _ = ledger
    from speed import SpeedMeter

    workload = harness.WORKLOADS["stream_enum_shard4"]
    meter = SpeedMeter()
    inputs = harness.capture(workload, 0, "small", meter)
    replayers = workload.replayers(inputs)
    assert len(replayers) == len(inputs.feeds) > 0
    for replayer in replayers:
        engine = replayer.runtime.engine
        assert type(engine) is ShardedDetectionEngine
        assert engine.shard_count == 4
        assert engine.partitioner.bounds == inputs.bounds
    result = workload.run_pass(inputs, meter)
    assert result.failed == 0, result.problems
    assert result.recall == 1.0


def test_the_live_loop_keeps_its_counts():
    """The ledger pins ``sim_events`` / ``instances`` / ``entities`` of
    ``live_dense`` at preset medium, but only inside a benchmark run.
    These are the same facts at preset small, stepped the way the ledger
    steps (``run(until=tick)``, one tick at a time), read off the commit
    before the kernel, the trace rows and the value classes were made
    cheaper: a kernel event, a trace row, an instance or an engine call
    appearing or vanishing is a behaviour change, whatever it costs."""
    built = build_scenario("high_density", preset="small", seed=0)
    system = built.system
    for tick in range(1, built.params["horizon"] + 1):
        assert system.run(until=tick) == tick
    observers = [
        *system.motes.values(), *system.sinks.values(), *system.ccus.values()
    ]
    stats = EngineStats.merge(o.engine.stats for o in observers)
    assert system.sim.events_processed == 2_754
    assert len(system.trace) == 3_244
    assert system.instances_by_layer() == {
        EventLayer.SENSOR: 438,
        EventLayer.CYBER_PHYSICAL: 42,
        EventLayer.CYBER: 3,
    }
    assert stats.batches_submitted == 2_022  # one per submit_batch call
    assert stats.entities_submitted == 2_285
    assert system.sim.pending == 51
    assert len(system.databases["DB1"]) == 45
