"""Golden conformance: one harness, every registered scenario, every leg.

The paper's claim is that every observer turns the same inputs into the
same event instances.  This module pins it for *every* scenario in the
registry (small preset, registered seed) as a few invariants checked
over tables of configurations.  All of them read one capture per
``(scenario, use_planner, seed)``: a whole-system run with a
:class:`~repro.stream.capture.StreamTap` on every sink's and CCU's
engine feed.  Taps only observe, so the tapped run is the live golden
run as well.

* **live legs** (:data:`LIVE`) — the system on the planned engine and
  on the exhaustive baseline reproduces the checked-in golden digest
  and the baseline's match set.  Pruning may only reduce
  ``bindings_evaluated``; engine counters and instance fields keep
  their structural laws; every layer is reached and the loop is closed
  by an actuation.
* **replay legs** (:data:`LEGS`) — every captured feed, disordered by
  seeded jitter within the lateness bound, is replayed through a
  :class:`~repro.stream.replay.ReplayObserver` on 1 or 4 shards, behind
  a no-op admission controller, under full stage tracing, or through
  seeded crashes, duplicates, corruption and stalls recovered by a
  supervisor; each of the last three also runs on 4 shards, so the
  admission, tracing and recovery paths feed the sharded backend too.  Every leg re-emits each observer's live instances and
  trace rows exactly, with no late observation and a balanced
  conservation ledger, and splicing its rows into the behavioral trace
  reproduces the golden digest byte for byte.
* **rows** — every observer's output log, live and replayed, reads
  back as the instances ``build_instance`` makes of its matches (refined
  where the observer refines), and the trace rows it writes from its
  columns are the ones ``emit_payload`` makes of those instances.
* **checkpoint** — a runtime restored from a mid-stream checkpoint (1
  and 4 shards, with and without telemetry) exports the original's
  bytes and replays the identical tail, and so does the original
  rewound to it.
* **goldens and determinism** — the behavioral digest matches the
  golden file (``pytest --update-golden`` rewrites them, so a PR that
  changes end-to-end behavior shows the diff); the same seed reproduces
  the full trace byte for byte and another seed changes the digest.

The checks that have no twin across legs follow: the jitter really
disorders, the ``jittery_corridor`` fabric reorders live, an overloaded
bounded replay holds its cap and counts its losses, a crash at any step
recovers, and telemetry's export is a view of the parts, stable across
runs.  (That a telemetry-bearing checkpoint refuses to restore into a
bare runtime, and vice versa, is one row of the stage-mismatch table in
``tests/stream/test_checkpoint.py``.)
"""

from __future__ import annotations

import json
import zlib
from collections import Counter, deque
from dataclasses import dataclass, fields
from hashlib import sha256
from pathlib import Path

import pytest

from repro.core.event import EventLayer
from repro.core.time_model import TimeInterval, TimePoint
from repro.cps.component import ObserverComponent
from repro.detect.output import build_instance, emit_payload
from repro.obs import Telemetry, collect, to_json, trace_rows_digest
from repro.sim.trace import TraceRecord, trace_digest
from repro.stream import (
    AdmissionController,
    AdmissionLimits,
    CheckpointPolicy,
    FaultPlan,
    FaultySource,
    JitteredSource,
    PacedSource,
    Quarantine,
    RedeliveryDeduper,
    ReplayObserver,
    SupervisedRuntime,
    profile_of,
)
from repro.stream.runtime import arrival_groups
from repro.workloads import build_scenario, scenario_names

GOLDEN_DIR = Path(__file__).parent / "golden"

BEHAVIOR_CATEGORIES = ("instance.emit", "command.executed")
"""Trace categories that constitute observable end-to-end behavior:
every event instance any observer emits (all three layers) and every
actuator command executed against the physical world."""

ALT_SEED = 20260729
"""Seed used to show digests are seed-sensitive, not constants."""

LATENESS = 8
"""Replay lateness bound (ticks); also the jitter's max delay, so every
replayed stream is bounded-disordered and must come out late-free."""

JITTER_SEED = 20260729
"""Seed of the replay jitter stream (deterministic disorder)."""

CHECKPOINT_EVERY = 4
"""Supervisor checkpoint interval (delivery steps) on the chaos legs —
small enough that every crash lands several steps past a checkpoint."""

NAMES = scenario_names()

LIVE = (True, False)
"""The live legs, as ``use_planner``: every registered scenario runs
whole on the planned engine and on the exhaustive baseline."""


@dataclass(frozen=True)
class Leg:
    """One way to replay every captured feed."""

    shards: int = 1
    admission: bool = False
    """Behind an :class:`AdmissionController` whose limits never trigger."""
    telemetry: bool = False
    """Under stage tracing of every observation (``trace_every=1``)."""
    faults: bool = False
    """Through a seeded :class:`FaultPlan` (crashes, duplicate bursts,
    corruption, a stall), recovered by a :class:`SupervisedRuntime` over
    redelivery dedup and a quarantine."""


LEGS = {
    "jittered": Leg(),
    "jittered/4": Leg(shards=4),
    "zero-limit": Leg(admission=True),
    "zero-limit/4": Leg(shards=4, admission=True),
    "traced": Leg(telemetry=True),
    "traced/4": Leg(shards=4, telemetry=True),
    "chaos": Leg(faults=True),
    "chaos/4": Leg(shards=4, faults=True),
}


# -- helpers -----------------------------------------------------------


def _observers(system):
    return [
        *system.motes.values(),
        *system.sinks.values(),
        *system.ccus.values(),
    ]


def _observer(system, name: str):
    """The sink or CCU whose engine feed the tap ``name`` recorded."""
    if name in system.sinks:
        return system.sinks[name]
    return system.ccus[name]


def _behavior_digest(scenario) -> str:
    return trace_digest(scenario.system.trace.filtered(BEHAVIOR_CATEGORIES))


def _match_set(scenario):
    """Observable identity of every emitted instance, across observers."""
    out = set()
    for observer in _observers(scenario.system):
        for instance in observer.emitted:
            out.add(
                (
                    repr(instance.observer),
                    instance.event_id,
                    instance.seq,
                    instance.generated_time.tick,
                    repr(instance.estimated_time),
                    repr(instance.estimated_location),
                    round(instance.confidence, 12),
                    tuple(sorted(instance.attributes)),
                )
            )
    return out


def _original_rows(scenario, name: str):
    return [
        record
        for record in scenario.system.trace.by_category("instance.emit")
        if record.source == name
    ]


def _golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def _golden_digest(name: str) -> str:
    path = _golden_path(name)
    assert path.exists(), f"no golden trace for scenario {name!r}"
    return json.loads(path.read_text())["digest"]


def _golden_payload(name: str, scenario) -> dict:
    layers = scenario.system.instances_by_layer()
    behavior = scenario.system.trace.filtered(BEHAVIOR_CATEGORIES)
    categories: dict[str, int] = {}
    for record in behavior:
        categories[record.category] = categories.get(record.category, 0) + 1
    return {
        "scenario": name,
        "preset": "small",
        "seed": scenario.system.sim.seed,
        "digest": _behavior_digest(scenario),
        "behavior_records": len(behavior),
        "categories": dict(sorted(categories.items())),
        "instances_by_layer": {
            layer.name: count for layer, count in sorted(
                layers.items(), key=lambda kv: kv[0].value
            )
        },
    }


def _spliced_digest(scenario, replays) -> str:
    """Digest of the behavioral trace with replayed rows spliced in.

    Every ``instance.emit`` row of a replayed observer is substituted by
    the row its replay reconstructed; everything else (mote emissions,
    executed commands) comes from the original run.  If the replay is
    exact, the result digests to the checked-in golden.
    """
    queues = {
        name: deque(replayer.trace_rows) for name, replayer in replays.items()
    }
    rows = []
    for record in scenario.system.trace.filtered(BEHAVIOR_CATEGORIES):
        if record.category == "instance.emit" and record.source in queues:
            queue = queues[record.source]
            assert queue, (
                f"replay of {record.source!r} emitted fewer instances than "
                f"the original run (missing a row for tick {record.tick})"
            )
            rows.append(queue.popleft())
        else:
            rows.append(record)
    assert all(not queue for queue in queues.values()), (
        "a replay emitted more instances than the original run"
    )
    return trace_digest(rows)


def _jittered(tap) -> JitteredSource:
    return JitteredSource(tap, max_delay=LATENESS, seed=JITTER_SEED)


def _busiest(taps):
    """The feed that exercises the most engine state."""
    return max(taps.values(), key=lambda tap: tap.observation_count)


def _export(runtime) -> tuple:
    """A runtime's canonical JSON export and its completed-trace ring."""
    telemetry = runtime.telemetry
    rows = telemetry.completed_rows() if telemetry is not None else ()
    return to_json(collect(runtime)), rows


def _plan_for(scenario_name: str, tap_name: str, steps: int) -> FaultPlan:
    """A per-feed seeded plan with full fault-taxonomy coverage."""
    seed = zlib.crc32(f"{scenario_name}:{tap_name}".encode())
    return FaultPlan.seeded(
        seed, steps, crashes=2, duplicate_bursts=2, corruptions=2, stalls=1
    )


_captures: dict[tuple, tuple] = {}


def _run(name: str, use_planner: bool = True, seed: int | None = None):
    """Build, tap and run one registered scenario (memoized per session).

    Returns ``(scenario, taps)``, the taps keyed by observer name.
    """
    key = (name, use_planner, seed)
    if key not in _captures:
        scenario = build_scenario(
            name, preset="small", seed=seed, use_planner=use_planner
        )
        taps = scenario.system.attach_stream_taps()
        scenario.system.run(until=scenario.params["horizon"])
        _captures[key] = (scenario, taps)
    return _captures[key]


def _replayer(scenario, name: str, leg: Leg = Leg(), **parts):
    """A fresh replay of observer ``name`` configured as ``leg``;
    ``parts`` replace what the leg would install."""
    config = {
        "shards": leg.shards,
        "bounds": (
            scenario.system.detection_bounds() if leg.shards > 1 else None
        ),
        "admission": AdmissionController() if leg.admission else None,
        "telemetry": (
            Telemetry.create(trace_every=1) if leg.telemetry else None
        ),
        "dedup": RedeliveryDeduper() if leg.faults else None,
        "quarantine": Quarantine() if leg.faults else None,
    }
    return ReplayObserver(
        profile_of(_observer(scenario.system, name)),
        lateness=LATENESS,
        **{**config, **parts},
    )


_replays: dict[tuple, dict] = {}


def replay(name: str, leg: Leg) -> dict[str, ReplayObserver]:
    """Every captured feed of scenario ``name`` replayed under ``leg``,
    keyed by observer name (memoized per session)."""
    key = (name, leg)
    if key not in _replays:
        scenario, taps = _run(name)
        replays = {}
        for observer, tap in taps.items():
            replayer = _replayer(scenario, observer, leg)
            steps = FaultySource(_jittered(tap)).steps if leg.faults else 0
            if steps:
                SupervisedRuntime(
                    replayer,
                    checkpoints=CheckpointPolicy(every_steps=CHECKPOINT_EVERY),
                ).run(
                    FaultySource(
                        _jittered(tap),
                        _plan_for(name, observer, steps),
                        redelivery_overlap=1,
                    )
                )
            else:
                replayer.replay(_jittered(tap))
            replays[observer] = replayer
        _replays[key] = replays
    return _replays[key]


# -- live legs, goldens, determinism -----------------------------------


@pytest.mark.parametrize("use_planner", LIVE, ids=["planned", "naive"])
@pytest.mark.parametrize("name", NAMES)
def test_live_leg(name, use_planner):
    scenario, _ = _run(name, use_planner)
    baseline, _ = _run(name, False)
    assert _behavior_digest(scenario) == _golden_digest(name), (
        f"use_planner={use_planner} diverged from the golden trace of "
        f"{name!r}; the planner may only prune detection, never change it"
    )
    assert _match_set(scenario) == _match_set(baseline)


@pytest.mark.parametrize("use_planner", LIVE, ids=["planned", "naive"])
@pytest.mark.parametrize("name", NAMES)
def test_live_leg_laws(name, use_planner):
    """Engine counters and instance fields keep their structural laws
    against the exhaustive baseline; every layer is reached and the loop
    is closed by an actuation."""
    scenario, _ = _run(name, use_planner)
    baseline, _ = _run(name, False)
    for observer, reference in zip(
        _observers(scenario.system), _observers(baseline.system), strict=True
    ):
        assert observer.name == reference.name
        stats, exhaustive = observer.engine.stats, reference.engine.stats
        assert 0 <= stats.matches <= stats.bindings_evaluated
        assert stats.matches == exhaustive.matches
        assert stats.entities_submitted == exhaustive.entities_submitted
        assert stats.evaluation_errors == 0
        assert stats.bindings_evaluated <= exhaustive.bindings_evaluated
        if not use_planner:
            assert stats.candidates_pruned == 0
        for instance in observer.emitted:
            assert 0.0 <= instance.confidence <= 1.0
            assert instance.detection_latency >= 0
            assert instance.layer is observer.layer
    layers = scenario.system.instances_by_layer()
    for layer in (
        EventLayer.SENSOR,
        EventLayer.CYBER_PHYSICAL,
        EventLayer.CYBER,
    ):
        assert layers.get(layer, 0) >= 1, f"{name} never reached {layer}"
    assert scenario.system.trace.count("command.executed") >= 1


@pytest.mark.parametrize("name", NAMES)
def test_golden_payload(name, request):
    payload = _golden_payload(name, _run(name)[0])
    path = _golden_path(name)
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return
    assert path.exists(), (
        f"no golden trace for scenario {name!r}; generate it with "
        f"'pytest tests/integration/test_conformance.py --update-golden' "
        f"and commit {path}"
    )
    golden = json.loads(path.read_text())
    assert payload["digest"] == golden["digest"], (
        f"behavioral digest of scenario {name!r} drifted from its "
        f"golden trace; if the change is intended, regenerate with "
        f"--update-golden and review the committed diff"
    )
    assert payload == golden


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_byte_identical(name):
    """An untapped rebuild at the registered seed reproduces the
    capture's full trace (every packet, sample and bus delivery), not
    just the behavioral subset."""
    scenario, _ = _run(name)
    fresh = build_scenario(name, preset="small", seed=scenario.system.sim.seed)
    fresh.system.run(until=fresh.params["horizon"])
    assert fresh.system.trace.digest() == scenario.system.trace.digest()


@pytest.mark.parametrize("name", NAMES)
def test_different_seed_different_digest(name):
    other, _ = _run(name, seed=ALT_SEED)
    assert _behavior_digest(other) != _behavior_digest(_run(name)[0])


# -- rows ----------------------------------------------------------------


def _same(got, want) -> None:
    """Equal the way an output log promises: ``==``, class, sources, key."""
    assert got == want and type(got) is type(want)
    assert got.sources == want.sources and got.key == want.key


def _numbered(observer, matches) -> list:
    """``build_instance`` of each match, numbered per event id and
    refined as the observer refines: what the log used to keep."""
    refine = profile_of(observer).refine
    counters: dict[str, int] = {}
    out = []
    for match in matches:
        seq = counters.get(match.spec.event_id, 0)
        counters[match.spec.event_id] = seq + 1
        instance = build_instance(
            match, observer.observer_id, seq, TimePoint(match.tick),
            observer.location, observer.layer, observer.instance_cls,
        )
        out.append(instance if refine is None else refine(instance, match))
    return out


@pytest.mark.parametrize("name", NAMES)
def test_rows_read_back_as_the_instances_build_instance_makes(name, monkeypatch):
    """Every spec's rows, on the live leg and on the replay leg, read back
    as the instances :func:`build_instance` makes of their matches (or,
    for the mote's interval tracker, as the instance it appended), and
    the trace rows a log writes from its columns are the rows
    :func:`emit_payload` makes of those instances."""
    appended: dict[str, list] = {}
    matched: dict[str, list] = {}

    def emit_match(self, match, original=ObserverComponent._emit_match):
        instance = original(self, match)
        matched.setdefault(self.name, []).append((match, instance))
        return instance

    def emit_direct(self, instance, original=ObserverComponent.emit_direct):
        appended.setdefault(self.name, []).append(instance)
        original(self, instance)

    monkeypatch.setattr(ObserverComponent, "_emit_match", emit_match)
    monkeypatch.setattr(ObserverComponent, "emit_direct", emit_direct)
    scenario = build_scenario(name, preset="small")
    taps = scenario.system.attach_stream_taps()
    scenario.system.run(until=scenario.params["horizon"])
    monkeypatch.undo()

    specs = set()
    for observer in _observers(scenario.system):
        log = observer.emitted
        want = appended.get(observer.name, [])
        assert len(log) == len(want)
        for got, instance in zip(log, want):
            _same(got, instance)
        pairs = matched.get(observer.name, [])
        built = _numbered(observer, [match for match, _ in pairs])
        for (_, instance), expected in zip(pairs, built, strict=True):
            _same(instance, expected)
        assert log.trace_rows(observer.name) == [
            TraceRecord(
                i.generated_time.tick, "instance.emit", observer.name,
                emit_payload(i),
            )
            for i in want
        ]
        specs.update((observer.name, i.event_id) for i in want)

        if observer.name not in taps:
            continue
        replayer = ReplayObserver(profile_of(observer), lateness=LATENESS)
        replayed = []
        on_match = replayer.runtime.on_match

        def record(match, on_match=on_match):
            replayed.append(match)
            on_match(match)

        replayer.runtime.on_match = record
        replayer.replay(_jittered(taps[observer.name]))
        want = _numbered(observer, replayed)
        assert len(replayer.emitted) == len(want)
        for got, instance in zip(replayer.emitted, want):
            _same(got, instance)
        assert replayer.trace_rows == [
            TraceRecord(
                i.generated_time.tick, "instance.emit", observer.name,
                emit_payload(i),
            )
            for i in want
        ]
        assert replayer.emitted == log
    assert specs  # every scenario emits


# -- replay legs -------------------------------------------------------


@pytest.mark.parametrize("leg", LEGS.values(), ids=LEGS)
@pytest.mark.parametrize("name", NAMES)
def test_replay_leg(name, leg):
    scenario, taps = _run(name)
    replays = replay(name, leg)
    for observer, replayer in replays.items():
        tap, runtime = taps[observer], replayer.runtime
        stats = runtime.stats
        assert replayer.trace_rows == _original_rows(scenario, observer), (
            f"replay of {observer!r} diverged"
        )
        assert replayer.emitted == _observer(scenario.system, observer).emitted
        assert stats.late_observations == 0
        # The conservation ledger: every original observation is
        # released, late or shed exactly once; injected duplicates and
        # corrupt copies are counted apart (dedup, quarantine).
        assert (
            runtime.released_items
            + stats.late_observations
            + stats.shed_observations
            == tap.observation_count
        )
        if leg.admission:
            assert stats.shed_observations == 0
            assert stats.deferred_observations == 0
            assert stats.backpressure_events == 0
        if leg.faults and tap.observation_count:
            # The seeded plan guarantees crashes, duplicates and
            # corruption on every non-empty feed.
            assert runtime.supervisor.recoveries >= 1
            assert runtime.supervisor.backoff_delays
            assert stats.duplicates_dropped >= 1
            assert stats.quarantined_observations >= 1


@pytest.mark.parametrize("leg", LEGS.values(), ids=LEGS)
@pytest.mark.parametrize("name", NAMES)
def test_replay_leg_splice(name, leg):
    """Splicing the leg's replayed rows into the live behavioral trace
    reproduces the golden digest byte for byte."""
    scenario, _ = _run(name)
    assert _spliced_digest(scenario, replay(name, leg)) == _golden_digest(name)


@pytest.mark.parametrize("name", NAMES)
def test_jitter_actually_disorders(name):
    _, taps = _run(name)
    # Disorder is only achievable where two observations lie within the
    # delay bound of each other (smart_building's interval events are
    # minutes apart — no bounded jitter can swap them).
    achievable = []
    for tap in taps.values():
        ticks = sorted(item.event_tick for item in JitteredSource(tap, 0))
        if any(b - a <= LATENESS for a, b in zip(ticks, ticks[1:])):
            achievable.append(tap)
    if not achievable:
        pytest.skip(f"{name!r} streams are sparser than the bound")
    # At least one dense feed must come out genuinely out of order under
    # some deterministic seed, or the replay legs prove nothing.  (Sparse
    # feeds — a handful of pairs — can survive one seed unshuffled.)
    shuffled = [
        tap.name
        for tap in achievable
        for seed in (JITTER_SEED, 1, 2, 3)
        if JitteredSource(tap, max_delay=LATENESS, seed=seed).is_shuffled()
    ]
    assert shuffled, f"jitter left every stream of {name!r} in order"


def test_jittery_corridor_fabric_delivers_out_of_event_time_order():
    """The registered family's *fabric* reorders — not just replays."""
    _, taps = _run("jittery_corridor")

    def occurred(entity) -> int:
        time = entity.occurrence_time
        return time.start.tick if isinstance(time, TimeInterval) else time.tick

    occurrence_order = [
        occurred(entity)
        for _, entities in taps["MT0_0"].batches
        for entity in entities
    ]
    assert occurrence_order != sorted(occurrence_order)


# -- checkpoint --------------------------------------------------------


@pytest.mark.parametrize("telemetry", [False, True], ids=["bare", "traced"])
@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("name", NAMES)
def test_checkpoint_restores_identical_tail(name, shards, telemetry):
    scenario, taps = _run(name)
    tap = _busiest(taps)
    leg = Leg(shards=shards, telemetry=telemetry)

    def replayer() -> ReplayObserver:
        rep = _replayer(scenario, tap.name, leg)
        rep.runtime.register_source(tap.name)
        return rep

    groups = [group for _, group in arrival_groups(_jittered(tap))]
    half = len(groups) // 2
    first = replayer()
    for group in groups[:half]:
        first.ingest(group)
    checkpoint = first.snapshot()
    assert ("telemetry" in checkpoint.runtime.stages) == telemetry
    resumed = replayer()
    resumed.restore(checkpoint)
    assert _export(resumed.runtime) == _export(first.runtime)
    # The original continues past its checkpoint untouched, and the
    # restored runtime drains the identical tail beside it.
    for group in groups[half:]:
        first.ingest(group)
        resumed.ingest(group)
    first.finish()
    resumed.finish()
    assert first.trace_rows == _original_rows(scenario, tap.name)
    assert resumed.trace_rows == first.trace_rows[checkpoint.emitted_count:]
    assert _export(resumed.runtime) == _export(first.runtime)
    # Rewinding the original to the checkpoint drops its post-checkpoint
    # emissions and replays the same tail, not stale instances.
    first.restore(checkpoint)
    for group in groups[half:]:
        first.ingest(group)
    first.finish()
    assert first.trace_rows == resumed.trace_rows
    assert _export(first.runtime) == _export(resumed.runtime)


# -- telemetry reads, it never perturbs --------------------------------


def _values(runtime) -> dict:
    return {
        (sample.name, sample.labels): sample.value
        for sample in collect(runtime)
    }


@pytest.mark.parametrize(
    "traced, bare",
    [("traced", "jittered"), ("traced/4", "jittered/4")],
    ids=["1", "4"],
)
@pytest.mark.parametrize("name", NAMES)
def test_export_is_a_view_of_the_parts(name, traced, bare):
    """Every exported series is read from its owner, and a bare replay
    exports every non-``obs_*`` series a traced one does."""
    bare_replays = replay(name, LEGS[bare])
    for observer, replayer in replay(name, LEGS[traced]).items():
        runtime = replayer.runtime
        values = _values(runtime)
        stats = runtime.stats
        for field in fields(stats):
            if field.metadata:
                assert values[(field.metadata["series"], ())] == getattr(
                    stats, field.name
                ), field.name
        assert values[("stream_reorder_occupancy", ())] == 0
        assert ("stream_watermark", ()) not in values  # finished

        engine = runtime.engine
        # Per shard, matches count before the merger's dedup.
        sharded = LEGS[traced].shards > 1
        raw = engine.shard_stats() if sharded else [engine.stats]
        for series, total in (
            ("engine_spec_bindings_total", engine.stats.bindings_evaluated),
            ("engine_spec_matches_total", sum(s.matches for s in raw)),
        ):
            assert total == sum(
                value for (key, _), value in values.items() if key == series
            ), series

        telemetry = runtime.telemetry
        discarded = sum(
            value for (key, _), value in values.items()
            if key == "obs_traces_discarded_total"
        )
        completed = values[("obs_traces_completed_total", ())]
        assert values[("obs_traces_sampled_total", ())] == (
            completed + discarded + telemetry.active_count
        )
        assert completed >= len(telemetry.completed_rows())  # ring cap

        assert _values(bare_replays[observer].runtime) == {
            key: value for key, value in values.items()
            if not key[0].startswith("obs_")
        }


@pytest.mark.parametrize("name", NAMES)
def test_traced_export_identical_across_two_runs(name):
    """A second traced replay exports the same bytes — the canonical
    JSON and the completed-trace ring both."""
    scenario, taps = _run(name)
    tap = _busiest(taps)
    again = _replayer(scenario, tap.name, LEGS["traced"])
    again.replay(_jittered(tap))
    cached = replay(name, LEGS["traced"])[tap.name]
    assert _export(again.runtime) == _export(cached.runtime)


# -- the checks with no twin -------------------------------------------


class TestOverloadSurgeBounded:
    """The overload family genuinely saturates a bound — and stays exact
    when unbounded (the CI overload-smoke leg)."""

    CAP = 32

    POLICIES = ("drop_oldest_late", "drop_lowest_priority", "degrade_to_sampling")

    _replays: dict = {}

    def _replay(self, admission=None, source=None, **parts) -> ReplayObserver:
        """Replay the jittered surge feed (or ``source``) through the
        sink's specs."""
        scenario, taps = _run("overload_surge")
        tap = taps["MT0_0"]
        replayer = _replayer(scenario, tap.name, admission=admission, **parts)
        replayer.replay(_jittered(tap) if source is None else source)
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
        assert self._half_peak_replay(None).runtime.stats.reorder_peak > (
            self.CAP
        ), (
            "overload_surge must push unbounded occupancy past the cap "
            "or the bounded leg proves nothing"
        )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_bounded_replay_holds_the_cap_and_counts_losses(self, policy):
        _, taps = _run("overload_surge")
        runtime = self._half_peak_replay(policy).runtime
        controller = runtime.admission
        stats = runtime.stats
        assert stats.reorder_peak <= controller.limits.max_pending
        assert stats.shed_observations > 0
        assert stats.backpressure_events > 0
        assert (
            runtime.released_items
            + runtime.buffer.late_count
            + stats.shed_observations
            == taps["MT0_0"].observation_count
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
        _, taps = _run("overload_surge")
        source = PacedSource(_jittered(taps["MT0_0"]), slowdown=2)
        paced = self._replay(AdmissionController(limits), source)
        unpaced_shed = unpaced.runtime.stats.shed_observations
        assert unpaced_shed > 0, "the rate limit never shed: comparing zeros"
        assert source.throttle_count > 0
        assert paced.runtime.stats.shed_observations <= unpaced_shed

    def test_sharded_bounded_replay_holds_the_cap(self):
        scenario, _ = _run("overload_surge")
        replayer = self._replay(
            AdmissionController(AdmissionLimits(max_pending=self.CAP)),
            shards=4,
            bounds=scenario.system.detection_bounds(),
        )
        assert replayer.runtime.stats.reorder_peak <= self.CAP
        assert replayer.runtime.stats.shed_observations > 0

    @pytest.mark.parametrize(
        "policy, shed, export, rows",
        [
            ("drop_oldest_late", 501, "ba053a83d61d9130", "0c6ff84693f4ccb2"),
            ("drop_lowest_priority", 158, "f752e042d5914a73", "b4d871789cfcea7a"),
            ("degrade_to_sampling", 241, "b2649a1b68e9d31d", "bd552f0f7245dada"),
        ],
    )
    def test_tracing_under_a_shedding_cap_changes_nothing(
        self, policy, shed, export, rows
    ):
        def bounded(telemetry):
            return self._replay(
                AdmissionController(
                    AdmissionLimits(max_pending=self.CAP), shedding=policy
                ),
                telemetry=telemetry,
            )

        bare, traced = bounded(None), bounded(Telemetry.create(trace_every=1))
        assert [i.key for i in traced.emitted] == [i.key for i in bare.emitted]
        controller = traced.runtime.admission
        assert controller.shed_by_priority == (
            bare.runtime.admission.shed_by_priority
        )
        assert controller.shed_total == shed
        # Recorded from the item-by-item offer path traced steps used to
        # take: the one-run path must stamp, shed and evict identically.
        json_export, ring = _export(traced.runtime)
        assert sha256(json_export.encode()).hexdigest()[:16] == export
        assert trace_rows_digest(ring)[:16] == rows


def test_flaky_uplink_recovers_identically_after_a_crash_at_any_step():
    """Crash position must not matter: sweep the crash across the whole
    stream of the resilience family's sink feed and require the exact
    instance rows back every time."""
    scenario, taps = _run("flaky_uplink")
    tap = _busiest(taps)
    original = _original_rows(scenario, tap.name)
    steps = FaultySource(_jittered(tap)).steps
    assert steps > 0
    stride = max(1, steps // 12)  # ~12 positions, ends included
    positions = sorted(set(range(0, steps, stride)) | {steps - 1})
    for step in positions:
        replayer = _replayer(scenario, tap.name, Leg(faults=True))
        supervisor = SupervisedRuntime(
            replayer,
            checkpoints=CheckpointPolicy(every_steps=CHECKPOINT_EVERY),
        )
        supervisor.run(
            FaultySource(
                _jittered(tap),
                FaultPlan(crashes=((step, step % 3),)),
                redelivery_overlap=1,
            )
        )
        assert replayer.trace_rows == original, (
            f"crash at step {step} did not recover to the original "
            f"instance stream"
        )
        assert supervisor.recoveries == 1
