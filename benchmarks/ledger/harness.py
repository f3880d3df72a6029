"""Workloads, timed passes and the correctness gate of the performance ledger.

Each workload builds its input from a seed (:meth:`setup`), then runs
*passes* over it (:meth:`run_pass`): one pass is one complete trip from
source to last emitted instance on fresh engines.  All load comes from one
process and one thread; inputs are materialised before the timer starts;
``gc.collect()`` runs before each pass and the collector stays on.

Every pass is checked before its timing counts — emitted instance keys
against the live observer's, the conservation ledger, planned crashes
against recoveries, trace digests against the first pass — and reports how
many of its observations failed a check.  Sizes are pinned by measured
work, not by preset name; ``preset`` only exists so the smoke test can run
every code path in seconds.

Timings are in reference seconds (see :mod:`speed`).
"""

from __future__ import annotations

import gc
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns, process_time, sleep

_SRC = Path(__file__).resolve().parents[2] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.detect.engine import EngineStats  # noqa: E402
from repro.obs.tracing import Telemetry  # noqa: E402
from repro.sim.trace import percentile  # noqa: E402,F401  (run.py's)
from repro.stream import (  # noqa: E402
    AdmissionController,
    AdmissionLimits,
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
from repro.workloads import build_scenario  # noqa: E402

from speed import SpeedMeter  # noqa: E402

__all__ = ["WORKLOADS", "PassResult", "PassTimer", "OpenLoopResult"]

LATENESS = 8
"""Jitter bound and watermark lateness, in ticks.  Equal on purpose: the
disorder is within the bound, so a late observation is a failure."""

OPEN_LOOP_OBS_PER_S = 8000
"""Offered rate of the open-loop pass (about 45 % of what the seed commit
sustains closed-loop on ``stream_dense``)."""

OPEN_LOOP_MAX_BACKLOG_S = 1.0
"""An open-loop pass whose last step finishes later than this after it was
due could not keep up: the rate is saturated and the pass fails."""

OVERLOAD_REPLAYS = 10
"""Back-to-back replays (fresh runtimes) in one ``stream_overload`` pass;
one replay is too short to time."""

CHECKPOINT_EVERY_STEPS = 8

TELEMETRY_TRACE_EVERY = 16


@dataclass
class PassResult:
    """What one pass measured and what its correctness gate found."""

    wall_s: float
    """Source to last emitted instance, in reference seconds."""
    raw_wall_s: float
    """The same on the wall clock, calibration bursts included."""
    cpu_s: float
    observations: int
    step_us: list[float]
    failed: int = 0
    """Observations that failed a check (0 on a correct pass)."""
    problems: list[str] = field(default_factory=list)
    overlap: int = 0
    """Multiset overlap of emitted instance keys with the reference."""
    reference: int = 0
    counts: dict[str, float] = field(default_factory=dict)
    """Counters read at the layer boundaries after the pass."""

    @property
    def recall(self) -> float:
        return self.overlap / self.reference if self.reference else 1.0


class PassTimer:
    """Times one pass, step by step, on the reference-speed clock."""

    def __init__(self, meter: SpeedMeter, recorder=None):
        self.meter = meter
        self.recorder = recorder
        self._steps: list[tuple[int, int]] = []

    def __enter__(self) -> "PassTimer":
        gc.collect()
        self._first = self.meter.begin()
        self._cpu = process_time()
        return self

    def __exit__(self, *exc) -> None:
        self._cpu = process_time() - self._cpu
        self._region = self.meter.end(self._first)

    def step(self, call, argument):
        """Run ``call(argument)`` as one timed step."""
        if self.recorder is not None:
            self.recorder.step += 1
        meter = self.meter
        segment = meter.segment
        started = perf_counter_ns()
        out = call(argument)
        self._steps.append((segment, perf_counter_ns() - started))
        meter.tick()
        return out

    def result(self, observations: int) -> PassResult:
        region = self._region
        speed = region.reference_ns / region.work_ns
        # process_time covered the inner bursts too; a burst is pure CPU.
        cpu_ns = self._cpu * 1e9 - region.inner_burst_ns
        return PassResult(
            wall_s=region.reference_ns / 1e9,
            raw_wall_s=region.raw_ns / 1e9,
            cpu_s=cpu_ns * speed / 1e9,
            observations=observations,
            step_us=[
                region.step_ns(segment, took) / 1e3
                for segment, took in self._steps
            ],
        )


@dataclass
class OpenLoopResult:
    """One pass offered on a fixed schedule instead of back to back.

    Wall-clock nanoseconds throughout: the schedule is real time.
    """

    lag_ns: list[int]
    """Per step: finish time minus the time the step was due."""
    generator_late_ns: list[int]
    """Per step that found the runtime idle: start time minus due time."""
    failed: int
    problems: list[str]


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------


@dataclass
class Feed:
    """One captured observer feed, jittered and cut into delivery steps."""

    name: str
    profile: object
    source: JitteredSource
    steps: list[list]
    observations: int
    reference: list
    """Instance keys the live observer emitted for this feed."""


@dataclass
class StreamInputs:
    feeds: list[Feed]
    bounds: object
    timings: dict[str, float]
    pinned: bool
    """Default seed at the pinned size: the work counts are checked."""
    cap: int | None = None
    plans: list[FaultPlan] = field(default_factory=list)

    @property
    def observations(self) -> int:
        return sum(feed.observations for feed in self.feeds)


def capture(
    workload,
    seed: int,
    preset: str | None,
    meter: SpeedMeter,
    only: str | None = None,
) -> StreamInputs:
    """Run the workload's scenario live with stream taps on its sinks and
    CCUs; return the feeds jittered within the lateness bound."""
    started = perf_counter()
    built = build_scenario(
        workload.scenario, preset=preset or workload.preset, seed=seed
    )
    build_s = perf_counter() - started
    system = built.system
    started = perf_counter()
    taps = system.attach_stream_taps()
    for tick in range(1, built.params["horizon"] + 1):
        system.run(until=tick)
        meter.tick()
    capture_s = perf_counter() - started
    feeds = []
    for name, tap in taps.items():
        if only is not None and name != only:
            continue
        observer = system.sinks.get(name) or system.ccus[name]
        source = JitteredSource(tap, max_delay=LATENESS, seed=seed)
        feeds.append(
            Feed(
                name=name,
                profile=profile_of(observer),
                source=source,
                steps=[group for _, group in arrival_groups(source)],
                observations=tap.observation_count,
                reference=[instance.key for instance in observer.emitted],
            )
        )
    return StreamInputs(
        feeds=feeds,
        bounds=system.detection_bounds(),
        timings={"build_s": build_s, "capture_s": capture_s},
        pinned=preset in (None, workload.preset) and seed == 0,
    )


def trace_emit(replayer: ReplayObserver, recorder) -> None:
    """Span the runtime's ``on_match`` callback: instance build, refinement
    and trace row of the replay observer."""
    if recorder is not None:
        runtime = replayer.runtime
        runtime.on_match = recorder.wrap(runtime.on_match, "stream.emit")


def drive(timer: PassTimer, replayer: ReplayObserver, feed: Feed) -> None:
    """Closed loop: ingest one feed step by step, then flush."""
    trace_emit(replayer, timer.recorder)
    runtime = replayer.runtime
    runtime.register_source(feed.name)
    ingest = runtime.ingest
    for group in feed.steps:
        timer.step(ingest, group)
    runtime.finish()


def engine_counts(stats: EngineStats) -> dict[str, float]:
    return {
        "entities": stats.entities_submitted,
        "bindings": stats.bindings_evaluated,
        "matches": stats.matches,
        "pruned": stats.candidates_pruned,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
    }


def add_counts(into: dict[str, float], more: dict[str, float]) -> None:
    """Sum counters; the reorder peak is a level, so it keeps the max."""
    for key, value in more.items():
        if key == "reorder_peak":
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value


def runtime_counts(replayer: ReplayObserver) -> dict[str, float]:
    """Engine, router and stream-level counters of one finished replay."""
    runtime = replayer.runtime
    engine = runtime.engine
    stats = runtime.stats
    counts = engine_counts(engine.stats)
    counts.update(
        quarantined=stats.quarantined_observations,
        duplicates_dropped=stats.duplicates_dropped,
        shed=stats.shed_observations,
        deferred=stats.deferred_observations,
        backpressure_steps=stats.backpressure_events,
        reorder_peak=runtime.buffer.metrics_view()["peak_occupancy"],
    )
    router = getattr(engine, "router", None)
    if router is not None:
        per_shard = [s.entities_submitted for s in engine.shard_stats()]
        mean = sum(per_shard) / len(per_shard)
        counts.update(
            routed=router.stats.routed,
            halo_copies=router.stats.halo_copies,
            broadcasts=router.stats.broadcasts,
            skew_sum=max(per_shard) / mean if mean else 0.0,
            skew_engines=1,
        )
    return counts


def gate_replay(
    feed: Feed, replayer: ReplayObserver, result: PassResult, lossless: bool
) -> None:
    """Check one finished replay against its feed's reference."""
    runtime = replayer.runtime
    stats = runtime.stats
    emitted = [instance.key for instance in replayer.emitted]
    overlap = sum((Counter(emitted) & Counter(feed.reference)).values())
    result.overlap += overlap
    result.reference += len(feed.reference)
    residual = abs(
        runtime.released_items
        + runtime.buffer.late_count
        + stats.shed_observations
        - feed.observations
    )
    if residual:
        result.failed += residual
        result.problems.append(
            f"{feed.name}: conservation residual {residual} "
            f"(released + late + shed != {feed.observations} offered)"
        )
    if stats.late_observations:
        result.failed += stats.late_observations
        result.problems.append(
            f"{feed.name}: {stats.late_observations} late observations "
            f"under within-bound jitter"
        )
    if lossless and emitted != feed.reference:
        mismatched = len(feed.reference) + len(emitted) - 2 * overlap
        # The same multiset in another order is still a divergence.
        result.failed += max(1, mismatched)
        result.problems.append(
            f"{feed.name}: emitted keys diverge from the live observer "
            f"({mismatched} of {len(feed.reference)} mismatched)"
        )
    add_counts(result.counts, runtime_counts(replayer))


def check_pins(
    result: PassResult, pins: dict[str, int], seen: dict[str, float]
) -> None:
    for key, expected in pins.items():
        if seen[key] != expected:
            result.failed += 1
            result.problems.append(
                f"pinned {key} is {expected} on the default seed, "
                f"got {seen[key]}"
            )


def check_pinned_observations(
    inputs: StreamInputs, result: PassResult, expected: int
) -> None:
    if inputs.pinned:
        check_pins(
            result,
            {"observations": expected},
            {"observations": inputs.observations},
        )


# ----------------------------------------------------------------------
# live_dense
# ----------------------------------------------------------------------


@dataclass
class LiveInputs:
    seed: int
    preset: str
    timings: dict[str, float]
    digest: str | None = None
    """``instance.emit`` trace digest of the first pass; every later pass
    must reproduce it."""


class LiveWorkload:
    """Whole simulated deployment, stepped one tick at a time."""

    setup_repeats = 15
    scenario = "high_density"
    preset = "medium"
    open_loop = False
    pins = {"instances": 46_529, "sim_events": 148_543, "entities": 58_115}

    def __init__(self, name: str, why: str):
        self.name = name
        self.why = why

    def setup(
        self, seed: int, preset: str | None, meter: SpeedMeter
    ) -> LiveInputs:
        preset = preset or self.preset
        # Built only to be timed: a system runs once, so each pass builds
        # its own, and this workload has no other input to prepare.
        started = perf_counter()
        build_scenario(self.scenario, preset=preset, seed=seed)
        build_s = perf_counter() - started
        return LiveInputs(
            seed=seed,
            preset=preset,
            timings={"build_s": build_s, "capture_s": 0.0},
        )

    def run_pass(
        self, inputs: LiveInputs, meter: SpeedMeter, recorder=None
    ) -> PassResult:
        # A system runs once, so every pass builds its own.
        built = build_scenario(
            self.scenario, preset=inputs.preset, seed=inputs.seed
        )
        system = built.system
        with PassTimer(meter, recorder) as timer:
            for tick in range(1, built.params["horizon"] + 1):
                timer.step(system.run, tick)

        observers = [
            *system.motes.values(),
            *system.sinks.values(),
            *system.ccus.values(),
        ]
        stats = EngineStats.merge(o.engine.stats for o in observers)
        result = timer.result(stats.entities_submitted)
        result.overlap = result.reference = 1
        result.counts = engine_counts(stats)
        result.counts["sim_events"] = system.sim.events_processed
        result.counts["instances"] = sum(system.instances_by_layer().values())
        digest = system.trace.digest(categories=["instance.emit"])
        if inputs.digest is None:
            inputs.digest = digest
        elif digest != inputs.digest:
            result.failed += result.observations
            result.overlap = 0
            result.problems.append(
                "trace digest differs from the first pass of the same seed"
            )
        if inputs.seed == 0 and inputs.preset == self.preset:
            check_pins(result, self.pins, result.counts)
        return result


# ----------------------------------------------------------------------
# stream_dense / stream_enum / stream_enum_shard4
# ----------------------------------------------------------------------


class StreamWorkload:
    """Captured feeds replayed through ``ReplayObserver``, step by step."""

    setup_repeats = 1

    def __init__(
        self,
        name: str,
        why: str,
        scenario: str,
        preset: str,
        pinned_observations: int,
        shards: int = 1,
        open_loop: bool = False,
    ):
        self.name = name
        self.why = why
        self.scenario = scenario
        self.preset = preset
        self.pinned_observations = pinned_observations
        self.shards = shards
        self.open_loop = open_loop
        """Whether the traced run adds the open-loop and telemetry passes."""

    def setup(
        self, seed: int, preset: str | None, meter: SpeedMeter
    ) -> StreamInputs:
        return capture(self, seed, preset, meter)

    def replayers(self, inputs: StreamInputs, telemetry: bool = False):
        return [
            ReplayObserver(
                feed.profile,
                lateness=LATENESS,
                shards=self.shards,
                bounds=inputs.bounds if self.shards > 1 else None,
                telemetry=(
                    Telemetry.create(trace_every=TELEMETRY_TRACE_EVERY)
                    if telemetry
                    else None
                ),
            )
            for feed in inputs.feeds
        ]

    def gate(self, inputs: StreamInputs, replayers, result: PassResult) -> None:
        for feed, replayer in zip(inputs.feeds, replayers):
            gate_replay(feed, replayer, result, lossless=True)
        check_pinned_observations(inputs, result, self.pinned_observations)

    def run_pass(
        self,
        inputs: StreamInputs,
        meter: SpeedMeter,
        recorder=None,
        telemetry: bool = False,
    ) -> PassResult:
        replayers = self.replayers(inputs, telemetry)
        with PassTimer(meter, recorder) as timer:
            for feed, replayer in zip(inputs.feeds, replayers):
                drive(timer, replayer, feed)
        result = timer.result(inputs.observations)
        self.gate(inputs, replayers, result)
        return result

    def run_open_loop(self, inputs: StreamInputs) -> OpenLoopResult:
        """Offer the steps on the sensors' schedule, not the engine's.

        Step *i* is due once the observations before it have been offered
        at :data:`OPEN_LOOP_OBS_PER_S`; lag is counted from that due time,
        so a stall is charged to every step that queued behind it.
        """
        replayers = self.replayers(inputs)
        lag_ns: list[int] = []
        late_ns: list[int] = []
        clock = perf_counter_ns
        ns_per_obs = 1e9 / OPEN_LOOP_OBS_PER_S
        offered = 0
        gc.collect()
        origin = clock()
        for feed, replayer in zip(inputs.feeds, replayers):
            runtime = replayer.runtime
            runtime.register_source(feed.name)
            ingest = runtime.ingest
            for group in feed.steps:
                due = origin + int(offered * ns_per_obs)
                offered += len(group)
                idle = clock() < due
                if idle:
                    remaining = due - clock()
                    if remaining > 300_000:
                        sleep((remaining - 200_000) / 1e9)
                    while clock() < due:
                        pass
                started = clock()
                ingest(group)
                lag_ns.append(clock() - due)
                if idle:
                    late_ns.append(started - due)
            runtime.finish()
        result = PassResult(0.0, 0.0, 0.0, inputs.observations, [])
        self.gate(inputs, replayers, result)
        if lag_ns and lag_ns[-1] > OPEN_LOOP_MAX_BACKLOG_S * 1e9:
            result.failed += result.observations
            result.problems.append(
                f"open loop saturated at {OPEN_LOOP_OBS_PER_S} obs/s: "
                f"backlog {lag_ns[-1] / 1e9:.2f} s at the last step"
            )
        return OpenLoopResult(lag_ns, late_ns, result.failed, result.problems)


# ----------------------------------------------------------------------
# stream_overload
# ----------------------------------------------------------------------


class OverloadWorkload:
    """Front-end-bound: the busiest mote feed under an occupancy cap."""

    setup_repeats = 1
    scenario = "overload_surge"
    preset = "large"
    open_loop = False
    feed_name = "MT0_0"
    pinned_observations = 15_930

    def __init__(self, name: str, why: str):
        self.name = name
        self.why = why

    def setup(
        self, seed: int, preset: str | None, meter: SpeedMeter
    ) -> StreamInputs:
        inputs = capture(self, seed, preset, meter, only=self.feed_name)
        # The cap is half of what the unbounded replay needs, so the
        # shedding policy is guaranteed work on the pinned size.
        (feed,) = inputs.feeds
        unbounded = ReplayObserver(feed.profile, lateness=LATENESS)
        unbounded.replay(feed.source)
        inputs.cap = max(8, unbounded.runtime.stats.reorder_peak // 2)
        return inputs

    def run_pass(
        self, inputs: StreamInputs, meter: SpeedMeter, recorder=None
    ) -> PassResult:
        (feed,) = inputs.feeds
        replayers = [
            ReplayObserver(
                feed.profile,
                lateness=LATENESS,
                admission=AdmissionController(
                    AdmissionLimits(max_pending=inputs.cap),
                    shedding="drop_lowest_priority",
                ),
                quarantine=Quarantine(),
                dedup=RedeliveryDeduper(),
            )
            for _ in range(OVERLOAD_REPLAYS)
        ]
        with PassTimer(meter, recorder) as timer:
            for replayer in replayers:
                drive(timer, replayer, feed)
        result = timer.result(feed.observations * OVERLOAD_REPLAYS)
        for replayer in replayers:
            gate_replay(feed, replayer, result, lossless=False)
            peak = replayer.runtime.stats.reorder_peak
            if peak > inputs.cap:
                result.failed += peak - inputs.cap
                result.problems.append(
                    f"reorder buffer peaked at {peak} over the cap {inputs.cap}"
                )
        check_pinned_observations(inputs, result, self.pinned_observations)
        if inputs.pinned and not result.counts["shed"]:
            result.failed += 1
            result.problems.append("the cap never shed: nothing measured")
        return result


# ----------------------------------------------------------------------
# stream_faulted
# ----------------------------------------------------------------------


class FaultedWorkload:
    """Supervised replay under a seeded fault plan: checkpoints, rollbacks."""

    setup_repeats = 1
    scenario = "flaky_uplink"
    preset = "large"
    open_loop = False
    pinned_observations = 27_692

    def __init__(self, name: str, why: str):
        self.name = name
        self.why = why

    def setup(
        self, seed: int, preset: str | None, meter: SpeedMeter
    ) -> StreamInputs:
        inputs = capture(self, seed, preset, meter)
        inputs.plans = [
            FaultPlan.seeded(
                seed + index,
                len(feed.steps),
                crashes=3,
                duplicate_bursts=3,
                corruptions=3,
                stalls=1,
            )
            if feed.steps
            else FaultPlan()
            for index, feed in enumerate(inputs.feeds)
        ]
        return inputs

    def run_pass(
        self, inputs: StreamInputs, meter: SpeedMeter, recorder=None
    ) -> PassResult:
        timer = PassTimer(meter, recorder)
        supervisors = []
        sources = []
        for feed, plan in zip(inputs.feeds, inputs.plans):
            replayer = ReplayObserver(
                feed.profile,
                lateness=LATENESS,
                quarantine=Quarantine(),
                dedup=RedeliveryDeduper(),
            )
            trace_emit(replayer, recorder)

            # The supervisor owns the step loop, so the step timer sits
            # on the host's ingest, which it looks up on every call.
            def timed_ingest(group, ingest=replayer.ingest):
                return timer.step(ingest, group)

            replayer.ingest = timed_ingest
            supervisors.append(
                SupervisedRuntime(
                    replayer,
                    checkpoints=CheckpointPolicy(
                        every_steps=CHECKPOINT_EVERY_STEPS
                    ),
                )
            )
            # A fault plan is consumed as it fires: fresh source per pass.
            sources.append(
                FaultySource(feed.source, plan, redelivery_overlap=1)
            )
        with timer:
            for supervisor, source in zip(supervisors, sources):
                supervisor.run(source)
        result = timer.result(inputs.observations)
        for feed, plan, supervisor in zip(
            inputs.feeds, inputs.plans, supervisors
        ):
            gate_replay(feed, supervisor.host, result, lossless=True)
            if supervisor.recoveries != len(plan.crashes):
                result.failed += 1
                result.problems.append(
                    f"{feed.name}: {supervisor.recoveries} recoveries for "
                    f"{len(plan.crashes)} planned crashes"
                )
            add_counts(
                result.counts,
                {
                    "checkpoints": supervisor.checkpoints_taken,
                    "recoveries": supervisor.recoveries,
                },
            )
        check_pinned_observations(inputs, result, self.pinned_observations)
        return result


# ----------------------------------------------------------------------
# the six workloads
# ----------------------------------------------------------------------

WORKLOADS = {
    workload.name: workload
    for workload in (
        LiveWorkload(
            "live_dense",
            "Whole simulated deployment: sim, physical, network and cps do "
            "most of the work, detect about a quarter; a kernel or mote "
            "change shows here.",
        ),
        StreamWorkload(
            "stream_dense",
            "Engine-bound replay with 0.84 matches per binding: window and "
            "index upkeep, predicates and instance emission dominate.",
            scenario="high_density",
            preset="medium",
            pinned_observations=46_235,
            open_loop=True,
        ),
        StreamWorkload(
            "stream_enum",
            "Enumeration-bound replay: tens of bindings per observation, "
            "match ratio 0.02, emission negligible; the opposite mix to "
            "stream_dense.",
            scenario="sharded_metro",
            preset="medium",
            pinned_observations=10_331,
        ),
        StreamWorkload(
            "stream_enum_shard4",
            "Same input as stream_enum behind router, halo mirrors and "
            "merger on 4 grid shards: prices sharding on identical input.",
            scenario="sharded_metro",
            preset="medium",
            pinned_observations=10_331,
            shards=4,
        ),
        OverloadWorkload(
            "stream_overload",
            "Front-end-bound: almost no matches, so quarantine, dedup, "
            "admission, reorder and watermark are the work; an engine "
            "change should not move it.",
        ),
        FaultedWorkload(
            "stream_faulted",
            "Supervised replay with crashes, duplicates and corruption: "
            "about 250 checkpoints and 6 rollbacks per pass, so snapshot "
            "and restore cost shows here only.",
        ),
    )
}
