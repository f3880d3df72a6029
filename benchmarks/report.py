"""Hot-path measurement harness behind the tracked ``BENCH_*.json`` files.

This module is the reusable half of the perf-trajectory tooling: it runs
registered scenarios end-to-end in both engine modes —

* **compiled** — the default ``EngineConfig()``: plan-driven pruning
  plus the compiled condition evaluators and the per-batch predicate
  memo cache (:mod:`repro.detect.compiler`);
* **interpreted** — ``EngineConfig(use_planner=False)``: exhaustive
  enumeration with recursive ``Condition.evaluate`` dispatch, the
  differential baseline the conformance goldens pin —

and aggregates wall time, bindings evaluated, bindings/second and
predicate-cache hit rates across every observer in the system.
``benchmarks/bench_hotpath.py`` is the CLI wrapper that writes the
checked-in ``BENCH_PR<n>.json`` reports; see the README "Performance"
section for how to run and refresh them.

The module depends only on the standard library plus ``repro`` itself
(it bootstraps ``src/`` onto ``sys.path`` when needed), so CI can run it
without installing the test stack.
"""

from __future__ import annotations

import gc
import json
import platform
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # allow `python benchmarks/...` without env
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(_SRC))

from repro.detect.engine import EngineStats  # noqa: E402
from repro.shard import EngineConfig  # noqa: E402
from repro.workloads import build_scenario, scenario_names  # noqa: E402

__all__ = [
    "ModeResult",
    "measure_mode",
    "hotpath_report",
    "shard_scaling_report",
    "streaming_report",
    "admission_report",
    "resilience_report",
    "telemetry_report",
    "routing_microbench",
    "write_report",
]

STREAMING_SCENARIOS = ("jittery_corridor", "high_density")
"""Families the streaming rows run: the reordering-fabric workload the
runtime was built for, plus the window-pressure stress family."""

STREAMING_LATENESS = 8
"""Lateness bound (and jitter max delay) of the streaming benchmark."""

ADMISSION_SCENARIO = "overload_surge"
"""Family the bounded-ingestion rows run: a plume surge that floods the
whole grid at once, built to push reorder occupancy far past any
reasonable bound so a cap below the measured unbounded peak is
guaranteed to trigger measurable shedding."""

ADMISSION_POLICIES = (
    "drop_oldest_late",
    "drop_lowest_priority",
    "degrade_to_sampling",
)
"""Shedding policies whose recall cost the bounded rows quantify."""

ADMISSION_RATE = 3.0
"""Per-source token refill (observations per arrival tick) of the
rate-limit pacing leg — well under the surge's per-tick fan-in."""

ADMISSION_BURST = 6.0
"""Token-bucket capacity of the pacing leg."""

ADMISSION_MAX_DEFERRED = 16
"""Deferral-queue bound of the pacing leg: past this depth over-rate
arrivals are shed, which is exactly what a cooperating paced source
should avoid."""

ADMISSION_SLOWDOWN = 2
"""Arrival-tick delay a paced source adds per backpressure signal."""

RESILIENCE_SCENARIO = "flaky_uplink"
"""Family the fault-recovery rows run: the lossy, jittery uplink whose
thinned, reordered rover sightings the resilience stack was built for."""

RESILIENCE_INTERVALS = (8, 32, 128)
"""Checkpoint intervals (delivery steps) of the supervision-overhead
sensitivity sweep: frequent, default and sparse."""

RESILIENCE_DEFAULT_INTERVAL = 32
"""The interval the overhead gate and the faulted leg run at."""

RESILIENCE_FAULT_SEED = 20260808
"""Seed of the faulted leg's :meth:`FaultPlan.seeded` schedule."""

SHARD_SCALING_SCENARIOS = ("high_density", "sharded_metro")
"""Families the shard-scaling rows run: the hash-grid stress workload
and the wide-area boundary-crossing workload sharding was built for."""

SHARD_COUNTS = (1, 2, 4, 8)
"""Shard counts of the scaling sweep (1 = ShardedDetectionEngine with a
single shard, isolating the routing/merge overhead)."""


@dataclass(frozen=True)
class ModeResult:
    """Aggregate measurements of one scenario run in one engine mode.

    ``wall_s`` is the whole simulation (physics, radio, scheduling and
    detection); ``detect_s`` isolates the detection path — time inside
    ``DetectionEngine.submit_batch`` summed over every observer — which
    is the part the compiled/interpreted comparison actually changes.
    """

    wall_s: float
    detect_s: float
    bindings_evaluated: int
    bindings_per_s: float
    matches: int
    instances_emitted: int
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float


def _observers(system) -> list:
    return [
        *system.motes.values(),
        *system.sinks.values(),
        *system.ccus.values(),
    ]


PLANNED = EngineConfig()
NAIVE = EngineConfig(use_planner=False)


def _run_once(name: str, preset: str, engine: EngineConfig, seed: int | None):
    # Collect before the timer starts: garbage from the previous run
    # must not be paid for inside this one's measurement window.
    gc.collect()
    scenario = build_scenario(name, preset=preset, seed=seed, engine=engine)
    start = time.perf_counter()
    scenario.system.run(until=scenario.params["horizon"])
    return time.perf_counter() - start, scenario


def measure_mode(
    name: str,
    preset: str,
    engine: EngineConfig,
    repeats: int = 3,
    seed: int | None = None,
) -> ModeResult:
    """Best-of-``repeats`` measurement of one scenario in one mode.

    Wall time takes the fastest repeat (the usual noise-robust choice
    for deterministic workloads); the counters are identical across
    repeats by construction (deterministic seeds), so they come from
    the fastest run too.  An ``engine`` with ``shards > 1`` runs every
    sink/CCU on the sharded backend (:mod:`repro.shard`).
    """
    best: tuple[float, ModeResult] | None = None
    for _ in range(max(1, repeats)):
        wall, scenario = _run_once(name, preset, engine, seed)
        # Reduce to the small result record immediately: holding whole
        # scenario objects across repeats inflates the live heap (and
        # therefore every later run's GC pauses) by millions of objects.
        result = _mode_result(wall, scenario)
        del scenario
        if best is None or wall < best[0]:
            best = (wall, result)
    return best[1]


def _mode_result(wall: float, scenario) -> ModeResult:
    observers = _observers(scenario.system)
    stats = EngineStats.merge(o.engine.stats for o in observers)
    detect = stats.evaluation_time_s
    return ModeResult(
        wall_s=round(wall, 6),
        detect_s=round(detect, 6),
        bindings_evaluated=stats.bindings_evaluated,
        bindings_per_s=round(stats.bindings_evaluated / detect, 1)
        if detect
        else 0.0,
        matches=stats.matches,
        instances_emitted=scenario.system.trace.count("instance.emit"),
        cache_hits=stats.cache_hits,
        cache_misses=stats.cache_misses,
        cache_hit_rate=round(stats.cache_hit_rate, 4),
    )


def hotpath_report(
    names: tuple[str, ...] | None = None,
    preset: str = "medium",
    repeats: int = 3,
) -> dict:
    """Compiled-vs-interpreted rows for the named scenarios.

    Every row carries two compiled/interpreted wall-time ratios —
    ``speedup_detect`` (the detection path both modes re-implement) and
    ``speedup_total`` (the whole simulation, physics and network
    included) — and asserts nothing: callers decide what to enforce
    (the CI smoke run requires the detection path not to regress; the
    tracked ``BENCH_*`` reports document the 2x+ acceptance bar).
    """
    if names is None:
        names = scenario_names()
    rows: dict[str, dict] = {}
    for name in names:
        compiled = measure_mode(name, preset, PLANNED, repeats=repeats)
        interpreted = measure_mode(name, preset, NAIVE, repeats=repeats)
        rows[name] = {
            "compiled": asdict(compiled),
            "interpreted": asdict(interpreted),
            # Compiled-vs-interpreted wall-clock ratios: the detection
            # path (what this comparison changes) and, for context, the
            # whole simulation including the physics/network share
            # neither mode touches.
            "speedup_detect": round(interpreted.detect_s / compiled.detect_s, 2)
            if compiled.detect_s
            else 0.0,
            "speedup_total": round(interpreted.wall_s / compiled.wall_s, 2)
            if compiled.wall_s
            else 0.0,
        }
    return {
        "preset": preset,
        "repeats": repeats,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scenarios": rows,
    }


def shard_scaling_report(
    names: tuple[str, ...] = SHARD_SCALING_SCENARIOS,
    preset: str = "medium",
    shard_counts: tuple[int, ...] = SHARD_COUNTS,
    repeats: int = 3,
) -> dict:
    """Shard-count sweep against both single-engine baselines.

    Per scenario: one row per shard count (every sink/CCU on the
    sharded backend, grid partition) plus two single-engine reference
    rows — ``single_planned`` (the compiled/planned engine of PR 1-3)
    and ``single_naive`` (the exhaustive interpreted baseline the
    conformance goldens pin).  ``speedup_detect_vs_naive`` /
    ``speedup_detect_vs_planned`` compare each sharded row's detection
    path against those references; ``instances_emitted`` is asserted
    identical across every row of a scenario, so a correctness
    regression cannot hide behind a fast number.

    Modes are measured in **interleaved rounds** (planned, naive, every
    shard count, then again), taking the best round per mode: on a
    machine with intermittent background load, sequential best-of-N per
    mode skews the ratios whenever contention drifts between one mode's
    block and another's, while round-robin exposes every mode to
    similar conditions.
    """
    rows: dict[str, dict] = {}
    for name in names:
        modes: list[tuple[str, EngineConfig]] = [
            ("single_planned", PLANNED),
            ("single_naive", NAIVE),
        ]
        modes += [
            (f"sharded_{count}", EngineConfig(shards=count))
            for count in shard_counts
        ]
        best: dict[str, tuple[float, ModeResult]] = {}
        for _ in range(max(1, repeats)):
            for label, engine in modes:
                wall, scenario = _run_once(name, preset, engine, seed=None)
                # Keep only the small result record (see measure_mode).
                result = _mode_result(wall, scenario)
                del scenario
                if label not in best or wall < best[label][0]:
                    best[label] = (wall, result)
        results = {label: entry[1] for label, entry in best.items()}
        planned = results["single_planned"]
        naive = results["single_naive"]
        assert planned.instances_emitted == naive.instances_emitted
        sharded: dict[str, dict] = {}
        for count in shard_counts:
            result = results[f"sharded_{count}"]
            assert result.instances_emitted == planned.instances_emitted, (
                f"{name}: sharded({count}) emitted "
                f"{result.instances_emitted} != {planned.instances_emitted}"
            )
            sharded[str(count)] = {
                "result": asdict(result),
                "speedup_detect_vs_naive": round(
                    naive.detect_s / result.detect_s, 2
                )
                if result.detect_s
                else 0.0,
                "speedup_detect_vs_planned": round(
                    planned.detect_s / result.detect_s, 2
                )
                if result.detect_s
                else 0.0,
                "speedup_total_vs_naive": round(naive.wall_s / result.wall_s, 2)
                if result.wall_s
                else 0.0,
            }
        rows[name] = {
            "single_planned": asdict(planned),
            "single_naive": asdict(naive),
            "sharded": sharded,
        }
    return {
        "preset": preset,
        "repeats": repeats,
        "partition": "grid",
        "shard_counts": list(shard_counts),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scenarios": rows,
    }


def streaming_report(
    names: tuple[str, ...] = STREAMING_SCENARIOS,
    preset: str = "medium",
    lateness: int = STREAMING_LATENESS,
    repeats: int = 3,
    shards: tuple[int, ...] = (1, 4),
) -> dict:
    """Out-of-order streaming replay rows (the E14 / BENCH_PR5 section).

    Per scenario: one live run with stream taps on every sink/CCU, then
    per shard count a best-of-``repeats`` measurement of two replays of
    the captured feeds —

    * ``inorder`` — the raw in-order stream through
      :class:`~repro.stream.runtime.StreamingDetectionRuntime` (reorder
      buffer + watermark overhead on an already-ordered stream);
    * ``jittered`` — the same stream disordered by seeded bounded
      jitter (delays up to ``lateness``), which the runtime must absorb
      and re-order —

    reporting sustained observations/second, the reorder buffer's
    occupancy high-water mark and the jitter overhead ratio.  Exactness
    is asserted, not reported: every replay's emitted instances must
    equal the live run's, and within-bound jitter must produce zero
    late observations — a wrong-but-fast streaming path fails the
    report instead of shipping a number.
    """
    from repro.stream import (
        JitteredSource,
        ReplayObserver,
        ReplaySource,
        profile_of,
    )

    rows: dict[str, dict] = {}
    for name in names:
        gc.collect()
        scenario = build_scenario(name, preset=preset)
        taps = scenario.system.attach_stream_taps()
        scenario.system.run(until=scenario.params["horizon"])
        observers = {
            obs_name: (
                scenario.system.sinks.get(obs_name)
                or scenario.system.ccus[obs_name]
            )
            for obs_name in taps
        }
        live_keys = {
            obs_name: [i.key for i in observer.emitted]
            for obs_name, observer in observers.items()
        }
        bounds = scenario.system.detection_bounds()
        observations = sum(tap.observation_count for tap in taps.values())

        def replay_once(jitter: bool, shard_count: int) -> dict:
            gc.collect()
            wall = 0.0
            stats_parts = []
            for obs_name, tap in taps.items():
                # Materialize both legs' StreamItems before the timer:
                # JitteredSource is eager by construction, and iterating
                # a raw tap builds a fresh ReplaySource per pass — left
                # inside the window it would inflate only the in-order
                # wall time and understate the jitter overhead ratio.
                source = (
                    JitteredSource(tap, max_delay=lateness, seed=0)
                    if jitter
                    else ReplaySource(tap.batches, name=tap.name)
                )
                replayer = ReplayObserver(
                    profile_of(observers[obs_name]),
                    lateness=lateness,
                    shards=shard_count,
                    bounds=bounds if shard_count > 1 else None,
                )
                start = time.perf_counter()
                replayer.replay(source)
                wall += time.perf_counter() - start
                stats = replayer.runtime.stats
                assert stats.late_observations == 0, (
                    f"{name}/{obs_name}: within-bound jitter produced "
                    f"{stats.late_observations} late observations"
                )
                assert [i.key for i in replayer.emitted] == live_keys[
                    obs_name
                ], f"{name}/{obs_name}: streamed replay diverged from live run"
                stats_parts.append(stats)
            offered = sum(s.entities_submitted for s in stats_parts)
            return {
                "wall_s": round(wall, 6),
                "observations": offered,
                "obs_per_s": round(offered / wall, 1) if wall else 0.0,
                # Occupancy is a level, not a flow: keep the worst
                # single buffer, not a meaningless sum.
                "reorder_peak": max(s.reorder_peak for s in stats_parts),
                "matches": sum(s.matches for s in stats_parts),
            }

        def best_of(jitter: bool, shard_count: int) -> dict:
            best: dict | None = None
            for _ in range(max(1, repeats)):
                result = replay_once(jitter, shard_count)
                if best is None or result["wall_s"] < best["wall_s"]:
                    best = result
            return best

        by_shards: dict[str, dict] = {}
        for shard_count in shards:
            inorder = best_of(jitter=False, shard_count=shard_count)
            jittered = best_of(jitter=True, shard_count=shard_count)
            by_shards[str(shard_count)] = {
                "inorder": inorder,
                "jittered": jittered,
                # How much absorbing real disorder costs relative to an
                # already-ordered stream through the same runtime.
                "jitter_overhead": round(
                    jittered["wall_s"] / inorder["wall_s"], 2
                )
                if inorder["wall_s"]
                else 0.0,
            }
        rows[name] = {
            "observations": observations,
            "taps": len(taps),
            "sharded": by_shards,
        }
        del scenario, taps, observers
    return {
        "preset": preset,
        "lateness": lateness,
        "repeats": repeats,
        "shard_counts": [str(s) for s in shards],
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scenarios": rows,
    }


def admission_report(
    name: str = ADMISSION_SCENARIO,
    preset: str = "medium",
    lateness: int = STREAMING_LATENESS,
    repeats: int = 3,
) -> dict:
    """Bounded-ingestion rows (the BENCH_PR7 section).

    One live run of the overload family with stream taps, then replays
    of the busiest tap's jittered feed through the admission front end:

    * ``unbounded`` — the golden run: no controller, exactness asserted
      against the live emission (this is the recall denominator);
    * ``zero_limit`` — a controller with *no* limits configured, which
      must be byte-identical to no controller at all (zero shed, zero
      deferrals, same emission) — asserted, not reported;
    * one row per shedding policy — occupancy capped at half the
      measured unbounded high-water mark, so shedding is guaranteed;
      each row reports what was shed, what arrived late, the bounded
      peak (asserted ``<= cap``) and **recall**: the multiset overlap
      of emitted instance keys with the golden run's;
    * ``pacing`` — the closed loop: the same rate limit replayed from a
      fire-and-forget source and from a :class:`PacedSource` that
      honors backpressure; a cooperating producer must shed no more
      than the uncooperative one.

    Conservation (``released + late + shed == offered``) is asserted on
    every replay — a bounded run that loses observations off the books
    fails the report instead of shipping a number.
    """
    from collections import Counter

    from repro.stream import (
        AdmissionController,
        AdmissionLimits,
        JitteredSource,
        PacedSource,
        ReplayObserver,
        profile_of,
    )

    gc.collect()
    scenario = build_scenario(name, preset=preset)
    taps = scenario.system.attach_stream_taps()
    scenario.system.run(until=scenario.params["horizon"])
    tap_name = max(taps, key=lambda key: taps[key].observation_count)
    tap = taps[tap_name]
    observer = (
        scenario.system.sinks.get(tap_name) or scenario.system.ccus[tap_name]
    )
    profile = profile_of(observer)
    golden_keys = [i.key for i in observer.emitted]
    golden_counter = Counter(golden_keys)
    offered = tap.observation_count

    def replay_once(
        admission, paced: bool = False, expect_exact: bool = False
    ) -> dict:
        gc.collect()
        source = JitteredSource(tap, max_delay=lateness, seed=0)
        if paced:
            source = PacedSource(source, slowdown=ADMISSION_SLOWDOWN)
        replayer = ReplayObserver(
            profile, lateness=lateness, admission=admission
        )
        start = time.perf_counter()
        replayer.replay(source)
        wall = time.perf_counter() - start
        runtime = replayer.runtime
        stats = runtime.stats
        assert (
            runtime.released_items
            + runtime.buffer.late_count
            + stats.shed_observations
            == offered
        ), (
            f"{name}/{tap_name}: conservation broken — "
            f"{runtime.released_items} released + "
            f"{runtime.buffer.late_count} late + "
            f"{stats.shed_observations} shed != {offered} offered"
        )
        if expect_exact:
            assert stats.shed_observations == 0, (
                f"{name}/{tap_name}: replay with no active limit shed "
                f"{stats.shed_observations} observations"
            )
            assert stats.deferred_observations == 0
            assert [i.key for i in replayer.emitted] == golden_keys, (
                f"{name}/{tap_name}: unshedded replay diverged from the "
                "live run"
            )
        emitted = Counter(i.key for i in replayer.emitted)
        overlap = sum((emitted & golden_counter).values())
        return {
            "wall_s": round(wall, 6),
            "obs_per_s": round(offered / wall, 1) if wall else 0.0,
            "reorder_peak": stats.reorder_peak,
            "shed": stats.shed_observations,
            "late": runtime.buffer.late_count,
            "deferred": stats.deferred_observations,
            "backpressure_events": stats.backpressure_events,
            "throttles": getattr(source, "throttle_count", 0),
            "emitted": len(replayer.emitted),
            "recall": round(overlap / len(golden_keys), 4)
            if golden_keys
            else 1.0,
        }

    def best_of(make_admission, paced: bool = False, **kwargs) -> dict:
        best: dict | None = None
        for _ in range(max(1, repeats)):
            result = replay_once(make_admission(), paced=paced, **kwargs)
            if best is None or result["wall_s"] < best["wall_s"]:
                best = result
        return best

    unbounded = best_of(lambda: None, expect_exact=True)
    zero_limit = best_of(AdmissionController, expect_exact=True)
    cap = max(8, unbounded["reorder_peak"] // 2)
    assert cap < unbounded["reorder_peak"], (
        f"{name}/{tap_name}: unbounded peak {unbounded['reorder_peak']} "
        f"leaves no room for a saturating cap — the overload family no "
        f"longer overloads"
    )

    policies: dict[str, dict] = {}
    for policy in ADMISSION_POLICIES:
        row = best_of(
            lambda: AdmissionController(
                AdmissionLimits(max_pending=cap), shedding=policy
            )
        )
        assert row["reorder_peak"] <= cap, (
            f"{name}/{tap_name}/{policy}: bounded replay peaked at "
            f"{row['reorder_peak']} over the {cap} cap"
        )
        assert row["shed"] > 0, (
            f"{name}/{tap_name}/{policy}: the cap never triggered — "
            "the row would measure nothing"
        )
        policies[policy] = row

    rate_limits = AdmissionLimits(
        rate=ADMISSION_RATE,
        burst=ADMISSION_BURST,
        max_deferred=ADMISSION_MAX_DEFERRED,
    )
    unpaced = best_of(lambda: AdmissionController(rate_limits))
    paced = best_of(lambda: AdmissionController(rate_limits), paced=True)
    assert unpaced["shed"] > 0, (
        f"{name}/{tap_name}: the pacing leg's rate limit never shed — "
        "paced-vs-unpaced would compare zeros"
    )
    assert paced["shed"] <= unpaced["shed"], (
        f"{name}/{tap_name}: honoring backpressure shed MORE "
        f"({paced['shed']} vs {unpaced['shed']})"
    )

    payload = {
        "scenario": name,
        "preset": preset,
        "lateness": lateness,
        "repeats": repeats,
        "tap": tap_name,
        "observations": offered,
        "golden_matches": len(golden_keys),
        "cap": cap,
        "unbounded": unbounded,
        "zero_limit": zero_limit,
        "policies": policies,
        "pacing": {
            "rate": ADMISSION_RATE,
            "burst": ADMISSION_BURST,
            "max_deferred": ADMISSION_MAX_DEFERRED,
            "slowdown": ADMISSION_SLOWDOWN,
            "unpaced": unpaced,
            "paced": paced,
            "shed_reduction": round(
                1.0 - paced["shed"] / unpaced["shed"], 4
            )
            if unpaced["shed"]
            else 0.0,
        },
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    del scenario, taps
    return payload


def resilience_report(
    name: str = RESILIENCE_SCENARIO,
    preset: str = "medium",
    lateness: int = STREAMING_LATENESS,
    repeats: int = 3,
    intervals: tuple[int, ...] = RESILIENCE_INTERVALS,
) -> dict:
    """Supervised-recovery rows (the BENCH_PR8 section).

    One live run of the resilience family with stream taps, then
    replays of **every** tapped observer's jittered feed, wall time
    summed across taps (the detection-heavy sink feed and the
    high-volume CCU feed weight the ratio by their real cost, exactly
    as a supervised deployment would pay it):

    * ``unsupervised`` — the plain streaming replay, no supervisor, no
      dedup, no quarantine: the cost floor everything else is measured
      against (exactness asserted against the live emission);
    * ``supervised_no_fault`` — one row per checkpoint interval: the
      full resilience stack (supervisor checkpoints, ack floor,
      redelivery dedup, quarantine) on a fault-free stream; ``overhead``
      is the wall-time ratio against the unsupervised floor — the price
      of *being able* to recover when nothing goes wrong, the number the
      CI gate bounds at the default interval;
    * ``faulted`` — a seeded plan (crashes, duplicate bursts, corrupt
      payloads, a stall) at the default interval: ``recovery_overhead``
      is its wall time over the matching no-fault row — the marginal
      price of *actually* recovering.

    Exactness is asserted on every leg (the recovered emission must
    equal the live run's, with zero late observations), conservation on
    every supervised one — a supervisor that loses or re-emits
    observations fails the report instead of shipping a number.
    """
    from repro.stream import (
        CheckpointPolicy,
        FaultPlan,
        FaultySource,
        JitteredSource,
        Quarantine,
        RedeliveryDeduper,
        ReplayObserver,
        SupervisedRuntime,
        profile_of,
    )

    gc.collect()
    scenario = build_scenario(name, preset=preset)
    taps = scenario.system.attach_stream_taps()
    scenario.system.run(until=scenario.params["horizon"])
    profiles = {
        tap_name: profile_of(
            scenario.system.sinks.get(tap_name)
            or scenario.system.ccus[tap_name]
        )
        for tap_name in taps
    }
    golden = {
        tap_name: [
            i.key
            for i in (
                scenario.system.sinks.get(tap_name)
                or scenario.system.ccus[tap_name]
            ).emitted
        ]
        for tap_name in taps
    }
    offered = sum(tap.observation_count for tap in taps.values())

    def jittered(tap):
        return JitteredSource(tap, max_delay=lateness, seed=0)

    def check_exact(replayer, tap_name: str, leg: str) -> None:
        stats = replayer.runtime.stats
        assert stats.late_observations == 0, (
            f"{name}/{tap_name}/{leg}: within-bound jitter produced "
            f"{stats.late_observations} late observations"
        )
        assert [i.key for i in replayer.emitted] == golden[tap_name], (
            f"{name}/{tap_name}/{leg}: replay diverged from the live run"
        )

    def unsupervised_once() -> dict:
        gc.collect()
        wall = 0.0
        for tap_name, tap in taps.items():
            source = jittered(tap)  # eager: built outside the window
            replayer = ReplayObserver(profiles[tap_name], lateness=lateness)
            start = time.perf_counter()
            replayer.replay(source)
            wall += time.perf_counter() - start
            check_exact(replayer, tap_name, "unsupervised")
        return {
            "wall_s": round(wall, 6),
            "obs_per_s": round(offered / wall, 1) if wall else 0.0,
        }

    def supervised_once(
        interval: int, plans: dict[str, FaultPlan], leg: str
    ) -> dict:
        gc.collect()
        wall = 0.0
        checkpoints = recoveries = duplicates = quarantined = 0
        for tap_name, tap in taps.items():
            plan = plans[tap_name]
            source = FaultySource(
                jittered(tap), plan, redelivery_overlap=1
            )
            replayer = ReplayObserver(
                profiles[tap_name],
                lateness=lateness,
                dedup=RedeliveryDeduper(),
                quarantine=Quarantine(),
            )
            supervisor = SupervisedRuntime(
                replayer, checkpoints=CheckpointPolicy(every_steps=interval)
            )
            start = time.perf_counter()
            supervisor.run(source)
            wall += time.perf_counter() - start
            check_exact(replayer, tap_name, leg)
            runtime = replayer.runtime
            stats = runtime.stats
            assert (
                runtime.released_items
                + stats.late_observations
                + stats.shed_observations
                == tap.observation_count
            ), f"{name}/{tap_name}/{leg}: conservation broken"
            assert supervisor.recoveries == len(plan.crashes), (
                f"{name}/{tap_name}/{leg}: {supervisor.recoveries} "
                f"recoveries for {len(plan.crashes)} planned crash(es)"
            )
            checkpoints += supervisor.checkpoints_taken
            recoveries += supervisor.recoveries
            duplicates += stats.duplicates_dropped
            quarantined += stats.quarantined_observations
        return {
            "wall_s": round(wall, 6),
            "obs_per_s": round(offered / wall, 1) if wall else 0.0,
            "checkpoints": checkpoints,
            "recoveries": recoveries,
            "duplicates_dropped": duplicates,
            "quarantined": quarantined,
        }

    steps = {
        tap_name: FaultySource(jittered(tap)).steps
        for tap_name, tap in taps.items()
    }
    no_fault_plans = {tap_name: FaultPlan() for tap_name in taps}
    fault_plans = {
        tap_name: FaultPlan.seeded(
            RESILIENCE_FAULT_SEED + index,
            steps[tap_name],
            crashes=1,
            duplicate_bursts=1,
            corruptions=1,
            stalls=1,
        )
        for index, tap_name in enumerate(sorted(taps))
        if steps[tap_name] > 0
    } | {
        tap_name: FaultPlan()
        for tap_name in taps
        if steps[tap_name] == 0
    }
    planned_crashes = sum(len(p.crashes) for p in fault_plans.values())

    # Measure every leg in interleaved rounds (see shard_scaling_report):
    # the overhead ratios are small, so sequential best-of-N blocks would
    # absorb any background-load drift between one leg's block and
    # another's straight into the ratio.
    legs: list[tuple[str, callable]] = [("unsupervised", unsupervised_once)]
    legs += [
        (
            f"no_fault@{interval}",
            lambda interval=interval: supervised_once(
                interval, no_fault_plans, f"no_fault@{interval}"
            ),
        )
        for interval in intervals
    ]
    legs.append(
        (
            "faulted",
            lambda: supervised_once(
                RESILIENCE_DEFAULT_INTERVAL, fault_plans, "faulted"
            ),
        )
    )
    best: dict[str, dict] = {}
    for _ in range(max(1, repeats)):
        for label, run_once in legs:
            result = run_once()
            if label not in best or result["wall_s"] < best[label]["wall_s"]:
                best[label] = result

    unsupervised = best["unsupervised"]
    no_fault: dict[str, dict] = {}
    for interval in intervals:
        row = best[f"no_fault@{interval}"]
        row["overhead"] = (
            round(row["wall_s"] / unsupervised["wall_s"], 2)
            if unsupervised["wall_s"]
            else 0.0
        )
        no_fault[str(interval)] = row

    faulted = best["faulted"]
    assert faulted["recoveries"] == planned_crashes >= 1
    assert faulted["duplicates_dropped"] >= 1, (
        f"{name}: the faulted leg's redelivery never produced a dropped "
        f"duplicate — the dedup gate measured nothing"
    )
    assert faulted["quarantined"] >= 1, (
        f"{name}: the faulted leg never quarantined a corrupt observation"
    )
    baseline = no_fault[str(RESILIENCE_DEFAULT_INTERVAL)]
    faulted["recovery_overhead"] = (
        round(faulted["wall_s"] / baseline["wall_s"], 2)
        if baseline["wall_s"]
        else 0.0
    )

    payload = {
        "scenario": name,
        "preset": preset,
        "lateness": lateness,
        "repeats": repeats,
        "taps": sorted(taps),
        "observations": offered,
        "delivery_steps": steps,
        "golden_matches": sum(len(keys) for keys in golden.values()),
        "fault_seed": RESILIENCE_FAULT_SEED,
        "fault_plan": {
            "crashes": planned_crashes,
            "duplicate_bursts": sum(
                len(p.duplicates) for p in fault_plans.values()
            ),
            "corruptions": sum(
                len(p.corruptions) for p in fault_plans.values()
            ),
            "stalls": sum(len(p.stalls) for p in fault_plans.values()),
        },
        "default_interval": RESILIENCE_DEFAULT_INTERVAL,
        "unsupervised": unsupervised,
        "supervised_no_fault": no_fault,
        "faulted": faulted,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    del scenario, taps
    return payload


TELEMETRY_SAMPLED_EVERY = 16
"""Sampling stride of the telemetry report's middle mode: one stage
trace per 16 admitted observations, the configuration a long-running
deployment would leave on."""

TELEMETRY_MAX_OVERHEAD = 1.10
"""Acceptance bar the CI bench-smoke leg holds: full telemetry (metrics
registry + trace_every=1 stage tracing) may cost at most 10% wall time
over the bare streaming replay."""


def telemetry_report(
    names: tuple[str, ...] = STREAMING_SCENARIOS,
    preset: str = "medium",
    lateness: int = STREAMING_LATENESS,
    repeats: int = 3,
) -> dict:
    """Telemetry-overhead rows (the E17 / BENCH_PR9 section).

    One live run per scenario with stream taps, then per scenario a
    best-of-``repeats`` measurement of three jittered replays of every
    tapped feed through the same runtime, varying only the telemetry
    configuration:

    * ``disabled`` — ``telemetry=None``, the bare streaming replay
      every earlier benchmark measured (one ``None`` check per
      instrumentation point);
    * ``sampled`` — registry attached, stage tracing at
      ``trace_every=16``: the always-on production configuration;
    * ``full`` — registry attached, ``trace_every=1``: every admitted
      observation carries a stage trace.

    ``overhead`` on the sampled/full rows is the wall-time ratio
    against the disabled row — the number the CI gate bounds at
    :data:`TELEMETRY_MAX_OVERHEAD`.  Exactness is asserted on every
    leg (telemetry reads, it must never perturb: the emission has to
    equal the live run's), and the full leg additionally asserts the
    registry's deterministic digest identical across repeats — a
    nondeterministic metric would silently break checkpoint and
    conformance guarantees long before anyone read it.
    """
    from repro.obs.export import registry_digest
    from repro.obs.tracing import Telemetry
    from repro.stream import JitteredSource, ReplayObserver, profile_of

    rows: dict[str, dict] = {}
    for name in names:
        gc.collect()
        scenario = build_scenario(name, preset=preset)
        taps = scenario.system.attach_stream_taps()
        scenario.system.run(until=scenario.params["horizon"])
        profiles = {
            tap_name: profile_of(
                scenario.system.sinks.get(tap_name)
                or scenario.system.ccus[tap_name]
            )
            for tap_name in taps
        }
        live_keys = {
            tap_name: [
                i.key
                for i in (
                    scenario.system.sinks.get(tap_name)
                    or scenario.system.ccus[tap_name]
                ).emitted
            ]
            for tap_name in taps
        }
        offered = sum(tap.observation_count for tap in taps.values())

        def replay_once(trace_every: int | None) -> dict:
            gc.collect()
            wall = 0.0
            sampled = completed = 0
            digests = []
            for tap_name, tap in taps.items():
                source = JitteredSource(tap, max_delay=lateness, seed=0)
                telemetry = (
                    None
                    if trace_every is None
                    else Telemetry.create(trace_every=trace_every)
                )
                replayer = ReplayObserver(
                    profiles[tap_name],
                    lateness=lateness,
                    telemetry=telemetry,
                )
                start = time.perf_counter()
                replayer.replay(source)
                wall += time.perf_counter() - start
                assert replayer.runtime.stats.late_observations == 0
                assert [i.key for i in replayer.emitted] == live_keys[
                    tap_name
                ], (
                    f"{name}/{tap_name}: telemetry perturbed the replay "
                    f"(trace_every={trace_every})"
                )
                if telemetry is not None:
                    tracer = telemetry.tracer
                    sampled += telemetry.registry.counter(
                        "obs_traces_sampled_total"
                    ).value
                    completed += len(tracer.completed_rows())
                    digests.append(registry_digest(telemetry.registry))
            return {
                "wall_s": round(wall, 6),
                "obs_per_s": round(offered / wall, 1) if wall else 0.0,
                "traces_sampled": sampled,
                "traces_completed": completed,
                "registry_digest": (
                    "|".join(digests) if digests else None
                ),
            }

        modes: list[tuple[str, int | None]] = [
            ("disabled", None),
            ("sampled", TELEMETRY_SAMPLED_EVERY),
            ("full", 1),
        ]
        # Interleaved rounds (see shard_scaling_report): the overhead
        # ratio is small, so sequential best-of-N blocks would absorb
        # background-load drift straight into the gated number.
        best: dict[str, dict] = {}
        for _ in range(max(1, repeats)):
            for label, trace_every in modes:
                result = replay_once(trace_every)
                if label in best and result["registry_digest"] != best[
                    label
                ]["registry_digest"]:
                    raise AssertionError(
                        f"{name}/{label}: registry digest drifted between "
                        f"identical runs"
                    )
                if (
                    label not in best
                    or result["wall_s"] < best[label]["wall_s"]
                ):
                    digest = best.get(label, result)["registry_digest"]
                    best[label] = {**result, "registry_digest": digest}
        disabled = best["disabled"]
        for label in ("sampled", "full"):
            best[label]["overhead"] = (
                round(best[label]["wall_s"] / disabled["wall_s"], 2)
                if disabled["wall_s"]
                else 0.0
            )
        assert best["full"]["traces_sampled"] > best["sampled"][
            "traces_sampled"
        ], f"{name}: full tracing sampled no more than the strided mode"
        rows[name] = {
            "observations": offered,
            "taps": len(taps),
            "disabled": disabled,
            "sampled": best["sampled"],
            "full": best["full"],
        }
        del scenario, taps
    return {
        "preset": preset,
        "lateness": lateness,
        "repeats": repeats,
        "sampled_every": TELEMETRY_SAMPLED_EVERY,
        "max_overhead": TELEMETRY_MAX_OVERHEAD,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scenarios": rows,
    }


def routing_microbench(iterations: int = 50_000) -> dict:
    """Micro-benchmark: routed vs unrouted ``candidate_roles``.

    Builds a sink-style specification (instance kinds + layer
    selectors) and times ``EventSpecification.candidate_roles`` — which
    routes through the precomputed signature table — against the
    ``_selector_scan`` fallback that checks every selector in full, on
    the same entity stream.  Both paths are asserted to return the same
    roles before timing.
    """
    from repro.core.event import EventLayer
    from repro.core.instance import SensorEventInstance
    from repro.core.operators import RelationalOp, TemporalOp
    from repro.core.conditions import TemporalCondition, TimeOf
    from repro.core.space_model import PointLocation
    from repro.core.spec import EntitySelector, EventSpecification
    from repro.core.time_model import TimePoint

    spec = EventSpecification(
        event_id="route_bench",
        selectors={
            "a": EntitySelector(
                kinds={"hot", "smoky"}, layers={EventLayer.SENSOR}
            ),
            "b": EntitySelector(kinds={"hot"}, layers={EventLayer.SENSOR}),
            "c": EntitySelector(kinds={"humid"}, layers={EventLayer.SENSOR}),
        },
        condition=TemporalCondition(TimeOf("a"), TemporalOp.BEFORE, TimeOf("b")),
        window=30,
    )
    entities = [
        SensorEventInstance(
            observer=f"mote-{i % 7}",
            event_id=("hot", "smoky", "humid", "cold")[i % 4],
            seq=i,
            generated_time=TimePoint(i),
            generated_location=PointLocation(float(i % 13), float(i % 11)),
            estimated_time=TimePoint(i),
            estimated_location=PointLocation(float(i % 13), float(i % 11)),
            confidence=0.9,
        )
        for i in range(64)
    ]
    for entity in entities:
        assert spec.candidate_roles(entity) == spec._selector_scan(entity)

    def loop(fn) -> float:
        start = time.perf_counter()
        for i in range(iterations):
            fn(entities[i % len(entities)])
        return time.perf_counter() - start

    loop(spec.candidate_roles)  # warm the route table before timing
    routed = loop(spec.candidate_roles)
    general = loop(spec._selector_scan)
    return {
        "iterations": iterations,
        "routed_ns_per_call": round(routed / iterations * 1e9, 1),
        "general_ns_per_call": round(general / iterations * 1e9, 1),
        "speedup": round(general / routed, 2) if routed else 0.0,
    }


def write_report(path: str | Path, payload: dict) -> Path:
    """Write a benchmark payload as stable, diff-friendly JSON."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


if __name__ == "__main__":
    # Running the harness directly is the same as the full CLI run;
    # bench_hotpath.py adds the flags (--quick gate, subsets, output).
    from bench_hotpath import main

    raise SystemExit(main())
