"""Out-of-order streaming replay: watermarks, lateness and checkpoints.

Runs the ``jittery_corridor`` scenario (whose radio genuinely delivers
sensor events out of event-time order), captures the sink's engine feed
with a stream tap, then:

1. replays the feed with seeded bounded jitter through the streaming
   runtime and shows the emitted instances are byte-identical to the
   live run (the reorder buffer + watermark restore event-time order);
2. replays with jitter *beyond* the lateness bound and shows late
   observations are counted and reported, never silently dropped;
3. checkpoints the replay mid-stream, restores into a fresh runtime and
   engine, and shows the remaining instance stream is identical;
4. replays the ``overload_surge`` flood through a *bounded* runtime —
   an admission controller caps reorder occupancy and sheds under
   pressure with every loss on the books
   (``released + late + shed == offered``), while a cooperating
   :class:`PacedSource` honors backpressure and sheds nothing;
5. crashes the replay mid-stream — a :class:`FaultySource` injects
   crashes, duplicate bursts and a corrupt payload into the
   ``flaky_uplink`` feed, and a :class:`SupervisedRuntime` recovers
   from its last checkpoint through at-least-once redelivery, with the
   dedup gate and the quarantine turning that into an exactly-once,
   byte-identical emission;
6. replays with ``trace_every=1`` stage tracing and shows the emission
   is still byte-identical (telemetry reads the pipeline, never
   perturbs it), then exports: ``collect`` reads the stream counters
   from their owners, the telemetry reports per-stage residency
   percentiles, and the samples render as Prometheus text.

Run:  PYTHONPATH=src python examples/streaming_replay.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.obs import Stage, Telemetry, collect, to_prometheus
from repro.obs.tracing import STAGES
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
from repro.workloads import build_scenario

LATENESS = 8
SINK = "MT0_0"


def main() -> None:
    # -- live run with a stream tap on the sink ------------------------
    scenario = build_scenario("jittery_corridor", preset="small")
    taps = scenario.system.attach_stream_taps()
    scenario.system.run(until=scenario.params["horizon"])
    sink = scenario.system.sinks[SINK]
    tap = taps[SINK]
    print(
        f"live run: {tap.observation_count} observations reached the sink, "
        f"{len(sink.emitted)} instances emitted"
    )

    # -- 1) bounded jitter replays exactly -----------------------------
    profile = profile_of(sink)
    source = JitteredSource(tap, max_delay=LATENESS, seed=7)
    print(
        f"jittered source (delay <= {LATENESS} ticks) is "
        f"{'out of' if source.is_shuffled() else 'in'} event-time order"
    )
    replayer = ReplayObserver(profile, lateness=LATENESS)
    replayer.replay(source)
    stats = replayer.runtime.stats
    identical = [i.key for i in replayer.emitted] == [
        i.key for i in sink.emitted
    ] and all(a == b for a, b in zip(replayer.emitted, sink.emitted))
    print(
        f"streamed replay: {len(replayer.emitted)} instances, "
        f"late={stats.late_observations}, reorder_peak={stats.reorder_peak}, "
        f"identical to live run: {identical}"
    )

    # -- 2) beyond-bound jitter: lates counted, never dropped ----------
    wild = JitteredSource(tap, max_delay=4 * LATENESS, seed=7)
    lossy = ReplayObserver(profile, lateness=LATENESS)
    lossy.replay(wild)
    print(
        f"beyond-bound jitter (delay <= {4 * LATENESS}): "
        f"{lossy.runtime.stats.late_observations} late observations "
        f"counted and retained "
        f"({lossy.runtime.released_items} released + "
        f"{len(lossy.runtime.late_items)} late = {tap.observation_count})"
    )

    # -- 3) checkpoint mid-stream, restore, resume ---------------------
    groups = list(arrival_groups(JitteredSource(tap, max_delay=LATENESS, seed=7)))
    half = len(groups) // 2
    first = ReplayObserver(profile, lateness=LATENESS)
    first.runtime.register_source(tap.name)
    for _, group in groups[:half]:
        first.ingest(group)
    checkpoint = first.snapshot()
    print(
        f"checkpoint after {half}/{len(groups)} delivery steps: "
        f"{checkpoint.emitted_count} instances emitted, "
        f"{len(checkpoint.runtime.stages['reorder'].pending)} observations "
        f"still in the reorder buffer (checkpointed parts: "
        f"{', '.join(checkpoint.runtime.stages)})"
    )
    resumed = ReplayObserver(profile, lateness=LATENESS)
    resumed.restore(checkpoint)
    for _, group in groups[half:]:
        resumed.ingest(group)
    resumed.finish()
    # Reference: the uninterrupted replay's tail.
    for _, group in groups[half:]:
        first.ingest(group)
    first.finish()
    tail = first.trace_rows[checkpoint.emitted_count:]
    print(
        f"resumed replay re-emitted {len(resumed.trace_rows)} instances; "
        f"identical remaining stream: {resumed.trace_rows == tail}"
    )

    # -- 4) bounded ingestion under a genuine overload -----------------
    surge = build_scenario("overload_surge", preset="small")
    surge_taps = surge.system.attach_stream_taps()
    surge.system.run(until=surge.params["horizon"])
    surge_sink = surge.system.sinks[SINK]
    surge_tap = surge_taps[SINK]
    surge_profile = profile_of(surge_sink)

    unbounded = ReplayObserver(surge_profile, lateness=LATENESS)
    unbounded.replay(JitteredSource(surge_tap, max_delay=LATENESS, seed=7))
    peak = unbounded.runtime.stats.reorder_peak
    cap = max(8, peak // 2)
    print(
        f"overload_surge: {surge_tap.observation_count} observations, "
        f"unbounded reorder peak {peak} — capping at {cap}"
    )

    bounded = ReplayObserver(
        surge_profile,
        lateness=LATENESS,
        admission=AdmissionController(AdmissionLimits(max_pending=cap)),
    )
    bounded.replay(JitteredSource(surge_tap, max_delay=LATENESS, seed=7))
    b_runtime = bounded.runtime
    b_stats = b_runtime.stats
    print(
        f"bounded replay: peak={b_stats.reorder_peak} (cap held: "
        f"{b_stats.reorder_peak <= cap}), "
        f"shed={b_stats.shed_observations}, "
        f"backpressure_events={b_stats.backpressure_events}, "
        f"{len(bounded.emitted)}/{len(unbounded.emitted)} instances kept"
    )
    print(
        f"conservation: {b_runtime.released_items} released + "
        f"{b_runtime.buffer.late_count} late + "
        f"{b_stats.shed_observations} shed "
        f"= {surge_tap.observation_count} offered"
    )

    # A cooperating producer honors the backpressure signal instead of
    # forcing the admission layer to shed: same rate limit, no losses.
    limits = AdmissionLimits(rate=3.0, burst=6.0, max_deferred=16)
    firehose = ReplayObserver(
        surge_profile, lateness=LATENESS, admission=AdmissionController(limits)
    )
    firehose.replay(JitteredSource(surge_tap, max_delay=LATENESS, seed=7))
    paced_source = PacedSource(
        JitteredSource(surge_tap, max_delay=LATENESS, seed=7), slowdown=2
    )
    paced = ReplayObserver(
        surge_profile, lateness=LATENESS, admission=AdmissionController(limits)
    )
    paced.replay(paced_source)
    print(
        f"rate-limited (3 obs/tick/source): firehose shed "
        f"{firehose.runtime.stats.shed_observations}, paced source shed "
        f"{paced.runtime.stats.shed_observations} after honoring "
        f"{paced_source.throttle_count} backpressure signals"
    )

    # -- 5) crash mid-stream, recover, emit exactly once ---------------
    flaky = build_scenario("flaky_uplink", preset="small")
    flaky_taps = flaky.system.attach_stream_taps()
    flaky.system.run(until=flaky.params["horizon"])
    uplink_sink = flaky.system.sinks[SINK]
    uplink_tap = flaky_taps[SINK]
    uplink_profile = profile_of(uplink_sink)

    clean = ReplayObserver(uplink_profile, lateness=LATENESS)
    clean.replay(JitteredSource(uplink_tap, max_delay=LATENESS, seed=7))

    faulty = FaultySource(
        JitteredSource(uplink_tap, max_delay=LATENESS, seed=7),
        FaultPlan.seeded(
            seed=42,
            steps=FaultySource(
                JitteredSource(uplink_tap, max_delay=LATENESS, seed=7)
            ).steps,
            crashes=2,
            duplicate_bursts=2,
            corruptions=1,
        ),
        redelivery_overlap=1,
    )
    recovered = ReplayObserver(
        uplink_profile,
        lateness=LATENESS,
        dedup=RedeliveryDeduper(),
        quarantine=Quarantine(),
    )
    supervisor = SupervisedRuntime(
        recovered, checkpoints=CheckpointPolicy(every_steps=8)
    )
    supervisor.run(faulty)
    r_stats = recovered.runtime.stats
    print(
        f"flaky_uplink: {uplink_tap.observation_count} observations, "
        f"{faulty.crash_count} crash(es) injected — supervisor recovered "
        f"{supervisor.recoveries} time(s) from "
        f"{supervisor.checkpoints_taken} checkpoint(s) "
        f"(backoff delays: {list(supervisor.backoff_delays)})"
    )
    print(
        f"exactly-once after redelivery: "
        f"{r_stats.duplicates_dropped} duplicates dropped, "
        f"{r_stats.quarantined_observations} corrupt observation(s) "
        f"quarantined, identical to unfaulted replay: "
        f"{recovered.trace_rows == clean.trace_rows}"
    )
    for dead in recovered.runtime.quarantine.items:
        print(
            f"  quarantined: source={dead.source!r} seq={dead.seq} "
            f"entity={dead.entity!r}"
        )

    # -- 6) telemetry: stage tracing, and an export read from the parts --
    traced = ReplayObserver(
        profile,
        lateness=LATENESS,
        telemetry=Telemetry.create(trace_every=1),
    )
    traced.replay(JitteredSource(tap, max_delay=LATENESS, seed=7))
    telemetry = traced.runtime.telemetry
    print(
        f"fully traced replay identical to live run: "
        f"{[i.key for i in traced.emitted] == [i.key for i in sink.emitted]} "
        f"(telemetry reads the pipeline, never perturbs it)"
    )
    # collect() reads every series from the part that owns it when asked,
    # so the export and runtime.stats are the same numbers by construction.
    samples = collect(traced.runtime)
    exported = {sample.name: sample.value for sample in samples}
    t_stats = traced.runtime.stats
    released = exported["stream_observations_released_total"]
    late = exported["stream_observations_late_total"]
    agrees = (released, late) == (
        t_stats.released_items,
        t_stats.late_observations,
    )
    print(
        f"export: {len(samples)} series — "
        f"{released} observations released, {late} late "
        f"(runtime.stats agrees: {agrees}), "
        f"{telemetry.finished} stage traces completed"
    )
    for stage in (Stage.REORDER, Stage.WATERMARK_HOLD):
        residency = telemetry.residency[STAGES.index(stage)]
        print(
            f"  {stage.value:<14} residency p50={residency.quantile(0.5):g} "
            f"p95={residency.quantile(0.95):g} ticks "
            f"(n={residency.count})"
        )
    exposition = to_prometheus(samples)
    print(
        f"prometheus export: {len(exposition.splitlines())} lines, e.g. "
        f"{next(line for line in exposition.splitlines() if line.startswith('stream_observations_released_total'))!r}"
    )
    print(
        "full report: PYTHONPATH=src python -m repro.obs.report "
        "--scenario jittery_corridor --trace-every 1"
    )


if __name__ == "__main__":
    main()
