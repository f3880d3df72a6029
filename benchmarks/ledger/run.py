"""The performance ledger's one command.

Two ways in:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this process.  ``--trace 0`` measures the end-to-end
    metrics with nothing wrapped; ``--trace 1`` wraps the layers' public
    calls and reports the per-layer metrics.  Prints every metric by name
    and unit, then a ``detail`` line, then (last line) the result object
    ``{"correct", "attempted", "failed", "metrics"}``.

``run.py [--workload W] [--seed N] [--out F] [--trace-out DIR] [--repeat-check]``
    The suite: each workload in its own subprocess, untraced then traced,
    collected into one report with run hygiene (commit, Python, cores,
    load).  ``--repeat-check`` runs it twice and compares the two reports.

Metric names, units, directions and bounds live in ``BENCHMARK.json`` at
the repository root and nowhere else.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

TRACE_UNTRACED_SHARE = 1 / 3
"""Part of a traced run's time budget spent on untraced passes, which
give ``bench.trace_overhead_ratio`` its base."""


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def summary(samples: list[float], value: float | None = None) -> dict:
    """Median (or ``value``) with quartiles and sample count."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0] if samples else 0.0
    if value is None:
        value = statistics.median(samples) if samples else 0.0
    return {"value": value, "q1": q1, "q3": q3, "n": len(samples)}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# one workload, this process
# ----------------------------------------------------------------------


def run_passes(workload, inputs, meter, seconds: float, recorder=None) -> list:
    """Closed-loop passes until another one would overrun ``seconds``."""
    passes = []
    started = perf_counter()
    while True:
        passes.append(workload.run_pass(inputs, meter, recorder))
        elapsed = perf_counter() - started
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def end_to_end_metrics(setup_s: list[float], passes: list) -> dict:
    """The untraced run's metrics; failed passes give no timings."""
    timed = [p for p in passes if not p.failed] or passes
    overlap = sum(p.overlap for p in passes)
    reference = sum(p.reference for p in passes)
    return {
        "setup_s": summary(setup_s),
        "obs_per_s": summary([p.observations / p.wall_s for p in timed]),
        "cpu_us_per_obs": summary(
            [p.cpu_s * 1e6 / p.observations for p in timed]
        ),
        "peak_rss_mb": summary(
            [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
        ),
        "recall": summary([p.recall for p in passes], ratio(overlap, reference)),
    }


def install_spans(recorder) -> None:
    """Wrap the public calls at every layer boundary (see README)."""
    from harness import PassTimer
    from repro.cps.ccu import ControlUnit
    from repro.cps.component import ObserverComponent
    from repro.cps.mote import SensorMote
    from repro.cps.sink import SinkNode
    from repro.cps.system import CPSSystem
    from repro.detect.engine import DetectionEngine
    from repro.network.fabric import WiredBackbone, WirelessNetwork
    from repro.physical.world import PhysicalWorld
    from repro.shard.engine import ShardedDetectionEngine
    from repro.shard.merger import MatchMerger
    from repro.shard.router import ObservationRouter
    from repro.stream import (
        AdmissionController,
        Quarantine,
        RedeliveryDeduper,
        ReorderBuffer,
        ReplayObserver,
        StreamingDetectionRuntime,
        SupervisedRuntime,
        WatermarkTracker,
    )

    for cls, attr, name in (
        (CPSSystem, "run", "sim.run"),
        (PhysicalWorld, "step", "physical.step"),
        (PhysicalWorld, "sample", "physical.sample"),
        (SensorMote, "sample_once", "cps.mote.sample_once"),
        (ObserverComponent, "ingest_batch", "cps.ingest_batch"),
        (SinkNode, "handle_packet", "cps.handle_packet"),
        (ControlUnit, "receive_instance", "cps.handle_packet"),
        (WirelessNetwork, "send_to_root", "network.wireless"),
        (WirelessNetwork, "unicast", "network.wireless"),
        (WiredBackbone, "send", "network.backbone"),
        (DetectionEngine, "submit_batch", "detect.submit_batch"),
        (DetectionEngine, "snapshot", "detect.snapshot"),
        (DetectionEngine, "restore", "detect.restore"),
        (ShardedDetectionEngine, "submit_batch", "shard.submit_batch"),
        (ObservationRouter, "route", "shard.router.route"),
        (MatchMerger, "merge", "shard.merger.merge"),
        (StreamingDetectionRuntime, "ingest", "stream.ingest"),
        (StreamingDetectionRuntime, "finish", "stream.ingest"),
        (Quarantine, "admit", "stream.quarantine.admit"),
        (RedeliveryDeduper, "admit", "stream.dedup.admit"),
        (AdmissionController, "intake", "stream.admission.intake"),
        (AdmissionController, "make_room", "stream.admission.make_room"),
        (ReorderBuffer, "offer", "stream.reorder.offer"),
        (ReorderBuffer, "release", "stream.reorder.release"),
        (ReorderBuffer, "release_all", "stream.reorder.release"),
        (WatermarkTracker, "observe", "stream.watermark"),
        (WatermarkTracker, "watermark", "stream.watermark"),
        (ReplayObserver, "snapshot", "stream.snapshot"),
        (ReplayObserver, "rollback", "stream.restore"),
        (SupervisedRuntime, "run", "stream.supervisor.run"),
        # The ledger's own step loop, so its cost is a named span and not a
        # silent gap between the layers' spans.
        (PassTimer, "step", "bench.driver"),
    ):
        recorder.patch(cls, attr, name)


def layer_metrics(recorder, timings: dict, untraced: list, traced: list) -> dict:
    """Per-layer metrics from the spans and the boundary counters.

    Shares compare raw span time with raw wall time of the same passes.
    Absolute times are divided by the passes' measured slowdown, so they
    are in reference microseconds like the end-to-end metrics.
    """
    from harness import add_counts, percentile
    from spans import SpanTotals

    totals = recorder.totals()
    counts: dict[str, float] = {}
    for p in traced:
        add_counts(counts, p.counts)

    def span(name: str) -> SpanTotals:
        return totals.get(name, SpanTotals())

    def count(name: str) -> float:
        return counts.get(name, 0)

    passes = len(traced)
    wall_ns = sum(p.raw_wall_s for p in traced) * 1e9
    slowdown = ratio(wall_ns, sum(p.wall_s for p in traced) * 1e9)
    offered = sum(p.observations for p in traced)

    def us(ns: float, per: float) -> float:
        return ratio(ns / 1e3 / slowdown, per)

    def ms(ns: float, per: float) -> float:
        return ratio(ns / 1e6 / slowdown, per)

    def share(ns: float) -> float:
        return ratio(ns, wall_ns)

    submit = span("detect.submit_batch")
    shard = span("shard.submit_batch")
    ingest = span("stream.ingest")
    sim = span("sim.run")
    emit = span("stream.emit")
    sample = span("physical.sample")
    quarantine = span("stream.quarantine.admit")
    dedup = span("stream.dedup.admit")
    intake = span("stream.admission.intake")
    offer = span("stream.reorder.offer")
    engine_snapshot = span("detect.snapshot")
    engine_restore = span("detect.restore")
    checkpoint = span("stream.snapshot")
    rollback = span("stream.restore")
    packets = span("network.wireless").calls + span("network.backbone").calls
    steps_us = [us for p in untraced for us in p.step_us]
    return {
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "step_p50_us": percentile(steps_us, 50),
        "step_p99_us": percentile(steps_us, 99),
        "workloads.build_s": timings["build_s"],
        "stream.capture_s": timings["capture_s"],
        "sim.kernel.self_share": share(sim.self_ns),
        "sim.kernel.us_per_event": us(sim.self_ns, count("sim_events")),
        "sim.events": ratio(count("sim_events"), passes),
        "physical.step.share": share(span("physical.step").total_ns),
        "physical.sample.us_per_call": us(sample.total_ns, sample.calls),
        "physical.sample.calls": ratio(sample.calls, passes),
        "cps.mote.sample_once.self_share": share(
            span("cps.mote.sample_once").self_ns
        ),
        "cps.ingest_batch.self_share": share(span("cps.ingest_batch").self_ns),
        "cps.handle_packet.self_share": share(
            span("cps.handle_packet").self_ns
        ),
        "network.wireless.self_share": share(span("network.wireless").self_ns),
        "network.backbone.self_share": share(span("network.backbone").self_ns),
        "network.packets": ratio(packets, passes),
        "detect.submit_batch.share": share(submit.total_ns),
        "detect.submit_batch.us_per_obs": us(submit.total_ns, count("entities")),
        "detect.submit_batch.calls": ratio(submit.calls, passes),
        "detect.bindings_per_obs": ratio(count("bindings"), count("entities")),
        "detect.us_per_binding": us(submit.total_ns, count("bindings")),
        "detect.match_ratio": ratio(count("matches"), count("bindings")),
        "detect.pruned_ratio": ratio(
            count("pruned"), count("pruned") + count("bindings")
        ),
        "detect.memo_hit_ratio": ratio(
            count("cache_hits"), count("cache_hits") + count("cache_misses")
        ),
        "detect.snapshot_ms": ms(engine_snapshot.total_ns, engine_snapshot.calls),
        "detect.restore_ms": ms(engine_restore.total_ns, engine_restore.calls),
        "shard.submit_batch.overhead_ratio": ratio(
            shard.total_ns, submit.total_ns
        ),
        "shard.router.route.us_per_obs": us(
            span("shard.router.route").total_ns, count("routed")
        ),
        "shard.halo_copies_per_obs": ratio(
            count("halo_copies"), count("routed")
        ),
        "shard.broadcast_ratio": ratio(count("broadcasts"), count("routed")),
        "shard.skew": ratio(count("skew_sum"), count("skew_engines")),
        "shard.merger.merge.us_per_match": us(
            span("shard.merger.merge").total_ns, count("matches")
        ),
        "stream.ingest.self_us_per_obs": us(ingest.self_ns, offered),
        "stream.quarantine.admit.us_per_obs": us(
            quarantine.total_ns, quarantine.calls
        ),
        "stream.dedup.admit.us_per_obs": us(dedup.total_ns, dedup.calls),
        "stream.quarantined": ratio(count("quarantined"), passes),
        "stream.duplicates_dropped": ratio(count("duplicates_dropped"), passes),
        "stream.admission.intake.us_per_obs": us(intake.total_ns, offered),
        "stream.admission.make_room.us_per_shed": us(
            span("stream.admission.make_room").total_ns, count("shed")
        ),
        "stream.admission.shed_share": ratio(count("shed"), offered),
        "stream.admission.deferred_share": ratio(count("deferred"), offered),
        "stream.admission.backpressure_steps": ratio(
            count("backpressure_steps"), passes
        ),
        "stream.reorder.offer.us_per_obs": us(offer.total_ns, offer.calls),
        "stream.reorder.release.us_per_obs": us(
            span("stream.reorder.release").total_ns, offer.calls
        ),
        "stream.reorder.peak": count("reorder_peak"),
        "stream.watermark.us_per_obs": us(
            span("stream.watermark").total_ns, offer.calls
        ),
        "stream.emit.us_per_match": us(emit.total_ns, emit.calls),
        "stream.emit.share": share(emit.total_ns),
        "stream.snapshot.ms_per_checkpoint": ms(
            checkpoint.total_ns, checkpoint.calls
        ),
        "stream.restore.ms_per_recovery": ms(rollback.total_ns, rollback.calls),
        "stream.checkpoints": ratio(count("checkpoints"), passes),
        "stream.recoveries": ratio(count("recoveries"), passes),
        "stream.redelivered_share": ratio(
            count("duplicates_dropped") if checkpoint.calls else 0, offered
        ),
        "bench.trace_overhead_ratio": ratio(
            statistics.median(p.wall_s for p in traced),
            statistics.median(p.wall_s for p in untraced),
        ),
        "bench.trace_closure": share(recorder.root_ns()),
        "bench.cpu_slowdown": slowdown,
        "obs.telemetry.overhead_ratio": 0.0,
        "lag_p50_ms.r8k": 0.0,
        "lag_p99_ms.r8k": 0.0,
        "bench.generator_late_p99_us": 0.0,
    }


def open_loop_metrics(workload, inputs, meter, untraced: list) -> tuple:
    """``stream_dense`` only: open-loop lag and the telemetry pass pair.

    Returns the metrics, the failed-observation count and the problems.
    """
    from harness import percentile

    open_loop = workload.run_open_loop(inputs)
    with_telemetry = workload.run_pass(inputs, meter, telemetry=True)
    bare = statistics.median(p.wall_s for p in untraced)
    metrics = {
        "lag_p50_ms.r8k": percentile(open_loop.lag_ns, 50) / 1e6,
        "lag_p99_ms.r8k": percentile(open_loop.lag_ns, 99) / 1e6,
        "bench.generator_late_p99_us": (
            # No step found the runtime idle: the generator was never late.
            percentile(open_loop.generator_late_ns or [0], 99) / 1e3
        ),
        "obs.telemetry.overhead_ratio": ratio(with_telemetry.wall_s, bare),
    }
    return (
        metrics,
        open_loop.failed + with_telemetry.failed,
        open_loop.problems + with_telemetry.problems,
    )


def run_one(args, contract: dict) -> int:
    """One workload in this process; the contract's result on the last line."""
    from harness import WORKLOADS
    from speed import SpeedMeter

    workload = WORKLOADS[args.workload]
    meter = SpeedMeter()
    setup_s = []
    for _ in range(workload.setup_repeats):
        first = meter.begin()
        inputs = workload.setup(args.seed, args.preset, meter)
        setup_s.append(meter.end(first).reference_ns / 1e9)
    # The inputs stay alive for the whole run; frozen, the collector does
    # not re-scan them during every pass and charge that to the system.
    gc.collect()
    gc.freeze()

    problems: list[str] = []
    failed = 0
    if not args.trace:
        passes = run_passes(workload, inputs, meter, args.seconds)
        metrics = end_to_end_metrics(setup_s, passes)
        listed = contract["end_to_end"]
    else:
        from spans import SpanRecorder

        untraced = run_passes(
            workload, inputs, meter, args.seconds * TRACE_UNTRACED_SHARE
        )
        extras: dict = {}
        if workload.open_loop:
            extras, failed, problems = open_loop_metrics(
                workload, inputs, meter, untraced
            )
        recorder = SpanRecorder()
        install_spans(recorder)
        plain_burst = meter.burst
        meter.burst = recorder.wrap(plain_burst, "bench.calibration")
        try:
            traced = run_passes(
                workload,
                inputs,
                meter,
                args.seconds * (1 - TRACE_UNTRACED_SHARE),
                recorder,
            )
        finally:
            meter.burst = plain_burst
            recorder.unpatch()
        if args.trace_out:
            recorder.write_jsonl(args.trace_out)
        passes = untraced + traced
        values = layer_metrics(recorder, inputs.timings, untraced, traced)
        values.update(extras)
        metrics = {name: summary([value]) for name, value in values.items()}
        listed = contract["per_layer"]

    attempted = sum(p.observations for p in passes)
    failed = min(attempted, failed + sum(p.failed for p in passes))
    for p in passes:
        problems.extend(p.problems)
    for problem in problems:
        print(f"FAILED CHECK {workload.name}: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems

    units = {entry["name"]: entry["unit"] for entry in listed}
    for name, unit in units.items():
        stat = metrics[name]
        print(
            f"{workload.name} {name} {stat['value']:.6g} {unit} "
            f"(q1 {stat['q1']:.6g}, q3 {stat['q3']:.6g}, n {stat['n']})"
        )
    print(
        f"{workload.name} failed_share {ratio(failed, attempted):.6g} ratio "
        f"({failed} of {attempted} observations)"
    )
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "raw_wall_s": statistics.median(p.raw_wall_s for p in passes),
        "problems": problems,
        "metrics": {
            name: dict(metrics[name], unit=unit) for name, unit in units.items()
        },
    }
    print("detail " + json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name]["value"], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


# ----------------------------------------------------------------------
# the suite: one subprocess per workload
# ----------------------------------------------------------------------


def hygiene(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cores = os.cpu_count() or 1
    load = os.getloadavg()[0]
    noisy = load > cores - 1
    if noisy:
        print(
            f"WARNING: 1-min load average {load:.2f} exceeds {cores - 1} "
            f"on {cores} cores; this run is marked noisy",
            file=sys.stderr,
        )
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": cores,
        "seed": seed,
        "load_1min_start": load,
        "noisy": noisy,
    }


def run_child(name: str, trace: int, args, trace_out: str | None) -> dict:
    """One workload run in a subprocess; returns its parsed output."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.preset:
        command += ["--preset", args.preset]
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=900
    )
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if len(lines) < 2 or not lines[-2].startswith("detail "):
        raise SystemExit(
            f"{name} (trace {trace}) exited {done.returncode} without a result"
        )
    for line in lines[:-2]:
        print(line)
    return {
        "detail": json.loads(lines[-2][len("detail "):]),
        "result": json.loads(lines[-1]),
    }


def run_suite(args, contract: dict, out: str | None) -> dict:
    names = [args.workload] if args.workload else [
        entry["name"] for entry in contract["workloads"]
    ]
    report = {"hygiene": hygiene(args.seed), "workloads": {}}
    if args.trace_out:
        os.makedirs(args.trace_out, exist_ok=True)
    for name in names:
        untraced = run_child(name, 0, args, None)
        traced = run_child(
            name,
            1,
            args,
            os.path.join(args.trace_out, f"{name}.jsonl")
            if args.trace_out
            else None,
        )
        result = untraced["result"]
        report["workloads"][name] = {
            "correct": result["correct"] and traced["result"]["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "failed_share": ratio(result["failed"], result["attempted"]),
            "passes": untraced["detail"]["passes"],
            "traced_passes": traced["detail"]["passes"],
            "raw_wall_s": untraced["detail"]["raw_wall_s"],
            "problems": untraced["detail"]["problems"]
            + traced["detail"]["problems"],
            "end_to_end": untraced["detail"]["metrics"],
            "per_layer": traced["detail"]["metrics"],
        }
    report["hygiene"]["load_1min_end"] = os.getloadavg()[0]
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--preset", choices=("small", "medium", "large"))
    parser.add_argument("--out")
    parser.add_argument("--trace-out")
    parser.add_argument("--repeat-check", action="store_true")
    args = parser.parse_args(argv)
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    known = [entry["name"] for entry in contract["workloads"]]
    if args.workload and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; choose from {known}")

    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return run_one(args, contract)

    if args.repeat_check:
        import compare

        stem = args.out or "ledger"
        first, second = f"{stem}.run1.json", f"{stem}.run2.json"
        reports = [
            run_suite(args, contract, first),
            run_suite(args, contract, second),
        ]
        status = compare.main([first, second])
    else:
        reports = [run_suite(args, contract, args.out)]
        status = 0
    if not all(
        entry["correct"]
        for report in reports
        for entry in report["workloads"].values()
    ):
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
