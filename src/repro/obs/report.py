"""``python -m repro.obs.report`` — live runtime introspection CLI.

Builds a registered scenario, captures its busiest observer feed,
replays it (optionally sharded) through a telemetry-enabled
:class:`~repro.stream.runtime.StreamingDetectionRuntime`, and
pretty-prints what its parts hold: stage residency percentiles,
shed/late/recovery counts, per-spec bindings and matches, and the
backpressure duty cycle.  ``--format prometheus`` / ``--format json``
dump every collected series in the machine formats instead.

Examples::

    PYTHONPATH=src python -m repro.obs.report
    PYTHONPATH=src python -m repro.obs.report --scenario high_density \\
        --shards 4 --trace-every 1 --format text
    PYTHONPATH=src python -m repro.obs.report --format prometheus
"""

from __future__ import annotations

import argparse
from typing import Sequence

from repro.core.errors import ReproError
from repro.obs.export import render_report, to_json, to_prometheus
from repro.obs.metrics import collect
from repro.obs.tracing import Telemetry

DEFAULT_LATENESS = 8
DEFAULT_JITTER_SEED = 20260729


def traced_replay(
    name: str,
    *,
    preset: str = "small",
    shards: int = 1,
    trace_every: int = 1,
    lateness: int = DEFAULT_LATENESS,
    seed: int = DEFAULT_JITTER_SEED,
):
    """Replay one scenario's busiest tapped feed under full telemetry.

    Returns the finished :class:`~repro.stream.replay.ReplayObserver`
    (``collect(replayer.runtime)`` reads its series).
    """
    from repro.shard import EngineConfig
    from repro.stream import JitteredSource, ReplayObserver, profile_of
    from repro.workloads import build_scenario

    # ReplayObserver checks the shard count too, but only after the
    # scenario has been built and run; a bad one should fail first.
    shards = EngineConfig(shards=shards).shards
    scenario = build_scenario(name, preset=preset)
    taps = scenario.system.attach_stream_taps()
    scenario.system.run(until=scenario.params["horizon"])
    tap = max(taps.values(), key=lambda t: t.observation_count)
    observer = (
        scenario.system.sinks.get(tap.name)
        or scenario.system.ccus[tap.name]
    )
    replayer = ReplayObserver(
        profile_of(observer),
        lateness=lateness,
        shards=shards,
        bounds=scenario.system.detection_bounds() if shards > 1 else None,
        telemetry=Telemetry.create(trace_every=trace_every),
    )
    replayer.replay(JitteredSource(tap, max_delay=lateness, seed=seed))
    return replayer


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.report", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--scenario",
        default="jittery_corridor",
        help="registered scenario to replay (default: jittery_corridor)",
    )
    parser.add_argument(
        "--preset", default="small", help="scenario preset (default: small)"
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="detection backend shards (1 = single engine)",
    )
    parser.add_argument(
        "--trace-every",
        type=int,
        default=1,
        help="stage-trace sampling stride (0 disables tracing)",
    )
    parser.add_argument(
        "--lateness",
        type=int,
        default=DEFAULT_LATENESS,
        help="replay lateness bound in ticks",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_JITTER_SEED,
        help="jitter seed for the replayed disorder",
    )
    parser.add_argument(
        "--format",
        choices=("text", "prometheus", "json"),
        default="text",
        help="output format (default: human-readable text)",
    )
    args = parser.parse_args(argv)

    try:
        replayer = traced_replay(
            args.scenario,
            preset=args.preset,
            shards=args.shards,
            trace_every=args.trace_every,
            lateness=args.lateness,
            seed=args.seed,
        )
    except ReproError as error:
        parser.error(str(error))
    runtime = replayer.runtime
    if args.format == "text":
        print(render_report(runtime))
    elif args.format == "prometheus":
        print(to_prometheus(collect(runtime)), end="")
    else:
        print(to_json(collect(runtime), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
