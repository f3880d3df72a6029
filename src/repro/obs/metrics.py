"""Metric samples, read from the parts that own them when asked.

Every count the pipeline keeps has exactly one owner: the runtime and
its stages (through :attr:`StreamingDetectionRuntime.stats
<repro.stream.runtime.StreamingDetectionRuntime.stats>`), the detection
engine's per-specification tallies, the shard merger, the supervisor,
and the :class:`~repro.obs.tracing.Telemetry` bundle's traces.
:func:`collect` reads each of them at call time and returns
:class:`MetricSample` rows for the exporters — there is no second copy
to keep in step, to checkpoint or to merge, so an export is never stale
and a restored runtime exports exactly what its parts restored.

Determinism: families come out in a fixed order and label sets in
sorted order, and nothing here reads a clock or draws randomness, so
two identical runs export identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.obs.tracing import STAGES

__all__ = ["MetricSample", "collect", "spec_samples"]

LabelSet = tuple[tuple[str, str], ...]

_SPEC_SERIES = (
    ("engine_spec_bindings_total",
     "Candidate bindings evaluated, per specification"),
    ("engine_spec_matches_total", "Satisfied bindings, per specification"),
)

_MERGER_SERIES = (
    ("candidates", "Per-shard candidate matches entering the merger"),
    ("deduped", "Halo-duplicate candidates collapsed by the canonical key"),
    ("suppressed", "Candidates suppressed by cooldown arbitration"),
    ("emitted", "Matches emitted in canonical single-engine order"),
)


@dataclass(frozen=True)
class MetricSample:
    """One exported series: its family's metadata plus one label set's
    value (``value`` for counters and gauges, the bucket fields for
    histograms)."""

    name: str
    kind: str
    help: str
    labels: LabelSet
    value: int | float | None = None
    bounds: tuple[float, ...] | None = None
    counts: tuple[int, ...] | None = None
    total: int | float | None = None
    count: int | None = None


def _sample(name, help_text, value, kind="counter", **labels) -> MetricSample:
    labels = tuple(sorted((key, str(label)) for key, label in labels.items()))
    return MetricSample(name, kind, help_text, labels, value=value)


def spec_samples(engine) -> list[MetricSample]:
    """A bindings and a matches series per installed specification, zero
    included; a sharded engine's come per shard, labelled ``shard=<i>``."""
    shards = getattr(engine, "engines", None)
    parts = [({}, engine)] if shards is None else [
        ({"shard": index}, part) for index, part in enumerate(shards)
    ]
    return [
        _sample(name, help_text, tally[column], spec=spec, **shard)
        for column, (name, help_text) in enumerate(_SPEC_SERIES)
        for shard, part in parts
        for spec, tally in part.tallies().items()
    ]


def collect(runtime) -> list[MetricSample]:
    """Every series a :class:`~repro.stream.runtime.StreamingDetectionRuntime`
    exports, read from its owners now.

    * ``stream_*`` — each :class:`~repro.stream.runtime.StreamStats`
      field that names a series, the reorder buffer's occupancy and the
      merged watermark (absent while there is none: before the first
      observation and once :meth:`finish` has closed every source);
    * ``resilience_*`` — the supervisor's history, when one drives the
      runtime;
    * ``engine_spec_*`` / ``shard_merge_*`` — the engine's
      per-specification tallies and, on the sharded backend, the
      merger's counts;
    * ``obs_*`` — the telemetry's trace tallies and residency
      histograms, when it traces (``trace_every`` above 0).
    """
    stats = runtime.stats
    samples = [
        _sample(field.metadata["series"], field.metadata["help"],
                getattr(stats, field.name), field.metadata["kind"])
        for field in fields(stats)
        if field.metadata
    ]
    samples.append(_sample(
        "stream_reorder_occupancy",
        "Reorder-buffer occupancy after the last step",
        runtime.buffer.occupancy,
        "gauge",
    ))
    watermark = runtime.tracker.watermark()
    if watermark is not None:
        samples.append(_sample(
            "stream_watermark",
            "Merged event-time watermark after the last step",
            watermark,
            "gauge",
        ))
    supervisor = runtime.supervisor
    if supervisor is not None:
        samples += [
            _sample("resilience_checkpoints_total",
                    "Checkpoints the supervisor took",
                    supervisor.checkpoints_taken),
            _sample("resilience_recoveries_total",
                    "Crash recoveries the supervisor made",
                    supervisor.recoveries),
            _sample("resilience_backoff_ticks_total",
                    "Arrival ticks the supervisor spent backing off",
                    sum(supervisor.backoff_delays)),
        ]
    engine = runtime.engine
    samples += spec_samples(engine)
    merger = getattr(engine, "merger", None)
    if merger is not None:
        samples += [
            _sample(f"shard_merge_{count}_total", help_text,
                    getattr(merger, count))
            for count, help_text in _MERGER_SERIES
        ]
    telemetry = runtime.telemetry
    if telemetry.enabled:
        samples += [
            _sample("obs_traces_sampled_total",
                    "Observations picked for tracing", telemetry.sampled),
            _sample("obs_traces_completed_total",
                    "Traces closed at release", telemetry.finished),
            *(
                _sample("obs_traces_discarded_total",
                        "Sampled observations that left the pipeline "
                        "before release", discarded, reason=reason)
                for reason, discarded in sorted(telemetry.discarded.items())
            ),
            *(
                MetricSample(
                    "obs_stage_residency_ticks",
                    "histogram",
                    "Tick-domain residency per pipeline stage",
                    (("stage", stage.value),),
                    bounds=histogram.bounds,
                    counts=tuple(histogram.counts),
                    total=histogram.total,
                    count=histogram.count,
                )
                for stage, histogram in zip(STAGES, telemetry.residency)
            ),
        ]
    return samples
