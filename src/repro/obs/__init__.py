"""repro.obs — the unified telemetry subsystem.

Three layers, one import surface:

* :mod:`repro.obs.registry` — the labeled metric store
  (:class:`MetricsRegistry`: counters, gauges, fixed-bucket histograms;
  deterministic iteration; ``snapshot()``/``merge()`` for checkpoints
  and shard roll-up);
* :mod:`repro.obs.tracing` — sampled tick-domain stage spans
  (:class:`PipelineTracer`, :class:`StageTrace`,
  ``ADMISSION → REORDER → WATERMARK_HOLD → ENGINE → MERGE → EMIT``)
  bundled with a registry into one :class:`Telemetry` object the
  streaming runtime accepts;
* :mod:`repro.obs.export` — Prometheus-text and canonical-JSON
  exporters, digests, and the pretty report behind the
  ``python -m repro.obs.report`` CLI.

The zero-perturbation guarantee: telemetry *reads* the pipeline and
never perturbs it — no randomness, no wall clocks in any value a
digest covers, no ordering effects — so every registered scenario
reproduces its golden digest byte-for-byte with tracing enabled (the
obs-conformance suite pins this at shards 1 and 4).
"""

from repro.obs.export import (
    parse_prometheus,
    registry_digest,
    render_report,
    to_json,
    to_prometheus,
    trace_rows_digest,
)
from repro.obs.registry import (
    DEFAULT_TICK_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricSample,
    MetricsRegistry,
    RegistrySnapshot,
)
from repro.obs.tracing import (
    DEFAULT_TRACE_RING,
    PipelineTracer,
    Stage,
    StageTrace,
    Telemetry,
    TelemetrySnapshot,
    TracerSnapshot,
)

__all__ = [
    "DEFAULT_TICK_BUCKETS",
    "DEFAULT_TRACE_RING",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSample",
    "MetricsRegistry",
    "PipelineTracer",
    "RegistrySnapshot",
    "Stage",
    "StageTrace",
    "Telemetry",
    "TelemetrySnapshot",
    "TracerSnapshot",
    "parse_prometheus",
    "registry_digest",
    "render_report",
    "to_json",
    "to_prometheus",
    "trace_rows_digest",
]
