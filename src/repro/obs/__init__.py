"""repro.obs — the unified telemetry subsystem.

Three layers, one import surface:

* :mod:`repro.obs.tracing` — sampled tick-domain stage traces (four
  ticks per observation, spanning
  ``ADMISSION → REORDER → WATERMARK_HOLD``) and their residency
  histograms, kept by one :class:`Telemetry` object every streaming
  runtime holds;
* :mod:`repro.obs.metrics` — :func:`collect`, which reads every
  exported series from the part that owns it (runtime, engine, merger,
  supervisor, telemetry) when asked;
* :mod:`repro.obs.export` — Prometheus-text and canonical-JSON
  exporters over those samples, and the pretty report behind the
  ``python -m repro.obs.report`` CLI.

The zero-perturbation guarantee: telemetry *reads* the pipeline and
never perturbs it — no randomness, no wall clocks, no ordering
effects — so every registered scenario reproduces its golden digest
byte-for-byte with tracing enabled (the traced conformance legs pin this
at shards 1 and 4).
"""

from repro.obs.export import (
    parse_prometheus,
    render_report,
    to_json,
    to_prometheus,
    trace_rows_digest,
)
from repro.obs.metrics import MetricSample, collect
from repro.obs.tracing import (
    DEFAULT_TICK_BUCKETS,
    TRACE_RING,
    Histogram,
    Stage,
    Telemetry,
    TelemetrySnapshot,
)

__all__ = [
    "DEFAULT_TICK_BUCKETS",
    "TRACE_RING",
    "Histogram",
    "MetricSample",
    "Stage",
    "Telemetry",
    "TelemetrySnapshot",
    "collect",
    "parse_prometheus",
    "render_report",
    "to_json",
    "to_prometheus",
    "trace_rows_digest",
]
