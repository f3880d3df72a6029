"""Exporters: Prometheus text, canonical JSON, digests, text report.

Two machine formats plus one human format, all derived from the same
deterministic :meth:`~repro.obs.registry.MetricsRegistry.collect`
iteration:

* :func:`to_prometheus` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, cumulative ``_bucket{le=...}``
  histogram series).  :func:`parse_prometheus` is the minimal line
  parser the exporter tests round-trip through.
* :func:`to_json` — canonical JSON: samples sorted by ``(name,
  labels)``, labels as sorted key/value pairs, ``sort_keys`` and fixed
  separators, so the output is independent of metric creation order
  and byte-stable across identical runs.  ``deterministic_only=True``
  drops volatile (wall-clock-derived) families, which is what
  :func:`registry_digest` hashes.
* :func:`render_report` — the pretty-printed runtime introspection the
  ``repro.obs.report`` CLI shows: stage residency percentiles,
  shed/late/recovery counts, per-spec bindings and cache hit rates,
  and the backpressure duty cycle.
"""

from __future__ import annotations

import json
from hashlib import sha256
from typing import Iterable, Mapping

from repro.core.errors import ObserverError
from repro.obs.registry import MetricSample, MetricsRegistry

__all__ = [
    "to_prometheus",
    "parse_prometheus",
    "to_json",
    "registry_digest",
    "trace_rows_digest",
    "render_report",
]


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_text(labels, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = tuple(labels) + extra
    if not pairs:
        return ""
    body = ",".join(f'{key}="{_escape(value)}"' for key, value in pairs)
    return "{" + body + "}"


def _format_value(value: int | float) -> str:
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _format_bound(bound: float) -> str:
    as_float = float(bound)
    if as_float.is_integer():
        return str(int(as_float))
    return repr(as_float)


def to_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines: list[str] = []
    seen_headers: set[str] = set()
    for sample in registry.collect():
        if sample.name not in seen_headers:
            seen_headers.add(sample.name)
            if sample.help:
                lines.append(f"# HELP {sample.name} {sample.help}")
            lines.append(f"# TYPE {sample.name} {sample.kind}")
        if sample.kind == "histogram":
            cumulative = 0
            for bound, count in zip(sample.bounds, sample.counts):
                cumulative += count
                lines.append(
                    f"{sample.name}_bucket"
                    f"{_label_text(sample.labels, (('le', _format_bound(bound)),))}"
                    f" {cumulative}"
                )
            cumulative += sample.counts[-1]
            lines.append(
                f"{sample.name}_bucket"
                f"{_label_text(sample.labels, (('le', '+Inf'),))} {cumulative}"
            )
            lines.append(
                f"{sample.name}_sum{_label_text(sample.labels)} "
                f"{_format_value(sample.total)}"
            )
            lines.append(
                f"{sample.name}_count{_label_text(sample.labels)} "
                f"{sample.count}"
            )
        else:
            lines.append(
                f"{sample.name}{_label_text(sample.labels)} "
                f"{_format_value(sample.value)}"
            )
    return "\n".join(lines) + "\n"


def parse_prometheus(
    text: str,
) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Minimal exposition-format parser (the round-trip test's oracle).

    Returns ``{(metric name, sorted label pairs): value}``.  Handles
    exactly what :func:`to_prometheus` emits — quoted label values with
    backslash escapes, comment lines — and raises
    :class:`~repro.core.errors.ObserverError` on anything malformed.
    """
    out: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, labels, rest = _parse_name_labels(line)
        value_text = rest.strip()
        try:
            value = float(value_text)
        except ValueError:
            raise ObserverError(
                f"unparseable sample value {value_text!r} in line {raw!r}"
            ) from None
        out[(name, tuple(sorted(labels)))] = value
    return out


def _parse_name_labels(line: str):
    brace = line.find("{")
    if brace == -1:
        name, _, rest = line.partition(" ")
        return name, (), rest
    name = line[:brace]
    labels: list[tuple[str, str]] = []
    i = brace + 1
    while i < len(line) and line[i] != "}":
        eq = line.index("=", i)
        key = line[i:eq].strip(", ")
        if line[eq + 1] != '"':
            raise ObserverError(f"unquoted label value in line {line!r}")
        j = eq + 2
        chars: list[str] = []
        while line[j] != '"':
            if line[j] == "\\":
                j += 1
                chars.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(line[j], line[j])
                )
            else:
                chars.append(line[j])
            j += 1
        labels.append((key, "".join(chars)))
        i = j + 1
    return name, tuple(labels), line[i + 1:]


def _sample_payload(sample: MetricSample) -> dict:
    payload: dict = {
        "name": sample.name,
        "kind": sample.kind,
        "labels": [list(pair) for pair in sample.labels],
    }
    if sample.kind == "histogram":
        payload["buckets"] = [
            [_format_bound(bound), count]
            for bound, count in zip(sample.bounds, sample.counts)
        ]
        payload["inf"] = sample.counts[-1]
        payload["sum"] = sample.total
        payload["count"] = sample.count
    else:
        payload["value"] = sample.value
    return payload


def to_json(
    registry: MetricsRegistry,
    *,
    deterministic_only: bool = False,
    indent: int | None = None,
) -> str:
    """Canonical JSON export: creation-order independent, byte-stable.

    Samples sort by ``(name, labels)``; labels are sorted pairs; keys
    sort; separators are fixed.  ``deterministic_only=True`` excludes
    volatile (wall-clock-derived) families so two identical runs export
    identical bytes — the contract :func:`registry_digest` hashes.
    """
    samples = sorted(
        (
            sample
            for sample in registry.collect()
            if not (deterministic_only and sample.volatile)
        ),
        key=lambda sample: (sample.name, sample.labels),
    )
    payload = {"metrics": [_sample_payload(sample) for sample in samples]}
    separators = (",", ": ") if indent else (",", ":")
    return json.dumps(
        payload, sort_keys=True, indent=indent, separators=separators
    )


def registry_digest(registry: MetricsRegistry) -> str:
    """SHA-256 of the deterministic canonical-JSON export."""
    return sha256(
        to_json(registry, deterministic_only=True).encode()
    ).hexdigest()


def trace_rows_digest(rows: Iterable) -> str:
    """SHA-256 over completed trace rows (tick-domain, so run-stable)."""
    return sha256(
        json.dumps(list(rows), sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# the human-readable report
# ----------------------------------------------------------------------

_STAGE_METRIC = "obs_stage_residency_ticks"


def _fmt_rate(value: float) -> str:
    return f"{value * 100:.1f}%"


def render_report(runtime=None, *, engine=None, telemetry=None) -> str:
    """Pretty-print a live runtime / engine / telemetry introspection.

    Any combination works: a
    :class:`~repro.stream.runtime.StreamingDetectionRuntime` (its
    engine and telemetry are picked up automatically), a bare
    :class:`~repro.detect.engine.DetectionEngine` /
    :class:`~repro.shard.engine.ShardedDetectionEngine`, or a
    standalone :class:`~repro.obs.tracing.Telemetry`.
    """
    from repro.obs.tracing import STAGES  # local: avoid import cycle

    if runtime is not None:
        engine = engine if engine is not None else runtime.engine
        telemetry = (
            telemetry
            if telemetry is not None
            else getattr(runtime, "telemetry", None)
        )
    lines: list[str] = ["== repro.obs runtime report =="]

    if runtime is not None:
        stats = runtime.stats
        lines.append("-- stream --")
        lines.append(
            f"offered={stats.entities_submitted} "
            f"released={stats.released_items} "
            f"batches={stats.batches_submitted} "
            f"late={stats.late_observations} "
            f"shed={stats.shed_observations} "
            f"deferred={stats.deferred_observations}"
        )
        lines.append(
            f"reorder_peak={stats.reorder_peak} "
            f"recoveries={stats.recoveries} "
            f"duplicates_dropped={stats.duplicates_dropped} "
            f"quarantined={stats.quarantined_observations}"
        )
        steps = stats.delivery_steps
        duty = stats.backpressure_events / steps if steps else 0.0
        lines.append(
            f"backpressure: engaged_steps={stats.backpressure_events} "
            f"steps={steps} duty_cycle={_fmt_rate(duty)}"
        )
        admission = getattr(runtime, "admission", None)
        if admission is not None and hasattr(admission, "metrics_view"):
            view = admission.metrics_view()
            lines.append(
                "admission: "
                + " ".join(f"{key}={value}" for key, value in view.items())
            )

    if telemetry is not None and telemetry.tracer.enabled:
        tracer = telemetry.tracer
        lines.append(
            f"-- stage residency (ticks; trace_every="
            f"{tracer.trace_every}, completed="
            f"{len(tracer.completed_rows())}, in_flight="
            f"{tracer.active_count}) --"
        )
        for stage in STAGES:
            histogram = telemetry.registry.histogram(
                _STAGE_METRIC, stage=stage.value
            )
            if not histogram.count:
                continue
            lines.append(
                f"{stage.value:<15} n={histogram.count:<6} "
                f"p50<={_format_bound(histogram.quantile(0.5))} "
                f"p95<={_format_bound(histogram.quantile(0.95))} "
                f"p99<={_format_bound(histogram.quantile(0.99))} "
                f"mean={histogram.total / histogram.count:.2f}"
            )

    if engine is not None:
        stats = engine.stats
        lines.append("-- engine --")
        lines.append(
            f"entities={stats.entities_submitted} "
            f"bindings={stats.bindings_evaluated} "
            f"pruned={stats.candidates_pruned} "
            f"matches={stats.matches} "
            f"errors={stats.evaluation_errors} "
            f"pruned_ratio={_fmt_rate(stats.pruned_ratio)}"
        )
        shard_stats = getattr(engine, "shard_stats", None)
        if callable(shard_stats):
            for shard, per in enumerate(shard_stats()):
                lines.append(
                    f"shard[{shard}] entities={per.entities_submitted} "
                    f"bindings={per.bindings_evaluated} "
                    f"matches={per.matches} "
                    f"pruned_ratio={_fmt_rate(per.pruned_ratio)}"
                )
        spec_rows = _per_spec_rows(engine, telemetry)
        if spec_rows:
            lines.append("-- per-spec --")
            lines.extend(spec_rows)

    return "\n".join(lines)


def _per_spec_rows(engine, telemetry) -> list[str]:
    registry = _engine_registry(engine, telemetry)
    if registry is None:
        return []
    rows: dict[str, dict[str, float]] = {}
    for sample in registry.collect():
        if sample.name not in (
            "engine_spec_bindings_total",
            "engine_spec_matches_total",
            "engine_spec_evaluation_seconds_total",
        ):
            continue
        labels = dict(sample.labels)
        spec = labels.get("spec")
        if spec is None:
            continue
        row = rows.setdefault(spec, {})
        short = sample.name.removeprefix("engine_spec_").removesuffix("_total")
        row[short] = row.get(short, 0) + sample.value
    return [
        f"{spec}: bindings={int(row.get('bindings', 0))} "
        f"matches={int(row.get('matches', 0))} "
        f"eval_s={row.get('evaluation_seconds', 0.0):.4f}"
        for spec, row in sorted(rows.items())
    ]


def _engine_registry(engine, telemetry) -> MetricsRegistry | None:
    merged = getattr(engine, "merged_telemetry", None)
    if callable(merged):
        registry = merged()
        if registry is not None:
            return registry
    registry = getattr(engine, "telemetry_registry", None)
    if isinstance(registry, MetricsRegistry):
        return registry
    return telemetry.registry if telemetry is not None else None
