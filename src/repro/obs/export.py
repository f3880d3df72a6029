"""Exporters: Prometheus text, canonical JSON, digests, text report.

Two machine formats plus one human format, all taking the
:class:`~repro.obs.metrics.MetricSample` rows that
:func:`~repro.obs.metrics.collect` reads from a runtime's parts:

* :func:`to_prometheus` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, cumulative ``_bucket{le=...}``
  histogram series).  :func:`parse_prometheus` is the minimal line
  parser the exporter tests round-trip through.
* :func:`to_json` — canonical JSON: samples sorted by ``(name,
  labels)``, labels as sorted key/value pairs, ``sort_keys`` and fixed
  separators, so the output is independent of sample order and
  byte-stable across identical runs.
* :func:`render_report` — the pretty-printed runtime introspection the
  ``repro.obs.report`` CLI shows: stage residency percentiles,
  shed/late/recovery counts, per-spec bindings and matches, and the
  backpressure duty cycle.
"""

from __future__ import annotations

import json
import re
from hashlib import sha256
from typing import Iterable

from repro.core.errors import ObserverError
from repro.obs.metrics import MetricSample, spec_samples
from repro.obs.tracing import STAGES

__all__ = [
    "to_prometheus",
    "parse_prometheus",
    "to_json",
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


def to_prometheus(samples: Iterable[MetricSample]) -> str:
    """The samples in Prometheus text exposition format."""
    lines: list[str] = []
    seen_headers: set[str] = set()
    for sample in samples:
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


# name, optional {label set} (greedy to the last brace: values may hold
# braces, the sample value cannot), whitespace, value
_SAMPLE_LINE = re.compile(
    r"([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?[ \t]+(\S+)"
)
_LABEL_PAIR = re.compile(
    r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"(?:,|$)'
)
_ESCAPED = re.compile(r"\\(.)")


def _unescape(escape: re.Match) -> str:
    char = escape.group(1)
    return "\n" if char == "n" else char


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
        sample = _SAMPLE_LINE.fullmatch(line)
        if sample is None:
            raise ObserverError(f"malformed sample line {raw!r}")
        name, body, value_text = sample.groups()
        body = body or ""
        labels = []
        position = 0
        while position < len(body):
            pair = _LABEL_PAIR.match(body, position)
            if pair is None:
                raise ObserverError(f"malformed label set in line {raw!r}")
            key, quoted = pair.groups()
            labels.append((key, _ESCAPED.sub(_unescape, quoted)))
            position = pair.end()
        try:
            value = float(value_text)
        except ValueError:
            raise ObserverError(
                f"unparseable sample value {value_text!r} in line {raw!r}"
            ) from None
        out[(name, tuple(sorted(labels)))] = value
    return out


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


def to_json(samples: Iterable[MetricSample], *, indent: int | None = None) -> str:
    """Canonical JSON export: sample-order independent, byte-stable.

    Samples sort by ``(name, labels)``; labels are sorted pairs; keys
    sort; separators are fixed, so two identical runs export identical
    bytes.
    """
    ordered = sorted(samples, key=lambda sample: (sample.name, sample.labels))
    payload = {"metrics": [_sample_payload(sample) for sample in ordered]}
    separators = (",", ": ") if indent else (",", ":")
    return json.dumps(
        payload, sort_keys=True, indent=indent, separators=separators
    )


def trace_rows_digest(rows: Iterable) -> str:
    """SHA-256 over completed trace rows (tick-domain, so run-stable)."""
    return sha256(
        json.dumps(list(rows), sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# the human-readable report
# ----------------------------------------------------------------------


def _fmt_rate(value: float) -> str:
    return f"{value * 100:.1f}%"


def render_report(runtime=None, *, engine=None) -> str:
    """Pretty-print a live runtime or a bare engine.

    Given a :class:`~repro.stream.runtime.StreamingDetectionRuntime`,
    its engine, admission controller and telemetry are picked up too
    (the stage residencies when the telemetry traces); ``engine=`` alone
    reports a bare :class:`~repro.detect.engine.DetectionEngine` /
    :class:`~repro.shard.engine.ShardedDetectionEngine`.
    """
    lines: list[str] = ["== repro.obs runtime report =="]

    if runtime is not None:
        engine = runtime.engine
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
        view = runtime.admission.metrics_view()
        lines.append(
            "admission: "
            + " ".join(f"{key}={value}" for key, value in view.items())
        )
        telemetry = runtime.telemetry
        if telemetry.enabled:
            lines.append(
                f"-- stage residency (ticks; trace_every="
                f"{telemetry.trace_every}, completed="
                f"{len(telemetry.completed_rows())}, in_flight="
                f"{telemetry.active_count}) --"
            )
            for stage, histogram in zip(STAGES, telemetry.residency):
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
            f"proven={stats.bindings_proven} "
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
        # Summed over shards: the per-shard split is in the machine export.
        rows: dict[str, dict[str, int]] = {}
        for sample in spec_samples(engine):
            row = rows.setdefault(dict(sample.labels)["spec"], {})
            row[sample.name] = row.get(sample.name, 0) + sample.value
        if rows:
            lines.append("-- per-spec --")
            lines.extend(
                f"{spec}: bindings={row['engine_spec_bindings_total']} "
                f"matches={row['engine_spec_matches_total']}"
                for spec, row in sorted(rows.items())
            )

    return "\n".join(lines)
