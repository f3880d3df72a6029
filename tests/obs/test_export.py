"""Exporter tests: Prometheus round-trip, canonical JSON, digests.

The Prometheus text output must survive a round trip through the
minimal line parser, the parser must refuse anything malformed with a
typed error, and the JSON export must be canonical — sorted keys,
stable label order, byte-stable whatever order the samples come in.
"""

from __future__ import annotations

import json

import pytest

from repro.core.errors import ObserverError
from repro.obs.export import (
    parse_prometheus,
    to_json,
    to_prometheus,
    trace_rows_digest,
)
from repro.obs.metrics import MetricSample
from repro.obs.tracing import Histogram


def _counter(name, value, help_text="", **labels) -> MetricSample:
    return MetricSample(
        name, "counter", help_text, tuple(sorted(labels.items())), value=value
    )


def _samples(order_swapped: bool = False) -> list[MetricSample]:
    """Samples of every kind, one family after another (or reversed)."""
    histogram = Histogram()
    for value in (0, 1, 3, 99):
        histogram.observe(value)
    samples = [
        _counter("events_total", 4, "Things that happened", source="s0"),
        _counter("events_total", 2, "Things that happened", source="s1"),
        MetricSample("peak", "gauge", "High-water mark", (), value=9),
        MetricSample(
            "lat_ticks", "histogram", "Latency", (),
            bounds=histogram.bounds, counts=tuple(histogram.counts),
            total=histogram.total, count=histogram.count,
        ),
    ]
    return samples[::-1] if order_swapped else samples


class TestPrometheusRoundTrip:
    def test_every_series_survives_the_parser(self):
        parsed = parse_prometheus(to_prometheus(_samples()))
        assert parsed[("events_total", (("source", "s0"),))] == 4
        assert parsed[("events_total", (("source", "s1"),))] == 2
        assert parsed[("peak", ())] == 9
        # Histogram: cumulative buckets, +Inf, sum and count.
        assert parsed[("lat_ticks_bucket", (("le", "1"),))] == 2
        assert parsed[("lat_ticks_bucket", (("le", "2"),))] == 2
        assert parsed[("lat_ticks_bucket", (("le", "4"),))] == 3
        assert parsed[("lat_ticks_bucket", (("le", "+Inf"),))] == 4
        assert parsed[("lat_ticks_sum", ())] == 103
        assert parsed[("lat_ticks_count", ())] == 4

    def test_headers_emitted_once_per_family(self):
        text = to_prometheus(_samples())
        assert text.count("# TYPE events_total counter") == 1
        assert text.count("# HELP events_total Things that happened") == 1
        assert text.count("# TYPE lat_ticks histogram") == 1

    def test_label_escaping_round_trips(self):
        tricky = 'quote " slash \\ newline \n done } {'
        text = to_prometheus([_counter("weird_total", 1, spec=tricky)])
        parsed = parse_prometheus(text)
        assert parsed[("weird_total", (("spec", tricky),))] == 1

    @pytest.mark.parametrize(
        "line",
        [
            "metric_total not-a-number",
            "metric_total{label=unquoted} 1",
            'm{a="1" 3',  # label set never closed
            "m{a} 3",  # label without a value
            'm{a="x',  # value never closed
            'm{="1"} 2',  # empty label name
            'm{a="1"b="2"} 3',  # pairs without a comma
            "m{} ",  # no value
        ],
    )
    def test_parser_rejects_malformed_lines(self, line):
        with pytest.raises(ObserverError):
            parse_prometheus(line)


class TestCanonicalJson:
    def test_sample_order_does_not_change_bytes(self):
        assert to_json(_samples()) == to_json(_samples(order_swapped=True))

    def test_keys_sorted_and_labels_ordered(self):
        payload = json.loads(to_json(_samples()))
        names = [entry["name"] for entry in payload["metrics"]]
        assert names == sorted(names)
        for entry in payload["metrics"]:
            assert list(entry) == sorted(entry)
            assert entry["labels"] == sorted(entry["labels"])


class TestTraceRowsDigest:
    def test_stable_and_content_sensitive(self):
        rows = [("s", 0, (("ADMISSION", 1, 1),))]
        assert trace_rows_digest(rows) == trace_rows_digest(list(rows))
        assert trace_rows_digest(rows) != trace_rows_digest(
            [("s", 1, (("ADMISSION", 1, 1),))]
        )
