"""Unit tests for trace recording, serialization and summary statistics."""

import enum
import json

import pytest

from repro.sim.trace import (
    TraceRecord,
    TraceRecorder,
    canonical_payload,
    from_jsonl,
    percentile,
    record_to_json,
    summarize,
    to_jsonl,
    trace_digest,
)


class TestTraceRecorder:
    def test_record_and_filter(self):
        trace = TraceRecorder()
        trace.record(1, "sample", "MT1", value=20.0)
        trace.record(2, "sample", "MT2", value=21.0)
        trace.record(3, "deliver", "MT1", latency=4)
        assert len(trace) == 3
        assert [r.tick for r in trace.by_category("sample")] == [1, 2]

    def test_count(self):
        trace = TraceRecorder()
        trace.record(1, "a", "x")
        trace.record(2, "a", "x")
        trace.record(3, "b", "x")
        assert trace.count() == 3
        assert trace.count("a") == 2
        trace.clear()
        assert len(trace) == trace.count() == 0 and list(trace) == []

    def test_payload_access(self):
        trace = TraceRecorder()
        assert trace.record(1, "sample", "MT1", value=20.0) is None
        (rec,) = trace
        assert rec.value("value") == 20.0
        assert rec.value("missing", -1) == -1
        # Each read builds its own record from the stored row: equal, and
        # writing to one changes neither the row nor the next read.
        (again,) = trace.by_category("sample")
        assert again == rec and again is not rec and again.payload is not rec.payload
        rec.payload["value"] = 0.0
        assert list(trace)[0].value("value") == 20.0
        # The row keeps no dict: not the keyword dict, not a copy.
        assert not any(isinstance(part, dict) for part in trace._rows[0])


class _Color(enum.Enum):
    RED = 1
    BLUE = 2


def _sample_records():
    return [
        TraceRecord(1, "sample", "MT1", {"value": 20.5, "sensor": "SRt"}),
        TraceRecord(2, "emit", "MT1", {"layer": _Color.RED, "nested": {"b": 2, "a": 1}}),
        TraceRecord(3, "deliver", "MT2", {"hops": [1, 2, 3], "ok": True}),
    ]


class TestCanonicalization:
    def test_scalars_pass_through(self):
        assert canonical_payload(None) is None
        assert canonical_payload(7) == 7
        assert canonical_payload(2.5) == 2.5
        assert canonical_payload("x") == "x"
        assert canonical_payload(True) is True

    def test_non_finite_floats_stringified(self):
        assert canonical_payload(float("inf")) == "inf"
        assert canonical_payload(float("nan")) == "nan"

    def test_enum_by_qualified_name(self):
        assert canonical_payload(_Color.RED) == "_Color.RED"

    def test_mapping_and_sequences(self):
        assert canonical_payload({"b": (1, 2), "a": [3]}) == {"b": [1, 2], "a": [3]}

    def test_sets_sorted(self):
        assert canonical_payload({3, 1, 2}) == [1, 2, 3]
        assert canonical_payload(frozenset({"b", "a"})) == ["a", "b"]

    def test_exotic_objects_fall_back_to_repr(self):
        from repro.core.space_model import PointLocation

        assert canonical_payload(PointLocation(1.0, 2.0)) == "(1, 2)"

    def test_address_bearing_reprs_rejected(self):
        class Opaque:
            pass

        with pytest.raises(ValueError, match="deterministic repr"):
            canonical_payload(Opaque())
        with pytest.raises(ValueError, match="deterministic repr"):
            canonical_payload(lambda: None)  # function reprs carry 0x addresses

    def test_record_json_is_strict_and_sorted(self):
        line = record_to_json(_sample_records()[1])
        row = json.loads(line)
        assert row["payload"]["nested"] == {"a": 1, "b": 2}
        assert list(row) == sorted(row)  # canonical key order


class TestJsonlRoundTrip:
    def test_round_trip_identity(self):
        text = to_jsonl(_sample_records())
        assert to_jsonl(from_jsonl(text)) == text

    def test_loaded_records_preserve_identity_fields(self):
        loaded = from_jsonl(to_jsonl(_sample_records()))
        assert [(r.tick, r.category, r.source) for r in loaded] == [
            (1, "sample", "MT1"),
            (2, "emit", "MT1"),
            (3, "deliver", "MT2"),
        ]
        assert loaded[0].value("value") == 20.5

    def test_blank_lines_ignored(self):
        text = to_jsonl(_sample_records())
        assert from_jsonl(text + "\n\n") == from_jsonl(text)


class TestTraceDigest:
    def test_equal_traces_digest_equal(self):
        assert trace_digest(_sample_records()) == trace_digest(_sample_records())

    def test_digest_sensitive_to_any_field(self):
        base = _sample_records()
        digests = {trace_digest(base)}
        shifted = [TraceRecord(r.tick + 1, r.category, r.source, r.payload) for r in base]
        digests.add(trace_digest(shifted))
        renamed = base[:-1] + [TraceRecord(3, "dropped", "MT2", base[-1].payload)]
        digests.add(trace_digest(renamed))
        reordered = [base[1], base[0], base[2]]
        digests.add(trace_digest(reordered))
        assert len(digests) == 4

    def test_recorder_digest_matches_function(self):
        trace = TraceRecorder()
        trace.replay(_sample_records())
        assert trace.digest() == trace_digest(_sample_records())
        assert trace.digest(categories={"emit"}) == trace_digest(
            [_sample_records()[1]]
        )

    def test_filtered_preserves_order(self):
        trace = TraceRecorder()
        trace.replay(_sample_records())
        assert [r.category for r in trace.filtered({"sample", "deliver"})] == [
            "sample",
            "deliver",
        ]


class TestPercentile:
    def test_median_and_extremes(self):
        data = [1, 2, 3, 4, 5]
        assert percentile(data, 50) == 3
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 5

    def test_interpolation(self):
        assert percentile([0, 10], 25) == pytest.approx(2.5)

    def test_single_value(self):
        assert percentile([7], 95) == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 150)


class TestSummarize:
    def test_summary_fields(self):
        summary = summarize(range(1, 101))
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(50.5)
        assert summary["min"] == 1
        assert summary["max"] == 100
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p95"] == pytest.approx(95.05)

    def test_empty(self):
        assert summarize([]) == {"count": 0.0}
