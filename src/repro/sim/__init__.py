"""Discrete-event simulation substrate (kernel, RNG streams, tracing)."""

from repro.sim.kernel import (
    PRIORITY_DEFAULT,
    PRIORITY_NETWORK,
    Simulator,
)
from repro.sim.rng import RngStreams
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

__all__ = [
    "Simulator",
    "PRIORITY_NETWORK",
    "PRIORITY_DEFAULT",
    "RngStreams",
    "TraceRecord",
    "TraceRecorder",
    "canonical_payload",
    "record_to_json",
    "to_jsonl",
    "from_jsonl",
    "trace_digest",
    "summarize",
    "percentile",
]
