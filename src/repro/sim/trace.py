"""Simulation tracing, record/replay serialization and summary statistics.

Every CPS component can publish :class:`TraceRecord` rows to a shared
:class:`TraceRecorder`; the benchmark harness and the EDL analysis read
them back with simple filters.  Records are plain data (tick, category,
source, payload) so traces can be asserted on in tests and dumped for
inspection without any custom tooling.

Record/replay: :func:`to_jsonl` serializes records to a *canonical* JSON
Lines form (sorted keys, compact separators, shortest-roundtrip floats,
enums by qualified name, exotic objects by ``repr``) and
:func:`from_jsonl` loads them back as :class:`TraceRecord` rows (payload
values come back as plain JSON types).  Because the form is canonical,
equal traces serialize to identical bytes, which makes
:func:`trace_digest` — a SHA-256 over the serialized lines — a stable
fingerprint of a run: the golden-trace conformance suite pins scenario
behavior on these digests, and the determinism regression asserts two
same-seed runs produce byte-identical ones.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

__all__ = [
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


@dataclass(slots=True)
class TraceRecord:
    """One traced occurrence inside the simulation.

    Each :class:`TraceRecorder` read builds its records, ``payload`` dict
    included, fresh from the stored rows.  Read them, do not write them.
    """

    tick: int
    category: str
    source: str
    payload: Mapping[str, object] = field(default_factory=dict)

    def value(self, key: str, default: object = None) -> object:
        """One payload field."""
        return self.payload.get(key, default)


def _record(row: tuple) -> TraceRecord:
    return TraceRecord(row[0], row[1], row[2], dict(zip(row[3], row[4:])))


class TraceRecorder:
    """Append-only in-memory trace with category filters.

    A run keeps every row, so a row is one plain tuple ``(tick, category,
    source, names, *values)`` — the payload's keys (one shared tuple per
    payload shape), then its values — which the cyclic collector stops
    tracking once it holds only strings and numbers.  Reads build a
    :class:`TraceRecord` for the rows they return only.
    """

    def __init__(self):
        self._rows: list[tuple] = []
        self._shapes: dict[tuple, tuple] = {}

    def append(
        self, tick: int, category: str, source: str, payload: Mapping[str, object]
    ) -> None:
        """Append one row; the row keeps ``payload``'s keys and values,
        never the mapping itself."""
        names = tuple(payload)
        names = self._shapes.setdefault(names, names)
        self._rows.append((tick, category, source, names, *payload.values()))

    def record(self, tick: int, category: str, source: str, **payload: object) -> None:
        """:meth:`append` with the payload spelt as keywords."""
        self.append(tick, category, source, payload)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(_record, self._rows)

    def by_category(self, category: str) -> list[TraceRecord]:
        """All records with the given category, in time order."""
        return [_record(r) for r in self._rows if r[1] == category]

    def count(self, category: str | None = None) -> int:
        """Number of records (optionally of one category)."""
        if category is None:
            return len(self._rows)
        return sum(1 for r in self._rows if r[1] == category)

    def filtered(self, categories: Iterable[str]) -> list[TraceRecord]:
        """All records whose category is in ``categories``, in time order."""
        wanted = frozenset(categories)
        return [_record(r) for r in self._rows if r[1] in wanted]

    def clear(self) -> None:
        """Drop all records."""
        self._rows.clear()

    def replay(self, records: Iterable[TraceRecord]) -> None:
        """Append pre-built records (a loaded trace).

        Lets trace consumers (analysis, summaries) run against a trace
        saved by :func:`to_jsonl` exactly as they would against a live
        run.
        """
        for rec in records:
            self.append(rec.tick, rec.category, rec.source, rec.payload)

    def to_jsonl(self, categories: Iterable[str] | None = None) -> str:
        """Canonical JSON Lines serialization of the (filtered) trace."""
        return to_jsonl(self if categories is None else self.filtered(categories))

    def digest(self, categories: Iterable[str] | None = None) -> str:
        """Stable SHA-256 fingerprint of the (filtered) trace."""
        return trace_digest(self if categories is None else self.filtered(categories))


# ----------------------------------------------------------------------
# canonical serialization and digesting
# ----------------------------------------------------------------------

def canonical_payload(value: object) -> object:
    """Reduce a payload value to a JSON-able canonical form.

    JSON scalars pass through; mappings canonicalize recursively with
    string keys; sequences become lists; enums serialize as
    ``ClassName.MEMBER``; anything else falls back to ``repr``.  A repr
    carrying a memory address (the ``object.__repr__`` default) is
    rejected loudly: it would differ every process and silently break
    the golden-digest contract, so the offending payload is named in a
    :class:`ValueError` instead.  Non-finite floats become their string
    names so the output stays strict JSON.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, Mapping):
        return {str(k): canonical_payload(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical_payload(v) for v in value]
    if isinstance(value, (set, frozenset)):
        # Sets have no stable iteration order; canonicalize then sort
        # on the serialized form.
        members = [canonical_payload(v) for v in value]
        return sorted(members, key=lambda m: json.dumps(m, sort_keys=True))
    text = repr(value)
    if type(value).__repr__ is object.__repr__ or " at 0x" in text:
        raise ValueError(
            f"payload value {text} of type {type(value).__name__} has no "
            "deterministic repr; trace digests would differ per process"
        )
    return text


def record_to_json(record: TraceRecord) -> str:
    """One record as a canonical single-line JSON object."""
    return json.dumps(
        {
            "tick": record.tick,
            "category": record.category,
            "source": record.source,
            "payload": canonical_payload(record.payload),
        },
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def to_jsonl(records: Iterable[TraceRecord]) -> str:
    """Records as canonical JSON Lines (one record per line)."""
    return "\n".join(record_to_json(r) for r in records)


def from_jsonl(text: str) -> list[TraceRecord]:
    """Load records serialized by :func:`to_jsonl`.

    Payload values come back as the JSON types they canonicalized to
    (reprs stay strings); tick/category/source round-trip exactly, so
    ``to_jsonl(from_jsonl(text)) == text``.
    """
    records: list[TraceRecord] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        records.append(
            TraceRecord(
                tick=row["tick"],
                category=row["category"],
                source=row["source"],
                payload=row.get("payload", {}),
            )
        )
    return records


def trace_digest(records: Iterable[TraceRecord]) -> str:
    """SHA-256 hex digest of the canonical serialization of ``records``.

    Equal traces — same records in the same order — always digest
    identically, across processes and Python versions; any behavioral
    drift (a shifted tick, a changed confidence, a missing emission)
    changes the digest.
    """
    hasher = hashlib.sha256()
    for record in records:
        hasher.update(record_to_json(record).encode("ascii"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    if len(data) == 1:
        return data[0]
    rank = (len(data) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return data[low]
    frac = rank - low
    return data[low] * (1 - frac) + data[high] * frac


def summarize(values: Iterable[float]) -> dict[str, float]:
    """Mean / min / max / p50 / p95 / p99 summary of a sample."""
    data = sorted(values)
    if not data:
        return {"count": 0.0}
    return {
        "count": float(len(data)),
        "mean": sum(data) / len(data),
        "min": data[0],
        "max": data[-1],
        "p50": percentile(data, 50),
        "p95": percentile(data, 95),
        "p99": percentile(data, 99),
    }
