"""Stage-level tracing: where an observation's ticks actually go.

The paper's Event Detection Latency is a per-instance number
(:attr:`~repro.core.instance.EventInstance.detection_latency`); it does
not say *where inside the runtime* a given observation spent its time.
Following the value-age argument of Kopetz & Steiner (arXiv
2409.19309) — temporal consistency is only assessable when the age of
every value is tracked through each processing stage — this module is
the measured side of that latency.  A trace is four **tick-domain**
stamps of one sampled observation — its arrival tick, the step it
cleared admission at, its event tick and the step that released it —
and they fix the three stages it crosses:

``ADMISSION → REORDER → WATERMARK_HOLD``

* ``ADMISSION`` — arrival tick → the delivery step that cleared
  admission (non-zero residency = token-bucket deferral cost);
* ``REORDER`` — admitted → the delivery step whose watermark released
  the item (reorder-buffer residency);
* ``WATERMARK_HOLD`` — the item's *event* tick → release step (the
  value's age when the watermark finally passed it — how long
  event-time order cost this observation beyond its occurrence).

The engine evaluates, the shard merger arbitrates and matches emit
within the releasing step, so a trace closes at release
(:meth:`Telemetry.release`).

Stamps are **ticks, never wall clocks**, and the tracer draws no
randomness: enabling tracing cannot perturb a golden digest, and two
identical runs produce byte-identical trace rows (pinned by the
conformance harness and :func:`repro.obs.export.trace_rows_digest`).

Cost discipline: traces are sampled by ``trace_every=k`` — every k-th
observation admitted to the stream is traced (``k=1`` traces all,
``0``/default disables tracing).  When disabled,
:meth:`Telemetry.admit` is a single integer truthiness check; when
sampling, untraced observations additionally pay one counter increment
and one modulo.  Completed traces land in a bounded ring buffer and
feed the per-stage residency histograms the :class:`Telemetry` owns —
the one piece of telemetry state no other part of the pipeline keeps.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable

from repro.core.checkpoint import (
    CONFIG,
    COUNT,
    NAME,
    NUMBER,
    TICK_OR_NONE,
    TICK,
    Domain,
    Restorable,
    check,
    declared,
    is_count,
    shaped,
    tuple_of,
)
from repro.core.errors import ObserverError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.stream.source import StreamItem

__all__ = [
    "DEFAULT_TICK_BUCKETS",
    "TRACE_RING",
    "Histogram",
    "Stage",
    "Telemetry",
    "TelemetrySnapshot",
]

TRACE_RING = 256
"""Completed-trace ring capacity: old traces fall off, memory stays
bounded no matter how long the stream runs."""

DEFAULT_TICK_BUCKETS: tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64)
"""Residency-histogram upper bounds, in ticks (a final +Inf bucket is
implicit).  Every histogram has these: they never resize, so a
checkpoint's bucket counts always fit the histogram they restore into."""


class Histogram:
    """Fixed-bucket histogram with cumulative-``le`` export semantics.

    ``bounds`` (:data:`DEFAULT_TICK_BUCKETS`) are inclusive upper edges;
    one overflow (+Inf) bucket is appended.  ``counts`` are per-bucket
    (not cumulative); exporters cumulate on the way out.
    """

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self) -> None:
        self.bounds = DEFAULT_TICK_BUCKETS
        self.counts = [0] * (len(DEFAULT_TICK_BUCKETS) + 1)
        self.total: int | float = 0
        self.count = 0

    def observe(self, value: int | float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile.

        A bucketed estimate (exact only up to bucket resolution), which
        is what the report CLI prints as p50/p95/p99.  Empty histogram
        reports ``0.0``.
        """
        if not 0 <= q <= 1:
            raise ObserverError(f"quantile must be in [0, 1]: {q}")
        if not self.count:
            return 0.0
        rank = q * self.count
        running = 0
        for bound, bucket in zip(self.bounds, self.counts):
            running += bucket
            if running >= rank:
                return float(bound)
        return float("inf")


class Stage(Enum):
    """Pipeline stages a traced observation crosses, in order."""

    ADMISSION = "ADMISSION"
    REORDER = "REORDER"
    WATERMARK_HOLD = "WATERMARK_HOLD"


STAGES: tuple[Stage, ...] = tuple(Stage)

TraceRow = tuple[str, int, tuple[tuple[str, int, int], ...]]
"""``(source, seq, ((stage, enter, exit), ...))``, one triple per stage
in :data:`STAGES` order."""

_ACTIVE_ROWS = tuple_of(
    shaped(
        NAME, COUNT, TICK, TICK, text="a (source, seq, arrival, admitted) row"
    )
)


def _span(stage: Stage) -> Domain:
    """``(stage name, enter tick, exit tick)`` of one named stage."""
    name = stage.value
    return shaped(Domain(repr(name), lambda v: v == name), TICK, TICK)


_TRACE_ROWS = tuple_of(
    shaped(
        NAME,
        COUNT,
        shaped(*map(_span, STAGES)),
        text="a (source, seq, stage spans) row",
    )
)
_HISTOGRAM = shaped(
    shaped(*[COUNT] * (len(DEFAULT_TICK_BUCKETS) + 1)),
    Domain("a total >= 0", lambda total: NUMBER.test(total) and total >= 0),
    COUNT,
    text="a (bucket counts, total, count) histogram",
)


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Exact telemetry state: sampling cursor, in-flight and completed
    traces, the residency histograms and trace tallies, and the clock."""

    trace_every: int = declared(CONFIG)
    offered: int = declared(COUNT)
    active: tuple[tuple[str, int, int, int], ...] = declared(_ACTIVE_ROWS)
    """In flight, in admission order: ``(source, seq, arrival,
    admitted)``."""
    completed: tuple[TraceRow, ...] = declared(_TRACE_ROWS)
    residency: tuple[tuple[tuple[int, ...], int | float, int], ...] = declared(
        shaped(*[_HISTOGRAM] * len(STAGES), text="one histogram per stage")
    )
    """Per stage, in :data:`STAGES` order: ``(counts, total, count)``."""
    sampled: int = declared(COUNT)
    finished: int = declared(COUNT)
    discarded: tuple[tuple[str, int], ...] = declared(
        tuple_of(shaped(NAME, COUNT))
    )
    now: int | None = declared(TICK_OR_NONE)


class Telemetry(Restorable):
    """Sampled stage tracing plus a monotone step clock for one pipeline.

    Every :class:`~repro.stream.runtime.StreamingDetectionRuntime`
    holds one; the disabled configuration is ``trace_every=0`` (what the
    runtime builds when given ``None``), and it costs one integer check
    per instrumentation point.  It keeps only what nothing else in the
    pipeline owns: the
    traces, their per-stage residency histograms and the trace tallies
    (:attr:`sampled`, :attr:`finished`, :attr:`discarded` by reason).
    Every other exported series is read from its owner when asked
    (:func:`repro.obs.metrics.collect`).

    Args:
        trace_every: Sample every k-th admitted observation (``1`` =
            all, ``0`` = disabled, costing one integer check per
            observation).  Completed traces keep the newest
            :data:`TRACE_RING`.
    """

    __slots__ = (
        "trace_every",
        "now",
        "residency",
        "sampled",
        "finished",
        "discarded",
        "_offered",
        "_active",
        "_completed",
    )

    def __init__(self, *, trace_every: int):
        if not is_count(trace_every):
            raise ObserverError(
                f"trace_every cannot be negative or a non-int: {trace_every!r}"
            )
        self.trace_every = trace_every
        self.now: int | None = None
        self.residency = tuple(Histogram() for _ in STAGES)
        """One residency histogram per stage, in :data:`STAGES` order."""
        self.sampled = 0
        """Observations picked for tracing."""
        self.finished = 0
        """Traces closed at release."""
        self.discarded: dict[str, int] = {}
        """Sampled observations that left the pipeline before release,
        by reason (shed, evicted, late)."""
        self._offered = 0
        self._active: dict[tuple[str, int], tuple[int, int]] = {}
        self._completed: deque[TraceRow] = deque(maxlen=TRACE_RING)

    @classmethod
    def create(cls, *, trace_every: int = 0) -> "Telemetry":
        """The constructor under the name existing callers use
        (``trace_every`` defaults to 0: tracing off)."""
        return cls(trace_every=trace_every)

    @property
    def enabled(self) -> bool:
        return self.trace_every > 0

    @property
    def active_count(self) -> int:
        return len(self._active)

    def completed_rows(self) -> tuple[TraceRow, ...]:
        """The ring buffer's completed traces, oldest first."""
        return tuple(self._completed)

    def observe_step(self, tick: int) -> None:
        """Advance the monotone step clock (admission and release read
        it)."""
        if self.now is None or tick > self.now:
            self.now = tick

    # -- the sampling hot path -----------------------------------------

    def admit(self, item: "StreamItem") -> None:
        """Sampling decision for one admitted observation.

        Disabled telemetry returns after a single integer check;
        sampling telemetry counts every observation (the deterministic
        cursor) and opens a trace for each k-th one: its arrival tick
        and the step clock it cleared admission at (the arrival, before
        the first step).
        """
        every = self.trace_every
        if not every:
            return
        offered = self._offered
        self._offered = offered + 1
        if offered % every:
            return
        arrival, now = item.arrival_tick, self.now
        self._active[(item.source, item.seq)] = (
            arrival,
            arrival if now is None else now,
        )
        self.sampled += 1

    def lost(self, items: Iterable["StreamItem"], reason: str) -> None:
        """Retire the in-flight traces of observations that left the
        pipeline before release (shed, evicted, late) — each counted
        under ``reason``, never silently.  An unsampled item has no
        trace to retire, and with tracing off this returns at once."""
        if not self.trace_every:
            return
        for item in items:
            if self._active.pop((item.source, item.seq), None) is not None:
                self.discarded[reason] = self.discarded.get(reason, 0) + 1

    def release(self, items: Iterable["StreamItem"]) -> None:
        """Close the sampled traces of one released tick group.

        Each span is a difference of the trace's four ticks: ADMISSION
        is arrival → admitted, REORDER admitted → released and
        WATERMARK_HOLD the item's event tick → released, where released
        is the step clock (the event tick, before the first step).  The
        spans feed the residency histograms and the row joins the ring.
        """
        active = self._active
        now = self.now
        admission, reorder, hold = self.residency
        for item in items:
            stamps = active.pop((item.source, item.seq), None)
            if stamps is None:
                continue
            arrival, admitted = stamps
            event = item.event_tick
            released = event if now is None else now
            admission.observe(admitted - arrival)
            reorder.observe(released - admitted)
            hold.observe(released - event)
            self._completed.append(
                (
                    item.source,
                    item.seq,
                    (
                        ("ADMISSION", arrival, admitted),
                        ("REORDER", admitted, released),
                        ("WATERMARK_HOLD", event, released),
                    ),
                )
            )
            self.finished += 1

    # -- checkpoint / restore ------------------------------------------

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot(
            trace_every=self.trace_every,
            offered=self._offered,
            active=tuple(
                (source, seq, arrival, admitted)
                for (source, seq), (arrival, admitted) in self._active.items()
            ),
            completed=self.completed_rows(),
            residency=tuple(
                (tuple(h.counts), h.total, h.count) for h in self.residency
            ),
            sampled=self.sampled,
            finished=self.finished,
            discarded=tuple(self.discarded.items()),
            now=self.now,
        )

    def ensure_restorable(self, snapshot: TelemetrySnapshot) -> None:
        """Refuse a snapshot traced under another ``trace_every``:
        restoring it would change which observations get sampled."""
        check(snapshot, TelemetrySnapshot, trace_every=self.trace_every)

    def install(self, snapshot: TelemetrySnapshot) -> None:
        """Reinstall the exact state of an accepted snapshot."""
        self._offered = snapshot.offered
        self._active = {
            (source, seq): (arrival, admitted)
            for source, seq, arrival, admitted in snapshot.active
        }
        self._completed = deque(snapshot.completed, maxlen=TRACE_RING)
        for histogram, (counts, total, count) in zip(
            self.residency, snapshot.residency
        ):
            histogram.counts = list(counts)
            histogram.total = total
            histogram.count = count
        self.sampled = snapshot.sampled
        self.finished = snapshot.finished
        self.discarded = dict(snapshot.discarded)
        self.now = snapshot.now
