"""Stage-level tracing: where an observation's ticks actually go.

The paper's Event Detection Latency is a per-instance number
(:attr:`~repro.core.instance.EventInstance.detection_latency`); it does
not say *where inside the runtime* a given observation spent its time.
Following the value-age argument of Kopetz & Steiner (arXiv
2409.19309) — temporal consistency is only assessable when the age of
every value is tracked through each processing stage — this module is
the measured side of that latency, and a :class:`StageTrace` records
**tick-domain** enter/exit stamps for each pipeline stage an
observation crosses:

``ADMISSION → REORDER → WATERMARK_HOLD → ENGINE → MERGE → EMIT``

* ``ADMISSION`` — arrival tick → the delivery step that cleared
  admission (non-zero residency = token-bucket deferral cost);
* ``REORDER`` — admission exit → the delivery step whose watermark
  released the item (reorder-buffer residency);
* ``WATERMARK_HOLD`` — the item's *event* tick → release step (the
  value's age when the watermark finally passed it — how long
  event-time order cost this observation beyond its occurrence);
* ``ENGINE`` / ``MERGE`` / ``EMIT`` — the release step itself (the
  engine evaluates, the shard merger arbitrates and matches emit
  within one step, so these spans are zero-width in the tick domain;
  they exist so the stage set is closed under future wall-clock
  tracers).

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
from typing import TYPE_CHECKING

from repro.core.errors import ObserverError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.stream.source import StreamItem

__all__ = [
    "DEFAULT_TICK_BUCKETS",
    "DEFAULT_TRACE_RING",
    "Histogram",
    "Stage",
    "StageTrace",
    "Telemetry",
    "TelemetrySnapshot",
]

DEFAULT_TRACE_RING = 256
"""Completed-trace ring capacity: old traces fall off, memory stays
bounded no matter how long the stream runs."""

DEFAULT_TICK_BUCKETS: tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64)
"""Residency-histogram upper bounds, in ticks (a final +Inf bucket is
implicit).  Fixed at creation: histograms never resize, so a
checkpoint's bucket counts always fit the histogram they restore into."""


class Histogram:
    """Fixed-bucket histogram with cumulative-``le`` export semantics.

    ``bounds`` are inclusive upper edges; one overflow (+Inf) bucket is
    appended.  ``counts`` are per-bucket (not cumulative); exporters
    cumulate on the way out.
    """

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_TICK_BUCKETS):
        ordered = tuple(bounds)
        if not ordered or list(ordered) != sorted(set(ordered)):
            raise ObserverError(
                f"histogram bounds must be non-empty and strictly "
                f"increasing: {bounds}"
            )
        self.bounds = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.total: int | float = 0
        self.count = 0

    def observe(self, value: int | float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def cumulative(self) -> tuple[int, ...]:
        """Cumulative counts per bound, +Inf last (Prometheus ``le``)."""
        running = 0
        out = []
        for bucket in self.counts:
            running += bucket
            out.append(running)
        return tuple(out)

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
    ENGINE = "ENGINE"
    MERGE = "MERGE"
    EMIT = "EMIT"


STAGES: tuple[Stage, ...] = tuple(Stage)

# Stamps live in one flat list, two slots per stage (enter, exit), in
# STAGES order — a single allocation per trace and plain integer
# indexing on the hot path instead of per-stage dict hashing.
_STAGE_SLOT: dict[Stage, int] = {
    stage: 2 * index for index, stage in enumerate(STAGES)
}
_STAGE_VALUES: tuple[str, ...] = tuple(stage.value for stage in STAGES)
_SLOT_COUNT = 2 * len(STAGES)
_ADMISSION_ENTER = _STAGE_SLOT[Stage.ADMISSION]
_REORDER_ENTER = _STAGE_SLOT[Stage.REORDER]
_REORDER_EXIT = _REORDER_ENTER + 1
_HOLD_ENTER = _STAGE_SLOT[Stage.WATERMARK_HOLD]
_ENGINE_ENTER = _STAGE_SLOT[Stage.ENGINE]

TraceRow = tuple[str, int, tuple[tuple[str, int | None, int | None], ...]]


class StageTrace:
    """Tick-domain enter/exit stamps of one sampled observation."""

    __slots__ = ("source", "seq", "_stamps")

    def __init__(self, source: str, seq: int):
        self.source = source
        self.seq = seq
        self._stamps: list[int | None] = [None] * _SLOT_COUNT

    @property
    def key(self) -> tuple[str, int]:
        return (self.source, self.seq)

    def enter(self, stage: Stage, tick: int) -> None:
        self._stamps[_STAGE_SLOT[stage]] = tick

    def exit(self, stage: Stage, tick: int) -> None:
        self._stamps[_STAGE_SLOT[stage] + 1] = tick

    def span(self, stage: Stage) -> tuple[int | None, int | None]:
        slot = _STAGE_SLOT[stage]
        return (self._stamps[slot], self._stamps[slot + 1])

    def residency(self, stage: Stage) -> int | None:
        """Ticks spent in a stage (``None`` until both stamps exist)."""
        enter, exit_ = self.span(stage)
        if enter is None or exit_ is None:
            return None
        return exit_ - enter

    def stamp_admitted(self, arrival_tick: int, now: int | None) -> None:
        """Fused admission stamps: ADMISSION spans arrival → the clearing
        step ``now`` (non-zero = deferral cost; no step clock yet = the
        arrival) and REORDER opens as the item reaches the buffer."""
        stamps = self._stamps
        stamps[_ADMISSION_ENTER] = arrival_tick
        now = arrival_tick if now is None else now
        stamps[_ADMISSION_ENTER + 1] = stamps[_REORDER_ENTER] = now

    def stamp_released(self, event_tick: int, now: int) -> None:
        """Fused release stamps: REORDER closes at the releasing step,
        WATERMARK_HOLD spans the value's age (event tick → release),
        and ENGINE/MERGE/EMIT are zero-width at the release step."""
        stamps = self._stamps
        stamps[_REORDER_EXIT] = now
        stamps[_HOLD_ENTER] = event_tick
        stamps[_HOLD_ENTER + 1] = now
        stamps[_ENGINE_ENTER:] = (now,) * (_SLOT_COUNT - _ENGINE_ENTER)

    def as_row(self) -> TraceRow:
        """Canonical immutable row: every stage in order, unset = None."""
        stamps = self._stamps
        return (
            self.source,
            self.seq,
            tuple(
                (_STAGE_VALUES[index], stamps[2 * index], stamps[2 * index + 1])
                for index in range(len(STAGES))
            ),
        )

    @classmethod
    def from_row(cls, row: TraceRow) -> "StageTrace":
        trace = cls(row[0], row[1])
        for stage_name, enter, exit_ in row[2]:
            stage = Stage(stage_name)
            if enter is not None:
                trace.enter(stage, enter)
            if exit_ is not None:
                trace.exit(stage, exit_)
        return trace


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Exact telemetry state: sampling cursor, in-flight and completed
    traces, the residency histograms and trace tallies, and the clock."""

    trace_every: int
    ring: int
    offered: int
    active: tuple[TraceRow, ...]
    completed: tuple[TraceRow, ...]
    residency: tuple[tuple[tuple[int, ...], int | float, int], ...]
    """Per stage, in :data:`STAGES` order: ``(counts, total, count)``."""
    sampled: int
    finished: int
    discarded: tuple[tuple[str, int], ...]
    now: int | None


class Telemetry:
    """Sampled stage tracing plus a monotone step clock for one pipeline.

    Handed to :class:`~repro.stream.runtime.StreamingDetectionRuntime`
    as a single optional object, so the disabled configuration is
    literally ``None`` and costs one identity check per instrumentation
    point.  It keeps only what nothing else in the pipeline owns: the
    traces, their per-stage residency histograms and the trace tallies
    (:attr:`sampled`, :attr:`finished`, :attr:`discarded` by reason).
    Every other exported series is read from its owner when asked
    (:func:`repro.obs.metrics.collect`).

    Args:
        trace_every: Sample every k-th admitted observation (``1`` =
            all, ``0`` = disabled — the default, costing one integer
            check per observation).
        ring: Completed-trace ring-buffer capacity.
    """

    __slots__ = (
        "trace_every",
        "ring",
        "now",
        "residency",
        "sampled",
        "finished",
        "discarded",
        "_offered",
        "_active",
        "_completed",
    )

    def __init__(self, *, trace_every: int = 0, ring: int = DEFAULT_TRACE_RING):
        if type(trace_every) is not int or trace_every < 0:
            raise ObserverError(
                f"trace_every cannot be negative or a non-int: {trace_every!r}"
            )
        if type(ring) is not int or ring < 1:
            raise ObserverError(
                f"trace ring must be an int holding at least 1: {ring!r}"
            )
        self.trace_every = trace_every
        self.ring = ring
        self.now: int | None = None
        self.residency = tuple(Histogram() for _ in STAGES)
        """One residency histogram per stage, in :data:`STAGES` order."""
        self.sampled = 0
        """Observations picked for tracing."""
        self.finished = 0
        """Traces that reached EMIT."""
        self.discarded: dict[str, int] = {}
        """Sampled observations that left the pipeline before EMIT, by
        reason (shed, evicted, late)."""
        self._offered = 0
        self._active: dict[tuple[str, int], StageTrace] = {}
        self._completed: deque[StageTrace] = deque(maxlen=ring)

    @classmethod
    def create(
        cls, *, trace_every: int = 0, ring: int = DEFAULT_TRACE_RING
    ) -> "Telemetry":
        """The constructor under the name existing callers use."""
        return cls(trace_every=trace_every, ring=ring)

    @property
    def enabled(self) -> bool:
        return self.trace_every > 0

    @property
    def active_count(self) -> int:
        return len(self._active)

    def completed_rows(self) -> tuple[TraceRow, ...]:
        """The ring buffer's completed traces, oldest first.

        Rows materialize here, not on the hot path: retired traces sit
        in the ring as-is and only the survivors (at most ``ring``)
        ever pay row construction.
        """
        return tuple(trace.as_row() for trace in self._completed)

    def observe_step(self, tick: int) -> None:
        """Advance the monotone step clock (stage stamps read it)."""
        if self.now is None or tick > self.now:
            self.now = tick

    # -- the sampling hot path -----------------------------------------

    def admit(self, item: "StreamItem") -> StageTrace | None:
        """Sampling decision for one admitted observation.

        Disabled telemetry returns after a single integer check;
        sampling telemetry counts every observation (the deterministic
        cursor) and opens a :class:`StageTrace` for each k-th one,
        stamped admitted at the step clock.
        """
        every = self.trace_every
        if not every:
            return None
        offered = self._offered
        self._offered = offered + 1
        if offered % every:
            return None
        trace = StageTrace(item.source, item.seq)
        trace.stamp_admitted(item.arrival_tick, self.now)
        self._active[trace.key] = trace
        self.sampled += 1
        return trace

    def lookup(self, source: str, seq: int) -> StageTrace | None:
        """The in-flight trace of ``(source, seq)``, if it was sampled."""
        return self._active.get((source, seq))

    def discard(self, trace: StageTrace, reason: str) -> None:
        """Drop an in-flight trace whose observation left the pipeline
        (shed, evicted, late) — counted per reason, never silently."""
        self._active.pop(trace.key, None)
        self.discarded[reason] = self.discarded.get(reason, 0) + 1

    def complete(self, trace: StageTrace) -> None:
        """Retire a trace at EMIT: feed histograms, append to the ring."""
        self._active.pop((trace.source, trace.seq), None)
        stamps = trace._stamps
        for index, histogram in enumerate(self.residency):
            enter = stamps[2 * index]
            exit_ = stamps[2 * index + 1]
            if enter is not None and exit_ is not None:
                histogram.observe(exit_ - enter)
        self._completed.append(trace)
        self.finished += 1

    # -- checkpoint / restore ------------------------------------------

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot(
            trace_every=self.trace_every,
            ring=self.ring,
            offered=self._offered,
            active=tuple(
                trace.as_row() for trace in self._active.values()
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

    def restore(self, snapshot: TelemetrySnapshot) -> None:
        """Reinstall the exact telemetry state.

        The sampling configuration must match — restoring a
        ``trace_every=4`` checkpoint into a ``trace_every=1`` tracer
        would silently change which observations get sampled mid-stream,
        the same class of bug the watermark's lateness check rejects.
        A refused snapshot changes nothing.
        """
        if snapshot.trace_every != self.trace_every:
            raise ObserverError(
                f"checkpoint was traced with trace_every="
                f"{snapshot.trace_every} but this tracer uses "
                f"{self.trace_every}; restoring would change sampling "
                f"mid-stream"
            )
        if snapshot.ring != self.ring:
            raise ObserverError(
                f"checkpoint ring capacity {snapshot.ring} differs from "
                f"this tracer's {self.ring}"
            )
        self._offered = snapshot.offered
        self._active = {
            (row[0], row[1]): StageTrace.from_row(row)
            for row in snapshot.active
        }
        self._completed = deque(
            (StageTrace.from_row(row) for row in snapshot.completed),
            maxlen=self.ring,
        )
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
