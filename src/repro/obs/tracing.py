"""Stage-level tracing: where an observation's ticks actually go.

The paper's Event Detection Latency is measured at the instance layer
(:mod:`repro.detect.latency`); nothing there says *where inside the
runtime* a given observation spent its time.  Following the
value-age argument of Kopetz & Steiner (arXiv 2409.19309) — temporal
consistency is only assessable when the age of every value is tracked
through each processing stage — a :class:`StageTrace` records
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
obs-conformance suite and :func:`repro.obs.export.trace_rows_digest`).

Cost discipline: traces are sampled by ``trace_every=k`` — every k-th
observation admitted to the stream is traced (``k=1`` traces all,
``0``/default disables tracing).  When disabled,
:meth:`PipelineTracer.admit` is a single integer truthiness check; when
sampling, untraced observations additionally pay one counter increment
and one modulo.  Completed traces land in a bounded ring buffer and
feed per-stage residency histograms in the registry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from repro.core.errors import ObserverError
from repro.obs.registry import MetricsRegistry, RegistrySnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.stream.source import StreamItem

__all__ = [
    "DEFAULT_TRACE_RING",
    "Stage",
    "StageTrace",
    "PipelineTracer",
    "TracerSnapshot",
    "Telemetry",
    "TelemetrySnapshot",
]

DEFAULT_TRACE_RING = 256
"""Completed-trace ring capacity: old traces fall off, memory stays
bounded no matter how long the stream runs."""


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

    def stamp_admitted(self, arrival_tick: int, now: int) -> None:
        """Fused admission stamps: the ADMISSION span covers arrival →
        the clearing step (non-zero = token-bucket deferral cost) and
        the REORDER span opens as the item reaches the buffer."""
        stamps = self._stamps
        stamps[_ADMISSION_ENTER] = arrival_tick
        stamps[_ADMISSION_ENTER + 1] = now
        stamps[_REORDER_ENTER] = now

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
class TracerSnapshot:
    """Exact tracer state: sampling cursor, in-flight and completed traces."""

    trace_every: int
    ring: int
    offered: int
    active: tuple[TraceRow, ...]
    completed: tuple[TraceRow, ...]


class PipelineTracer:
    """Sampling stage tracer feeding residency histograms in a registry.

    Args:
        registry: Destination for the per-stage residency histograms and
            trace bookkeeping counters.
        trace_every: Sample every k-th admitted observation (``1`` =
            all, ``0`` = disabled — the default, costing one integer
            check per observation).
        ring: Completed-trace ring-buffer capacity.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        trace_every: int = 0,
        ring: int = DEFAULT_TRACE_RING,
    ):
        if trace_every < 0:
            raise ObserverError(
                f"trace_every cannot be negative: {trace_every}"
            )
        if ring < 1:
            raise ObserverError(f"trace ring must hold at least 1: {ring}")
        self.registry = registry
        self.trace_every = trace_every
        self.ring = ring
        self._offered = 0
        self._active: dict[tuple[str, int], StageTrace] = {}
        self._completed: deque[StageTrace] = deque(maxlen=ring)
        self._residency = tuple(
            registry.histogram(
                "obs_stage_residency_ticks",
                "Tick-domain residency per pipeline stage",
                stage=stage.value,
            )
            for stage in STAGES
        )
        self._sampled = registry.counter(
            "obs_traces_sampled_total", "Observations picked for tracing"
        )
        self._finished = registry.counter(
            "obs_traces_completed_total", "Traces that reached EMIT"
        )

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

    # -- the sampling hot path -----------------------------------------

    def admit(self, item: "StreamItem") -> StageTrace | None:
        """Sampling decision for one admitted observation.

        Disabled tracers return after a single integer check; sampling
        tracers count every observation (the deterministic cursor) and
        open a :class:`StageTrace` for each k-th one.
        """
        every = self.trace_every
        if not every:
            return None
        offered = self._offered
        self._offered = offered + 1
        if offered % every:
            return None
        trace = StageTrace(item.source, item.seq)
        self._active[trace.key] = trace
        self._sampled.inc()
        return trace

    def lookup(self, source: str, seq: int) -> StageTrace | None:
        """The in-flight trace of ``(source, seq)``, if it was sampled."""
        return self._active.get((source, seq))

    def discard(self, trace: StageTrace, reason: str) -> None:
        """Drop an in-flight trace whose observation left the pipeline
        (shed, evicted, late) — counted per reason, never silently."""
        self._active.pop(trace.key, None)
        self.registry.counter(
            "obs_traces_discarded_total",
            "Sampled observations that left the pipeline before EMIT",
            reason=reason,
        ).inc()

    def complete(self, trace: StageTrace) -> None:
        """Retire a trace at EMIT: feed histograms, append to the ring."""
        self._active.pop((trace.source, trace.seq), None)
        stamps = trace._stamps
        for index, histogram in enumerate(self._residency):
            enter = stamps[2 * index]
            exit_ = stamps[2 * index + 1]
            if enter is not None and exit_ is not None:
                histogram.observe(exit_ - enter)
        self._completed.append(trace)
        self._finished.inc()

    # -- checkpoint / restore ------------------------------------------

    def snapshot(self) -> TracerSnapshot:
        return TracerSnapshot(
            trace_every=self.trace_every,
            ring=self.ring,
            offered=self._offered,
            active=tuple(
                trace.as_row() for trace in self._active.values()
            ),
            completed=self.completed_rows(),
        )

    def restore(self, snapshot: TracerSnapshot) -> None:
        """Reinstall the exact trace state.

        The sampling configuration must match — restoring a
        ``trace_every=4`` checkpoint into a ``trace_every=1`` tracer
        would silently change which observations get sampled mid-stream,
        the same class of bug the runtime's lateness check rejects.
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


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Registry + tracer + clock state, carried by stream checkpoints."""

    registry: RegistrySnapshot
    tracer: TracerSnapshot
    now: int | None


class Telemetry:
    """The telemetry bundle one pipeline (runtime + engine) shares.

    One registry, one tracer, one monotone step clock.  Handed to
    :class:`~repro.stream.runtime.StreamingDetectionRuntime` (and via
    ``attach_telemetry`` to engines) as a single optional object, so
    the disabled configuration is literally ``None`` and costs one
    identity check per instrumentation point.
    """

    __slots__ = ("registry", "tracer", "now")

    def __init__(self, registry: MetricsRegistry, tracer: PipelineTracer):
        self.registry = registry
        self.tracer = tracer
        self.now: int | None = None

    @classmethod
    def create(
        cls, *, trace_every: int = 0, ring: int = DEFAULT_TRACE_RING
    ) -> "Telemetry":
        """A fresh registry with a tracer wired into it."""
        registry = MetricsRegistry()
        return cls(registry, PipelineTracer(
            registry, trace_every=trace_every, ring=ring
        ))

    def observe_step(self, tick: int) -> None:
        """Advance the monotone step clock (stage stamps read it)."""
        if self.now is None or tick > self.now:
            self.now = tick

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot(
            registry=self.registry.snapshot(),
            tracer=self.tracer.snapshot(),
            now=self.now,
        )

    def restore(self, snapshot: TelemetrySnapshot) -> None:
        # The tracer goes first: it is the part that refuses a snapshot
        # (stride or ring mismatch), and it does so before it mutates.
        self.tracer.restore(snapshot.tracer)
        self.registry.restore(snapshot.registry)
        self.now = snapshot.now
