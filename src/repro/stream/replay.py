"""Replaying an observer's feed through the streaming runtime.

An :class:`ObserverProfile` is the *configuration* of a live observer —
identity, position, layer, instance class, specifications, engine mode
and refinement — everything that, together with the observer's input
stream, determines its emitted instances.  :func:`profile_of` extracts
it from a running :class:`~repro.cps.component.ObserverComponent`.

A :class:`ReplayObserver` pairs a profile with a fresh engine behind a
:class:`~repro.stream.runtime.StreamingDetectionRuntime` and rebuilds
the observer's outputs from any (possibly jittered) replay of its
captured stream: matches emit as the watermark releases their event
tick, each into one row of the observer's
:class:`~repro.detect.output.InstanceLog` with its event-time
generation tick and per-event sequence number exactly like the live
emit path, and each row renders as the identical ``instance.emit``
trace row.  Without a refinement no instance object is built until
something reads the log.
That row-level identity is the conformance suite's lever: splicing the
replayed rows into the original behavioral trace must reproduce the
checked-in golden digest byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from repro.core.errors import ObserverError
from repro.core.event import EventLayer
from repro.core.instance import EventInstance, ObserverId
from repro.core.space_model import BoundingBox, PointLocation
from repro.core.spec import EventSpecification
from repro.detect.engine import DetectionEngine, Match
from repro.detect.output import InstanceLog, LogView
from repro.shard.engine import ShardedDetectionEngine
from repro.sim.trace import TraceRecord
from repro.stream.admission.controller import AdmissionController
from repro.stream.runtime import (
    RuntimeCheckpoint,
    StreamingDetectionRuntime,
)
from repro.stream.source import ObservationSource, StreamItem

__all__ = [
    "ObserverProfile",
    "profile_of",
    "ReplayObserver",
    "ReplayCheckpoint",
]

Refinement = Callable[[EventInstance, Match], EventInstance]


@dataclass(frozen=True)
class ObserverProfile:
    """Everything but the input stream that fixes an observer's output."""

    name: str
    observer_id: ObserverId
    location: PointLocation
    layer: EventLayer
    instance_cls: type[EventInstance]
    specs: tuple[EventSpecification, ...]
    use_planner: bool = True
    refine: Refinement | None = None


def profile_of(observer) -> ObserverProfile:
    """Extract the replay profile of a live observer component.

    Works for any :class:`~repro.cps.component.ObserverComponent`;
    sink-style trilateration refinement is carried over as the pure
    :func:`~repro.cps.sink.trilaterated_refinement`, so replays refine
    identically without touching the live component or its trace.
    """
    from repro.cps.sink import SinkNode, trilaterated_refinement

    engine = observer.engine
    refine: Refinement | None = None
    if isinstance(observer, SinkNode) and observer.trilaterate_attribute:
        attribute = observer.trilaterate_attribute

        def refine(instance: EventInstance, match: Match) -> EventInstance:
            refined = trilaterated_refinement(instance, match, attribute)
            return instance if refined is None else refined[0]

    return ObserverProfile(
        name=observer.name,
        observer_id=observer.observer_id,
        location=observer.location,
        layer=observer.layer,
        instance_cls=observer.instance_cls,
        specs=tuple(engine.specs),
        use_planner=engine.use_planner,
        refine=refine,
    )


@dataclass(frozen=True)
class ReplayCheckpoint:
    """Mid-replay checkpoint: runtime/engine state plus emission counters."""

    runtime: RuntimeCheckpoint
    seq: Mapping[str, int]
    emitted_count: int


@dataclass
class ReplayObserver:
    """A profile bound to a fresh engine behind the streaming runtime.

    Args:
        profile: The observer configuration to replay.
        lateness: Disorder bound handed to the runtime's watermark.
        shards: ``1`` replays on a single
            :class:`~repro.detect.engine.DetectionEngine`; ``>1``
            installs the spatially sharded backend — the conformance
            suite runs both to prove the streamed shard merge exact.
            This is the one place that builds a
            :class:`~repro.shard.engine.ShardedDetectionEngine`.
        bounds: World extent the shard grid tiles (required when
            ``shards > 1``).
        admission: Optional
            :class:`~repro.stream.admission.AdmissionController` handed
            straight to the runtime — replays under resource bounds,
            which is how the benchmark harness measures each shedding
            policy's recall cost against the unbounded golden replay.
        quarantine: Optional
            :class:`~repro.stream.resilience.quarantine.Quarantine`
            handed to the runtime — corrupt deliveries are dead-lettered
            before they can touch the watermark or the engine.
        dedup: Optional
            :class:`~repro.stream.resilience.dedup.RedeliveryDeduper`
            handed to the runtime — at-least-once redelivery (the
            supervised-recovery transport) replays exactly-once.
        telemetry: Optional :class:`~repro.obs.tracing.Telemetry`
            bundle handed to the runtime — sampled stage traces for the
            replay, with the zero-perturbation guarantee
            (the conformance harness replays every golden under full
            tracing).

    After construction, :attr:`emitted` is the observer's
    :class:`~repro.detect.output.InstanceLog`.
    """

    profile: ObserverProfile
    lateness: int
    shards: int = 1
    bounds: BoundingBox | None = None
    admission: AdmissionController | None = None
    quarantine: object | None = None
    dedup: object | None = None
    telemetry: object | None = None

    def __post_init__(self) -> None:
        shards, profile = self.shards, self.profile
        if type(shards) is not int or shards < 1:
            raise ObserverError(f"shards must be an int >= 1, got {shards!r}")
        if shards == 1:
            engine = DetectionEngine(profile.specs, use_planner=profile.use_planner)
        elif self.bounds is None:
            raise ObserverError(f"shards={shards} needs bounds to tile")
        else:
            engine = ShardedDetectionEngine(
                profile.specs,
                bounds=self.bounds,
                shards=shards,
                use_planner=profile.use_planner,
            )
        self.emitted = InstanceLog.of(profile)
        self.runtime = StreamingDetectionRuntime(
            engine,
            lateness=self.lateness,
            on_match=(
                self.emitted.write if profile.refine is None else self._emit_refined
            ),
            admission=self.admission,
            quarantine=self.quarantine,
            dedup=self.dedup,
            telemetry=self.telemetry,
        )

    # -- feeding -------------------------------------------------------

    def replay(
        self, source: ObservationSource | Iterable[StreamItem]
    ) -> InstanceLog:
        """Drain a source end-to-end; return the emission log."""
        self.runtime.run(source)
        return self.emitted

    def ingest(self, items: Sequence[StreamItem]) -> LogView:
        """Process one delivery step; return the rows it emitted."""
        before = len(self.emitted)
        self.runtime.ingest(items)
        return self.emitted.since(before)

    def finish(self) -> LogView:
        """Flush the stream; return the final rows."""
        before = len(self.emitted)
        self.runtime.finish()
        return self.emitted.since(before)

    # -- emission ------------------------------------------------------

    def _emit_refined(self, match: Match) -> None:
        log = self.emitted
        log.append(self.profile.refine(log.build(match), match))

    @property
    def trace_rows(self) -> list[TraceRecord]:
        """The ``instance.emit`` row of every row in :attr:`emitted`,
        exactly as the live observer traced it."""
        return self.emitted.trace_rows(self.profile.name)

    # -- checkpoint / restore ------------------------------------------

    def snapshot(self) -> ReplayCheckpoint:
        """Checkpoint the replay between delivery steps."""
        return ReplayCheckpoint(
            runtime=self.runtime.snapshot(),
            seq=dict(self.emitted.counters),
            emitted_count=len(self.emitted),
        )

    def restore(self, checkpoint: ReplayCheckpoint) -> None:
        """Resume a replay from a checkpoint taken on an equivalently
        configured observer.

        ``emitted`` restarts **empty** — it collects
        only post-restore emissions (whether this observer is fresh or
        is being rewound past later work); ``checkpoint.emitted_count``
        records how many instances the checkpointed leg had produced,
        which is the offset to line the tail up against.
        """
        counters = _checked_counts(checkpoint)
        self.runtime.restore(checkpoint.runtime)
        self.emitted.counters = counters
        self.emitted.clear()

    def rollback(self, checkpoint: ReplayCheckpoint) -> None:
        """Rewind *this* observer to one of its own earlier checkpoints.

        Unlike :meth:`restore` (which starts the emission log empty for
        a fresh resume leg), a rollback *truncates* ``emitted`` to the
        checkpoint's count: post-checkpoint emissions are discarded and
        will be re-produced on redelivery.
        This is the crash-recovery path —
        :class:`~repro.stream.resilience.supervisor.SupervisedRuntime`
        prefers it when present, which is what keeps a recovered
        replay's output log exactly-once.
        """
        counters = _checked_counts(checkpoint)
        if checkpoint.emitted_count > len(self.emitted):
            raise ObserverError(
                f"cannot roll back to a checkpoint with "
                f"{checkpoint.emitted_count} emissions: this observer "
                f"has only {len(self.emitted)} (was it restored fresh? "
                f"use restore() for resume legs)"
            )
        self.runtime.restore(checkpoint.runtime)
        self.emitted.counters = counters
        self.emitted.truncate(checkpoint.emitted_count)


def _natural(value: object) -> bool:
    return type(value) is int and value >= 0


def _checked_counts(checkpoint: ReplayCheckpoint) -> dict[str, int]:
    """The checkpoint's seq counters, once its counts are known to be
    non-negative ints; :class:`ObserverError` before anything changes
    otherwise."""
    if not _natural(checkpoint.emitted_count):
        raise ObserverError(
            f"checkpoint emitted_count must be an int >= 0, got "
            f"{checkpoint.emitted_count!r}"
        )
    if not isinstance(checkpoint.seq, Mapping):
        raise ObserverError(
            f"checkpoint seq must map event ids to counters, got "
            f"{checkpoint.seq!r}"
        )
    counters = dict(checkpoint.seq)
    for event_id, seq in counters.items():
        if not _natural(seq):
            raise ObserverError(
                f"checkpoint seq counter of {event_id!r} must be an int "
                f">= 0, got {seq!r}"
            )
    return counters
