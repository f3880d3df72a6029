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
tick, instances are materialized with event-time generation stamps and
per-event sequence numbers exactly like the live emit path, and each
emission is rendered as the identical ``instance.emit`` trace row.
That row-level identity is the conformance suite's lever: splicing the
replayed rows into the original behavioral trace must reproduce the
checked-in golden digest byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from repro.core.errors import ObserverError
from repro.core.event import EventLayer
from repro.core.instance import EventInstance, ObserverId
from repro.core.space_model import BoundingBox, PointLocation
from repro.core.spec import EventSpecification
from repro.detect.engine import InstanceSequence, Match, emit_payload
from repro.shard.engine import EngineConfig
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
        bounds: World extent for the shard partitioner (required when
            ``shards > 1``).
        partition: Shard layout (``"grid"`` or ``"stripes"``).
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
            (the obs-conformance suite replays every golden under full
            tracing).
    """

    profile: ObserverProfile
    lateness: int
    shards: int = 1
    bounds: BoundingBox | None = None
    partition: str = "grid"
    admission: AdmissionController | None = None
    quarantine: object | None = None
    dedup: object | None = None
    telemetry: object | None = None
    emitted: list[EventInstance] = field(default_factory=list)

    def __post_init__(self) -> None:
        profile = self.profile
        self._sequence = InstanceSequence(profile)
        config = EngineConfig(profile.use_planner, self.shards, self.partition)
        self.runtime = StreamingDetectionRuntime(
            config.build(profile.specs, self.bounds),
            lateness=self.lateness,
            on_match=self._emit,
            admission=self.admission,
            quarantine=self.quarantine,
            dedup=self.dedup,
            telemetry=self.telemetry,
        )

    # -- feeding -------------------------------------------------------

    def replay(
        self, source: ObservationSource | Iterable[StreamItem]
    ) -> list[EventInstance]:
        """Drain a source end-to-end; return every emitted instance."""
        self.runtime.run(source)
        return self.emitted

    def ingest(self, items: Sequence[StreamItem]) -> list[EventInstance]:
        """Process one delivery step; return the instances it emitted."""
        before = len(self.emitted)
        self.runtime.ingest(items)
        return self.emitted[before:]

    def finish(self) -> list[EventInstance]:
        """Flush the stream; return the final instances."""
        before = len(self.emitted)
        self.runtime.finish()
        return self.emitted[before:]

    # -- emission ------------------------------------------------------

    def _emit(self, match: Match) -> None:
        instance = self._sequence.emit(match)
        if self.profile.refine is not None:
            instance = self.profile.refine(instance, match)
        self.emitted.append(instance)

    @property
    def trace_rows(self) -> list[TraceRecord]:
        """The ``instance.emit`` row of every instance in :attr:`emitted`,
        exactly as the live observer traced it."""
        name = self.profile.name
        return [
            TraceRecord(i.generated_time.tick, "instance.emit", name, emit_payload(i))
            for i in self.emitted
        ]

    # -- checkpoint / restore ------------------------------------------

    def snapshot(self) -> ReplayCheckpoint:
        """Checkpoint the replay between delivery steps."""
        return ReplayCheckpoint(
            runtime=self.runtime.snapshot(),
            seq=dict(self._sequence.counters),
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
        self.runtime.restore(checkpoint.runtime)
        self._sequence.counters = dict(checkpoint.seq)
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
        if checkpoint.emitted_count > len(self.emitted):
            raise ObserverError(
                f"cannot roll back to a checkpoint with "
                f"{checkpoint.emitted_count} emissions: this observer "
                f"has only {len(self.emitted)} (was it restored fresh? "
                f"use restore() for resume legs)"
            )
        self.runtime.restore(checkpoint.runtime)
        self._sequence.counters = dict(checkpoint.seq)
        del self.emitted[checkpoint.emitted_count:]
