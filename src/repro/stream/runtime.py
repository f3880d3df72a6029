"""The streaming detection loop: sources -> reorder -> watermark -> engine.

:class:`StreamingDetectionRuntime` inverts the push-per-tick control
flow of the CPS observers: instead of components pushing batches into
an engine at the simulator's current tick, the runtime *pulls* from
:class:`~repro.stream.source.ObservationSource` iterators in arrival
order, buffers disorder in a bounded
:class:`~repro.stream.reorder.ReorderBuffer`, advances a min-merged
:class:`~repro.stream.watermark.WatermarkTracker`, and feeds the engine
released observations grouped by event tick — which restores exactly
the in-order submission sequence, so the engine (and everything
downstream: matches, instances, digests) behaves as if the stream had
never been disordered.  Observations beyond the lateness bound are
counted and retained (:attr:`StreamingDetectionRuntime.late_items`),
never silently dropped.

The parts sit in one ordered table
(:attr:`StreamingDetectionRuntime.stages`: quarantine, dedup, admission,
reorder, watermark, engine, telemetry).  Admission, reorder, watermark,
engine and telemetry are always there; the two screens, quarantine and
dedup, are listed only when the runtime was given them.  The stages
ahead of the reorder buffer share one shape, ``intake(items) -> list``
(a delivery step in, its survivors out, in order, each stage counting
its own losses), so ``ingest`` is one loop over them.  Every part has
``snapshot()``, ``ensure_restorable()`` (refusing another configuration
of its own, see :mod:`repro.core.checkpoint`) and ``install()``, and the
engine a ``restore()`` that runs the two; a
:class:`RuntimeCheckpoint` is the table's ``{name: snapshot}`` image
plus the runtime's own counters, so a stream can resume mid-flight with
an identical remaining match stream.

Every delivery step clears admission
(:class:`~repro.stream.admission.AdmissionController`): per-source
token-bucket rate limits (with bounded deferral), an occupancy cap on
the reorder buffer enforced by one of two shedding rules, and
backpressure: :meth:`run` calls a source's ``throttle()``, if it has
one, after each step on which admission is engaged.  The controller counts every shed or
deferred observation (:attr:`StreamStats.shed_observations`,
:attr:`StreamStats.deferred_observations`); the default controller sets
no limits, admits everything and costs nothing per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import groupby
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.checkpoint import (
    Domain,
    by_name,
    check,
    counters,
    declared,
)
from repro.core.errors import ObserverError
from repro.detect.engine import DetectionEngine, Match
from repro.obs.tracing import Telemetry
from repro.stream.admission.controller import AdmissionController
from repro.stream.reorder import ReorderBuffer
from repro.stream.source import ObservationSource, StreamItem
from repro.stream.watermark import WatermarkTracker

__all__ = [
    "StreamingDetectionRuntime",
    "RuntimeCheckpoint",
    "StreamStats",
    "arrival_groups",
]

_EVENT_TICK = attrgetter("event_tick")


def arrival_groups(
    source: ObservationSource | Iterable[StreamItem],
) -> Iterator[tuple[int, list[StreamItem]]]:
    """Group a source's items by arrival tick, validating the order.

    One group is one "delivery step": everything that reaches the
    consumer at the same tick is offered to the reorder buffer *before*
    the watermark advances and releases, which is what makes
    within-bound jitter provably late-free.
    """
    pending_tick: int | None = None
    pending: list[StreamItem] = []
    for item in source:
        if pending_tick is not None and item.arrival_tick < pending_tick:
            raise ObserverError(
                f"source delivers arrival tick {item.arrival_tick} after "
                f"{pending_tick}; sources must yield in arrival order"
            )
        if item.arrival_tick != pending_tick:
            if pending:
                yield pending_tick, pending
            pending_tick = item.arrival_tick
            pending = []
        pending.append(item)
    if pending:
        yield pending_tick, pending


def _exported(series: str, help_text: str, kind: str = "counter"):
    """A :class:`StreamStats` field exported as ``series`` (see
    :func:`repro.obs.metrics.collect`)."""
    return field(
        default=0, metadata={"series": series, "help": help_text, "kind": kind}
    )


@dataclass
class StreamStats:
    """Stream-level counters of one :class:`StreamingDetectionRuntime`.

    Every fact has exactly one writer.  The runtime counts what it does
    itself — offers, releases, matches, delivery steps, backpressure
    steps.  What a part of the pipeline observes
    stays with that part: :attr:`StreamingDetectionRuntime.stats` reads
    ``late_observations`` and ``reorder_peak`` from the reorder buffer,
    ``shed_observations`` and ``deferred_observations`` from the
    admission controller,
    ``duplicates_dropped`` from the deduper,
    ``quarantined_observations`` from the quarantine and ``recoveries``
    from the supervisor each time it is asked (zero for a screen or
    supervisor the runtime does not have), so there is no second copy to
    keep in step.
    """

    delivery_steps: int = _exported(
        "stream_delivery_steps_total", "Delivery steps ingested"
    )
    backpressure_events: int = _exported(
        "stream_backpressure_steps_total",
        "Delivery steps that ended with backpressure engaged",
    )
    entities_submitted: int = _exported(
        "stream_observations_offered_total",
        "Observations accepted by the reorder buffer",
    )
    released_items: int = _exported(
        "stream_observations_released_total",
        "Observations released to the engine in event-time order",
    )
    batches_submitted: int = _exported(
        "stream_batches_released_total",
        "Event-tick groups released to the engine",
    )
    matches: int = _exported(
        "stream_matches_total", "Matches the engine returned"
    )
    late_observations: int = _exported(
        "stream_observations_late_total",
        "Observations that arrived beyond the lateness bound",
    )
    reorder_peak: int = _exported(
        "stream_reorder_occupancy_peak",
        "Reorder-buffer occupancy high-water mark",
        kind="gauge",
    )
    shed_observations: int = _exported(
        "stream_observations_shed_total",
        "Observations rejected under load, at the occupancy cap or on "
        "deferral-queue overflow",
    )
    deferred_observations: int = _exported(
        "stream_observations_deferred_total",
        "Observations parked to await token-bucket refill, each counted "
        "once",
    )
    duplicates_dropped: int = _exported(
        "stream_duplicates_dropped_total",
        "Redelivered observations rejected by the dedup record",
    )
    quarantined_observations: int = _exported(
        "stream_observations_quarantined_total",
        "Corrupt deliveries dead-lettered by the quarantine",
    )
    recoveries: int = 0
    """Supervised crash recoveries absorbed so far.  Not published
    here: the supervisor exports its own tallies."""


@dataclass(frozen=True)
class RuntimeCheckpoint:
    """Everything a mid-stream resume needs, engine included."""

    stages: Mapping[str, object] = declared(
        by_name(Domain("a snapshot", lambda snapshot: True))
    )
    """Each part's own snapshot, keyed like
    :attr:`StreamingDetectionRuntime.stages`.  A checkpoint restores
    only into a runtime built with the same screens."""
    stats: StreamStats = declared(counters(StreamStats))
    """The counters the runtime itself writes (the stage-owned fields
    are left at zero: those travel inside their stage's snapshot)."""


class StreamingDetectionRuntime:
    """Pull-driven, watermark-gated feeder for a detection engine.

    Args:
        engine: The consuming engine — a
            :class:`~repro.detect.engine.DetectionEngine` or
            :class:`~repro.shard.engine.ShardedDetectionEngine`
            (required).
        lateness: Bounded-disorder assumption in ticks: an observation
            may trail the newest one seen from its source by at most
            this much and still be released in order.
        on_match: Optional callback invoked per match, in emission
            order (the replay observers build instances here).
        admission: The
            :class:`~repro.stream.admission.AdmissionController` bounding
            ingestion — rate limits, occupancy cap, shedding rule and
            backpressure.  ``None`` (the default) builds
            ``AdmissionController()``, which sets no limits.
        quarantine: Optional
            :class:`~repro.stream.resilience.quarantine.Quarantine` (or
            any object with ``intake(items) -> list``, a ``count`` and
            ``snapshot()`` / ``ensure_restorable()`` / ``install()``)
            screening every delivery for
            structural validity *before* anything else sees it —
            rejected items are dead-lettered and counted
            (``stats.quarantined_observations``), never offered.
        dedup: Optional
            :class:`~repro.stream.resilience.dedup.RedeliveryDeduper`
            (same duck-typed shape, counting in
            ``duplicates_dropped``) dropping redelivered
            ``(source, seq)`` identities after quarantine and before
            admission — at-least-once transports become effectively
            exactly-once, with every drop counted
            (``stats.duplicates_dropped``).  The order matters: a
            corrupt copy of a not-yet-seen identity must never reach
            the dedup record, or it would shadow the intact
            retransmission right behind it.
        telemetry: The :class:`~repro.obs.tracing.Telemetry` (stage
            tracer + step clock).  ``None`` (the default) builds
            ``Telemetry.create()``, which traces nothing.  Sampled
            traces open at admission and close at release, in the tick
            domain.  Telemetry only *reads* the pipeline — no
            randomness, no ordering effects — so every golden digest is
            reproduced byte-for-byte with it enabled; checkpoints carry
            its state.  Exporting needs none:
            :func:`repro.obs.metrics.collect` reads every series from
            the parts that own it.
    """

    def __init__(
        self,
        engine: DetectionEngine,
        *,
        lateness: int,
        on_match: Callable[[Match], None] | None = None,
        admission: AdmissionController | None = None,
        quarantine: object | None = None,
        dedup: object | None = None,
        telemetry: Telemetry | None = None,
    ):
        if engine is None:
            raise ObserverError("a streaming runtime needs an engine")
        self.engine = engine
        self.on_match = on_match
        if admission is None:
            admission = AdmissionController()
        self.admission = admission
        self.quarantine = quarantine
        self.dedup = dedup
        if telemetry is None:
            telemetry = Telemetry.create()
        self.telemetry = telemetry
        self.buffer = ReorderBuffer()
        self.tracker = WatermarkTracker(lateness)
        self.stages: dict[str, object] = {
            name: part
            for name, part in (
                ("quarantine", quarantine),
                ("dedup", dedup),
                ("admission", admission),
                ("reorder", self.buffer),
                ("watermark", self.tracker),
                ("engine", engine),
                ("telemetry", telemetry),
            )
            if part is not None
        }
        """The parts this runtime was built with, in pipeline order —
        the only thing :meth:`snapshot` and :meth:`restore` walk."""
        parts = list(self.stages.values())
        self._front = tuple(parts[: parts.index(self.buffer)])
        """The stages ahead of the reorder buffer: each ``intake`` takes
        a delivery step's survivors and returns its own."""
        self.supervisor = None
        """The :class:`~repro.stream.resilience.supervisor.SupervisedRuntime`
        driving this runtime, if any (it announces itself)."""
        self._counts = StreamStats()

    # -- counters ------------------------------------------------------

    @property
    def stats(self) -> StreamStats:
        """A fresh reading of every stream-level counter, each taken
        from its one owner (see :class:`StreamStats`)."""
        # A screen or supervisor not installed (``None``) reads zero.
        return replace(
            self._counts,
            late_observations=self.buffer.late_count,
            reorder_peak=self.buffer.peak_occupancy,
            shed_observations=self.admission.shed_total,
            deferred_observations=self.admission.deferred_total,
            duplicates_dropped=getattr(self.dedup, "duplicates_dropped", 0),
            quarantined_observations=getattr(self.quarantine, "count", 0),
            recoveries=getattr(self.supervisor, "recoveries", 0),
        )

    @property
    def released_items(self) -> int:
        """Observations released to the engine so far."""
        return self._counts.released_items

    # -- ingestion -----------------------------------------------------

    @property
    def late_items(self) -> list[StreamItem]:
        """Observations that arrived beyond the lateness bound."""
        return self.buffer.late

    def register_source(self, name: str) -> None:
        """Pre-declare a source so its silence holds the watermark
        (refused after :meth:`finish`)."""
        self.tracker.register(name)

    def ingest(self, items: Sequence[StreamItem]) -> None:
        """Process one delivery step (co-arriving items) and release.

        The whole step is validated before anything mutates — a step
        after :meth:`finish`, one that is not a list or tuple of
        :class:`~repro.stream.source.StreamItem`, or one whose arrival
        tick would run a rate limiter's clock backwards, raises
        :class:`~repro.core.errors.ObserverError` with the screens, the
        buffer, the tracker and the counters untouched, so the caller
        can drop or fix the bad step and continue from consistent
        state.  (Under a rate limit, and only then, that makes
        non-decreasing arrival ticks along the step — across sources as
        well — a precondition, checked before screening: a duplicate or
        quarantine-bound item that breaks it gets the step refused too.
        See :meth:`AdmissionController.ensure_clock`.)  Then the step
        passes the front stages in order (quarantine, dedup, admission:
        each ``intake`` returns its survivors and counts its own
        losses; none of them touches the watermark, since a rejected
        item promises nothing about event time), and the survivors are
        offered to the reorder buffer and noted by the watermark
        tracker (:meth:`_take`); only then does the (possibly advanced)
        merged watermark release buffered observations to the engine,
        in event-time order, grouped by event tick; their matches go to
        ``on_match``.

        Admission may also re-admit previously deferred items whose
        buckets have refilled; they passed validation in their own step.
        """
        self.tracker.ensure_live()
        if not isinstance(items, (list, tuple)) or any(
            type(item) is not StreamItem for item in items
        ):
            raise ObserverError(
                "a delivery step is a list or tuple of StreamItem; the "
                "step was rejected before any item was admitted"
            )
        self.admission.ensure_clock(items)
        self._counts.delivery_steps += 1
        if self.telemetry.enabled and items:
            # The step clock is a monotone max: one observation of
            # the batch maximum equals observing every arrival.
            self.telemetry.observe_step(
                max(item.arrival_tick for item in items)
            )
        for stage in self._front:
            items = stage.intake(items)
        self._take(items)
        watermark = self.tracker.watermark()
        if watermark is not None:
            self._flush(self.buffer.release(watermark))
        if self.admission.engaged(self.buffer.occupancy):
            self._counts.backpressure_events += 1

    def _take(self, items: Sequence[StreamItem]) -> None:
        """Offer one step's admitted items to the buffer, in order.

        The watermark notes each source's newest event tick once per
        step (a monotone max), and sampled traces open in arrival order.
        The room left below the occupancy cap goes to the buffer in one
        run.  From the cap on (never for late items: those land in the
        separately bounded late list) each item takes the controller's
        whole at-cap step, one at a time
        (:meth:`~repro.stream.admission.AdmissionController.make_room`:
        evict a victim or shed the item, and count the loser).  The
        late, shed and evicted items retire their traces
        (:meth:`~repro.obs.tracing.Telemetry.lost`).
        """
        newest: dict[str, int] = {}
        for item in items:
            if newest.get(item.source, item.event_tick) <= item.event_tick:
                newest[item.source] = item.event_tick
        for source, tick in newest.items():
            self.tracker.observe(source, tick)
        telemetry, buffer = self.telemetry, self.buffer
        if telemetry.enabled:
            for item in items:
                telemetry.admit(item)
        cap = self.admission.limits.max_pending
        room = len(items) if cap is None else max(0, cap - buffer.occupancy)
        late = buffer.offer_many(items[:room])
        shed, evicted = [], []
        for item in items[room:]:
            if buffer.occupancy >= cap and not buffer.is_late(item):
                victim = self.admission.make_room(item, buffer)
                if victim is None:
                    shed.append(item)
                    continue
                evicted.append(victim)
            late += buffer.offer_many((item,))
        self._counts.entities_submitted += len(items) - len(shed) - len(late)
        telemetry.lost(late, "late")
        telemetry.lost(shed, "shed")
        telemetry.lost(evicted, "evicted")

    def run(self, source: ObservationSource | Iterable[StreamItem]) -> None:
        """Drain one source completely (arrival order), then flush.

        The matches go to ``on_match``.  Multiple sources:
        ``register_source`` each, then interleave :meth:`ingest` calls
        yourself (a delivery step may mix sources); ``run`` is the
        common single-source convenience.
        """
        name = getattr(source, "name", None)
        if isinstance(name, str):
            self.register_source(name)
        throttle = getattr(source, "throttle", None)
        if not callable(throttle):
            # A non-callable throttle attribute is a non-cooperating
            # source, not a crash waiting to happen.
            throttle = None
        for _, group in arrival_groups(source):
            self.ingest(group)
            if throttle is not None and self.admission.engaged(
                self.buffer.occupancy
            ):
                # Cooperative backpressure: a source exposing throttle()
                # is asked to slow down while pressure is on; sources
                # without one simply keep the shedding rule busy.
                throttle()
        self.finish()

    def finish(self) -> None:
        """Close every source and flush the buffer in event-time order.

        Anything still parked in the admission deferral queue is offered
        first — an item whose event tick the watermark passed while it
        waited is classified late here, which is the measured cost of
        deferring it.
        """
        self._take(self.admission.flush_deferred())
        self.tracker.end()
        self._flush(self.buffer.release_all())

    def _flush(self, released: Sequence[StreamItem]) -> None:
        """Submit released items to the engine, one batch per event tick,
        and hand each match to ``on_match``."""
        telemetry, counts = self.telemetry, self._counts
        tracing = telemetry.enabled
        for tick, run in groupby(released, key=_EVENT_TICK):
            group = list(run)
            counts.released_items += len(group)
            counts.batches_submitted += 1
            if tracing:
                telemetry.release(group)
            batch_matches = self.engine.submit_batch(
                [item.entity for item in group], tick
            )
            counts.matches += len(batch_matches)
            if self.on_match is not None:
                for match in batch_matches:
                    self.on_match(match)

    # -- checkpoint / restore ------------------------------------------

    def snapshot(self) -> RuntimeCheckpoint:
        """Capture stream + engine state between delivery steps."""
        return RuntimeCheckpoint(
            stages={
                name: part.snapshot() for name, part in self.stages.items()
            },
            # A copy ~2 us cheaper than replace(): ~250 snapshots a pass.
            stats=StreamStats(**vars(self._counts)),
        )

    def restore(self, checkpoint: RuntimeCheckpoint) -> None:
        """Resume from a checkpoint taken on an equivalently built
        runtime (same screens; every part refuses another configuration
        of its own).

        Every part but the engine checks its snapshot first; the
        engine's ``restore`` then checks its own before installing it,
        and the other parts install only after that.  A refused
        checkpoint raises :class:`~repro.core.errors.ObserverError` and
        leaves the runtime exactly as it was.  Feeding the delivery
        steps the checkpointed runtime had not yet seen then produces
        the identical remaining match stream.
        """
        check(checkpoint, RuntimeCheckpoint)
        if checkpoint.stages.keys() != self.stages.keys():
            differing = sorted(checkpoint.stages.keys() ^ self.stages.keys())
            raise ObserverError(
                f"RuntimeCheckpoint.stages and this runtime disagree about "
                f"having {differing}: a checkpoint restores only into a "
                f"runtime built with the same parts"
            )
        others = [
            (part, checkpoint.stages[name])
            for name, part in self.stages.items()
            if name != "engine"
        ]
        for part, snapshot in others:
            part.ensure_restorable(snapshot)
        self.engine.restore(checkpoint.stages["engine"])
        for part, snapshot in others:
            part.install(snapshot)
        self._counts = replace(checkpoint.stats)
