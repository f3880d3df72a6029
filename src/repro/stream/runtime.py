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

The parts the runtime was built with sit in one ordered table
(:attr:`StreamingDetectionRuntime.stages`: quarantine, dedup, admission,
reorder, watermark, engine, telemetry — an absent part is simply not
listed).  The stages ahead of the reorder buffer share one shape,
``intake(items) -> list`` (a delivery step in, its survivors out, in
order, each stage counting its own losses), so ``ingest`` is one loop
over them.  Every part has ``snapshot()`` / ``restore()`` and refuses a
snapshot taken under another configuration of its own; a
:class:`RuntimeCheckpoint` is the table's ``{name: snapshot}`` image
plus the runtime's own counters, so a stream can resume mid-flight with
an identical remaining match stream.

Ingestion can be **bounded**: pass an
:class:`~repro.stream.admission.AdmissionController` and every delivery
step clears admission — per-source token-bucket rate limits (with
bounded deferral), an occupancy cap on the reorder buffer enforced by a
pluggable shedding policy, and a
:class:`~repro.stream.admission.Backpressure` signal handed to sources
that expose ``throttle()``.  The controller counts every shed or
deferred observation (:attr:`StreamStats.shed_observations`,
:attr:`StreamStats.deferred_observations`); with no limits configured
the bounded runtime is behavior-identical to the unbounded one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import groupby
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.errors import ObserverError
from repro.detect.engine import DetectionEngine, Match
from repro.obs.tracing import Telemetry
from repro.stream.admission.backpressure import Backpressure
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
    from the supervisor each time it is asked (zero where that part is
    absent), so there is no second copy to keep in step.
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

    stages: Mapping[str, object]
    """Each part's own snapshot, keyed like
    :attr:`StreamingDetectionRuntime.stages`.  A checkpoint restores
    only into a runtime built with the same set of parts."""
    stats: StreamStats
    """The counters the runtime itself writes (the stage-owned fields
    are left at zero: those travel inside their stage's snapshot)."""


class StreamingDetectionRuntime:
    """Pull-driven, watermark-gated feeder for a detection engine.

    Args:
        engine: The consuming engine — a
            :class:`~repro.detect.engine.DetectionEngine` or
            :class:`~repro.shard.engine.ShardedDetectionEngine` — or
            ``None`` for a detection-less reorder pipeline (the
            property suite uses this to test ordering in isolation).
        lateness: Bounded-disorder assumption in ticks: an observation
            may trail the newest one seen from its source by at most
            this much and still be released in order.
        on_match: Optional callback invoked per match, in emission
            order (the replay observers build instances here).
        on_release: Optional callback invoked per released tick group
            ``(tick, items)`` before the engine sees it.
        admission: Optional
            :class:`~repro.stream.admission.AdmissionController` bounding
            ingestion — rate limits, occupancy cap, shedding policy and
            backpressure.  ``None`` (the default) runs unbounded; a
            controller with default :class:`~repro.stream.admission.AdmissionLimits`
            is behavior-identical to ``None``.
        quarantine: Optional
            :class:`~repro.stream.resilience.quarantine.Quarantine` (or
            any object with ``intake(items) -> list``, a ``count`` and
            ``snapshot()``/``restore()``) screening every delivery for
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
        telemetry: Optional :class:`~repro.obs.tracing.Telemetry`
            (stage tracer + step clock).  The runtime stamps sampled
            :class:`~repro.obs.tracing.StageTrace` spans in the tick
            domain.  Telemetry only *reads* the pipeline — no
            randomness, no ordering effects — so every golden digest is
            reproduced byte-for-byte with it enabled; checkpoints carry
            its state.  Exporting needs none:
            :func:`repro.obs.metrics.collect` reads every series from
            the parts that own it.
    """

    def __init__(
        self,
        engine: DetectionEngine | None = None,
        *,
        lateness: int,
        on_match: Callable[[Match], None] | None = None,
        on_release: Callable[[int, Sequence[StreamItem]], None] | None = None,
        admission: AdmissionController | None = None,
        quarantine: object | None = None,
        dedup: object | None = None,
        telemetry: Telemetry | None = None,
    ):
        self.engine = engine
        self.on_match = on_match
        self.on_release = on_release
        self.admission = admission
        self.quarantine = quarantine
        self.dedup = dedup
        self.telemetry = telemetry
        if admission is None:
            self.buffer = ReorderBuffer()
        else:
            # The buffer files every item under the controller's own
            # classes, which is what lets a class-aware shedding policy
            # ask it who is weakest without walking it.  Every controller
            # gets the index, even one that cannot shed as configured:
            # ``admission.limits`` may be replaced between steps (intake
            # drains the deferral queue when a rate is lifted), and a cap
            # introduced that way must find the buffered items filed.
            self.buffer = ReorderBuffer(
                late_retention=admission.limits.late_retention,
                rank=admission.priorities.of,
            )
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
        self.last_backpressure: Backpressure | None = None

    # -- counters ------------------------------------------------------

    @property
    def stats(self) -> StreamStats:
        """A fresh reading of every stream-level counter, each taken
        from its one owner (see :class:`StreamStats`)."""
        # An absent part (``None``) has no such attribute: it reads zero.
        return replace(
            self._counts,
            late_observations=self.buffer.late_count,
            reorder_peak=self.buffer.peak_occupancy,
            shed_observations=getattr(self.admission, "shed_total", 0),
            deferred_observations=getattr(self.admission, "deferred_total", 0),
            duplicates_dropped=getattr(self.dedup, "duplicates_dropped", 0),
            quarantined_observations=getattr(self.quarantine, "count", 0),
            recoveries=getattr(self.supervisor, "recoveries", 0),
        )

    @property
    def released_items(self) -> int:
        """Observations released to the engine so far."""
        return self._counts.released_items

    def _end_step(self, watermark: int | None, *, delivery: bool = False) -> None:
        """Refresh the backpressure signal a step boundary leaves behind.

        ``ingest``, ``close_source``, ``finish`` and ``restore`` all end
        here, so the signal always describes the buffer as it is now: a
        drained stream is under no pressure, whatever its last delivery
        step left.  Only a delivery step counts towards
        ``backpressure_events`` — the duty cycle is a fraction of
        delivery steps.
        """
        if self.admission is not None:
            signal = self.admission.backpressure(
                self.buffer.occupancy, watermark
            )
            self.last_backpressure = signal
            if delivery and signal.engaged:
                self._counts.backpressure_events += 1

    # -- ingestion -----------------------------------------------------

    @property
    def late_items(self) -> list[StreamItem]:
        """Observations that arrived beyond the lateness bound."""
        return self.buffer.late

    def register_source(self, name: str) -> None:
        """Pre-declare a source so its silence holds the watermark."""
        self.tracker.register(name)

    def close_source(self, name: str) -> list[Match]:
        """Mark one source exhausted and release what that unblocks.

        In the multi-source ingest pattern an exhausted source would
        otherwise pin the min-merged watermark at its last promise
        forever, buffering the live sources' items unboundedly; closing
        it hands the frontier to the remaining open sources.
        """
        self.tracker.close(name)
        watermark = self.tracker.watermark()
        matches = self._release(watermark)
        self._end_step(watermark)
        return matches

    def ingest(self, items: Sequence[StreamItem]) -> list[Match]:
        """Process one delivery step (co-arriving items) and release.

        The whole step is validated before anything mutates — a step
        naming a closed source, or one whose arrival tick would run a
        rate limiter's clock backwards, raises with the screens, the
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
        in event-time order, grouped by event tick.

        Admission may also re-admit previously deferred items whose
        buckets have refilled.  They passed validation in their own
        step; one whose source has closed since moves no watermark.
        """
        self.tracker.ensure_open({item.source for item in items})
        if self.admission is not None:
            self.admission.ensure_clock(items)
        self._counts.delivery_steps += 1
        if self.telemetry is not None and items:
            # The step clock is a monotone max: one observation of
            # the batch maximum equals observing every arrival.
            self.telemetry.observe_step(
                max(item.arrival_tick for item in items)
            )
        for stage in self._front:
            items = stage.intake(items)
        self._take(items)
        watermark = self.tracker.watermark()
        matches = self._release(watermark)
        self._end_step(watermark, delivery=True)
        return matches

    def _take(self, items: Sequence[StreamItem]) -> None:
        """Offer one step's admitted items to the buffer, in order.

        The watermark notes each open source's newest event tick once
        per step (a monotone max); a source closed while its items sat
        deferred has already promised everything.  The room left below
        the occupancy cap goes to the buffer in one run.  From the cap on
        (never for late items: those land in the separately bounded late
        list) each item takes the controller's whole at-cap step, one at
        a time (:meth:`~repro.stream.admission.AdmissionController.make_room`:
        evict a victim or shed the item, and count the loser).  Sampled
        traces open in arrival order either way; a late item's is
        retired at once.
        """
        newest: dict[str, int] = {}
        for item in items:
            if newest.get(item.source, item.event_tick) <= item.event_tick:
                newest[item.source] = item.event_tick
        for source, tick in newest.items():
            if self.tracker.is_open(source):
                self.tracker.observe(source, tick)
        buffer, counts = self.buffer, self._counts
        admission, telemetry = self.admission, self.telemetry
        cap = None if admission is None else admission.limits.max_pending
        room = len(items) if cap is None else max(0, cap - buffer.occupancy)
        run, items = items[:room], items[room:]
        late = buffer.offer_many(run)
        counts.entities_submitted += len(run) - len(late)
        if telemetry is not None and telemetry.enabled:
            late = {id(item) for item in late}
            for item in run:
                trace = telemetry.admit(item)
                if trace is not None and id(item) in late:
                    telemetry.discard(trace, "late")
        for item in items:
            trace = None if telemetry is None else telemetry.admit(item)
            if (
                cap is not None
                and buffer.occupancy >= cap
                and not buffer.is_late(item)
            ):
                victim = admission.make_room(item, buffer)
                if victim is None:
                    if trace is not None:
                        telemetry.discard(trace, "shed")
                    continue
                if telemetry is not None:
                    lost = telemetry.lookup(victim.source, victim.seq)
                    if lost is not None:
                        telemetry.discard(lost, "evicted")
            if not buffer.offer_many((item,)):
                counts.entities_submitted += 1
            elif trace is not None:
                telemetry.discard(trace, "late")

    def run(self, source: ObservationSource | Iterable[StreamItem]) -> list[Match]:
        """Drain one source completely (arrival order), then flush.

        Multiple sources: ``register_source`` each, then interleave
        :meth:`ingest` calls yourself (a delivery step may mix sources);
        ``run`` is the common single-source convenience.
        """
        name = getattr(source, "name", None)
        if isinstance(name, str):
            self.register_source(name)
        throttle = getattr(source, "throttle", None)
        if not callable(throttle):
            # A non-callable throttle attribute is a non-cooperating
            # source, not a crash waiting to happen.
            throttle = None
        matches: list[Match] = []
        for _, group in arrival_groups(source):
            matches.extend(self.ingest(group))
            if (
                throttle is not None
                and self.last_backpressure is not None
                and self.last_backpressure.engaged
            ):
                # Cooperative backpressure: a source exposing throttle()
                # is asked to slow down while pressure is on; sources
                # without one simply keep the shedding policy busy.
                throttle(self.last_backpressure)
        matches.extend(self.finish())
        return matches

    def finish(self) -> list[Match]:
        """Close every source and flush the buffer in event-time order.

        Anything still parked in the admission deferral queue is offered
        first — an item whose event tick the watermark passed while it
        waited is classified late here, which is the measured cost of
        deferring it.
        """
        if self.admission is not None:
            # A source closed mid-run no longer moves the watermark; its
            # flushed stragglers are offered (and usually found late)
            # without re-opening it.
            self._take(self.admission.flush_deferred())
        self.tracker.close_all()
        matches = self._flush(self.buffer.release_all())
        # Every source is closed now: there is no merged watermark left.
        self._end_step(None)
        return matches

    def _release(self, watermark: int | None) -> list[Match]:
        if watermark is None:
            if not self.tracker.all_closed:
                return []
            return self._flush(self.buffer.release_all())
        return self._flush(self.buffer.release(watermark))

    def _flush(self, released: Sequence[StreamItem]) -> list[Match]:
        """Submit released items to the engine, one batch per event tick."""
        telemetry = self.telemetry
        tracing = telemetry is not None and telemetry.enabled
        counts = self._counts
        matches: list[Match] = []
        for tick, run in groupby(released, key=_EVENT_TICK):
            group = list(run)
            counts.released_items += len(group)
            counts.batches_submitted += 1
            if tracing:
                self._trace_release(telemetry, group)
            if self.on_release is not None:
                self.on_release(tick, group)
            if self.engine is None:
                continue
            batch_matches = self.engine.submit_batch(
                [item.entity for item in group], tick
            )
            counts.matches += len(batch_matches)
            if self.on_match is not None:
                for match in batch_matches:
                    self.on_match(match)
            matches.extend(batch_matches)
        return matches

    def _trace_release(
        self, telemetry: Telemetry, group: Sequence[StreamItem]
    ) -> None:
        """Close the sampled traces of one released tick group.

        All stamps are ticks: the reorder span closes at the step clock,
        the watermark-hold span measures the value's age from its event
        tick to release, and the engine/merge/emit spans are zero-width
        in the tick domain (evaluation, merge arbitration and emission
        all happen within the releasing step).
        """
        lookup = telemetry.lookup
        complete = telemetry.complete
        step_now = telemetry.now
        for item in group:
            trace = lookup(item.source, item.seq)
            if trace is None:
                continue
            now = step_now if step_now is not None else item.event_tick
            trace.stamp_released(item.event_tick, now)
            complete(trace)

    # -- checkpoint / restore ------------------------------------------

    def snapshot(self) -> RuntimeCheckpoint:
        """Capture stream + engine state between delivery steps."""
        return RuntimeCheckpoint(
            stages={
                name: part.snapshot() for name, part in self.stages.items()
            },
            stats=replace(self._counts),
        )

    def restore(self, checkpoint: RuntimeCheckpoint) -> None:
        """Resume from a checkpoint taken on an equivalently built
        runtime (same parts; every part checks its own configuration —
        same lateness, same specs, same shard count, same trace stride).

        After restore, feeding the delivery steps the checkpointed
        runtime had not yet seen produces the identical remaining match
        stream.  A rejected checkpoint raises
        :class:`~repro.core.errors.ObserverError` and leaves the runtime
        exactly as it was.
        """
        if checkpoint.stages.keys() != self.stages.keys():
            differing = sorted(checkpoint.stages.keys() ^ self.stages.keys())
            raise ObserverError(
                f"checkpoint and runtime disagree about having "
                f"{differing}: a checkpoint restores only into a runtime "
                f"built with the same parts"
            )
        undo = self.snapshot()
        try:
            self._install(checkpoint)
        except Exception:
            # A part can refuse its snapshot after earlier parts took
            # theirs (lateness, trace stride, bucket state without a
            # rate limit, engine specs): put everything back before
            # re-raising.
            self._install(undo)
            raise
        # Recompute the backpressure signal from the restored occupancy
        # and deferral state: a paced source resuming from a checkpoint
        # taken under pressure must see that pressure immediately, not
        # run unthrottled for its first post-restore step.
        self._end_step(self.tracker.watermark())

    def _install(self, checkpoint: RuntimeCheckpoint) -> None:
        for name, part in self.stages.items():
            part.restore(checkpoint.stages[name])
        self._counts = replace(checkpoint.stats)
