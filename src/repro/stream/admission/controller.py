"""The admission front end: rate limits, deferral, caps and accounting.

An :class:`AdmissionController` sits between a delivery step and the
reorder buffer, mempool-style.  Per delivery step it decides, for every
observation, one of four fates — **admit** (offer to the buffer now),
**defer** (hold in a bounded FIFO until the source's token bucket
refills), **shed** (reject, counted, never silent) — with the fourth,
**late**, decided downstream by the buffer's release frontier.  The
controller also owns the whole step taken when the buffer is at its
occupancy cap (:meth:`AdmissionController.make_room`: the shedding
rule, the eviction, the shed count), and the test of whether producers
should slow down (:meth:`AdmissionController.engaged`).

Everything is deterministic (tick-driven buckets, stateless rules) and
everything is checkpointable: :meth:`AdmissionController.snapshot`
captures deferred items, bucket levels and its counters, so a
:class:`~repro.stream.runtime.RuntimeCheckpoint` taken from an actively
shedding runtime restores to an identical remaining stream.

Every runtime holds one controller.  With no limits configured (the
default :class:`AdmissionLimits`) it admits everything unconditionally
and costs nothing per step: :meth:`AdmissionController.intake` hands the
step back as it came, and the per-step backpressure test reads two
``None`` limits.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.checkpoint import (
    CONFIG,
    COUNT,
    NUMBER,
    REAL,
    TICK_OR_NONE,
    Domain,
    Restorable,
    by_name,
    check,
    declared,
    is_count,
    shaped,
)
from repro.core.errors import ObserverError
from repro.stream.admission.limiter import TokenBucket
from repro.stream.reorder import ReorderBuffer
from repro.stream.source import STREAM_ITEMS, StreamItem

__all__ = [
    "AdmissionLimits",
    "AdmissionController",
    "AdmissionSnapshot",
]

SHEDDING_RULES = ("drop_oldest_late", "drop_lowest_priority")
"""The two at-cap rules: evict the event-time-oldest buffered item and
offer the arrival in its place, or shed the arrival itself (every
observation is in one class, so nothing buffered ranks below it)."""

BACKPRESSURE_RATIO = 0.75
"""Fill fraction at which backpressure engages: of
``max_pending`` on the occupancy path, of ``max_deferred`` on the
deferral path."""


_CAP = Domain("a count or None", lambda v: v is None or is_count(v))
_RATE = Domain(
    "a positive finite real number or None",
    lambda v: v is None or (REAL.test(v) and 0 < v < math.inf),
)
_BURST = Domain(
    "a finite real number >= 1", lambda v: REAL.test(v) and 1 <= v < math.inf
)


@dataclass(frozen=True)
class AdmissionLimits:
    """The resource envelope the streaming runtime promises to hold.

    Args:
        max_pending: Reorder-buffer occupancy cap (``None`` =
            unbounded).  At the cap the shedding rule picks who loses;
            a cap of ``0`` sheds every in-order observation and reads as
            permanently saturated backpressure.
        rate: Per-source token-bucket refill in admissions per arrival
            tick, positive and finite (``None`` = no rate limiting).  A
            rate limit adds a precondition on every delivery step:
            arrival ticks must be non-decreasing along the step (across
            sources too) and no earlier than the buckets they touch last
            saw — see :meth:`AdmissionController.ensure_clock`; a step
            that breaks it is refused whole.
        burst: Per-source bucket capacity (largest co-arriving group
            admitted after a quiet period); finite and at least 1.
        max_deferred: Cap on the deferral FIFO holding over-rate
            arrivals (``None`` = unbounded deferral; ``0`` = shed
            immediately instead of deferring).
    """

    max_pending: int | None = declared(_CAP, default=None)
    rate: float | None = declared(_RATE, default=None)
    burst: float = declared(_BURST, default=1.0)
    max_deferred: int | None = declared(_CAP, default=None)

    def __post_init__(self) -> None:
        # Checked here, not when the first token bucket is built: by then
        # the screens ahead of admission have recorded the step.
        check(self, AdmissionLimits)


@dataclass(frozen=True)
class AdmissionSnapshot:
    """Checkpoint of a controller's mutable state, with the limits and
    shedding rule it was taken under: the restoring controller must be
    configured the same (:meth:`AdmissionController.restore` refuses
    other settings)."""

    limits: AdmissionLimits = declared(CONFIG)
    shedding: str = declared(CONFIG)
    deferred: tuple[StreamItem, ...] = declared(STREAM_ITEMS)
    buckets: Mapping[str, tuple[float, int | None]] = declared(
        by_name(shaped(NUMBER, TICK_OR_NONE))
    )
    """Per source, ``TokenBucket.state()``: ``(tokens, last_tick)``."""
    shed_total: int = declared(COUNT)
    deferred_total: int = declared(COUNT)


@dataclass
class AdmissionController(Restorable):
    """Per-source rate limiting, bounded deferral and measured shedding.

    Args:
        limits: The resource envelope (see :class:`AdmissionLimits`).
        shedding: The at-cap rule, one of :data:`SHEDDING_RULES`:
            ``drop_oldest_late`` (the default) evicts the
            event-time-oldest buffered item, ``drop_lowest_priority``
            sheds the arrival.
    """

    limits: AdmissionLimits = field(default_factory=AdmissionLimits)
    shedding: str = "drop_oldest_late"

    def __post_init__(self) -> None:
        if type(self.shedding) is not str or (
            self.shedding not in SHEDDING_RULES
        ):
            raise ObserverError(
                f"unknown shedding rule {self.shedding!r}; "
                f"built-ins: {', '.join(SHEDDING_RULES)}"
            )
        self.shed_total = 0
        """Observations shed so far, at the cap or on deferral
        overflow."""
        self.deferred_total = 0
        """Observations parked in the deferral queue so far, each
        counted once."""
        self._deferred: deque[StreamItem] = deque()
        self._buckets: dict[str, TokenBucket] = {}

    # -- intake --------------------------------------------------------

    def metrics_view(self) -> dict[str, object]:
        """Controller state as a flat metric mapping (read-only).

        The observability layer's sampling surface — deferral depth,
        the shed count and per-source token-bucket levels; reading never
        admits, defers or refills anything.
        """
        return {
            "deferred_depth": len(self._deferred),
            "shed_total": self.shed_total,
            "bucket_levels": {
                source: self._buckets[source].tokens
                for source in sorted(self._buckets)
            },
        }

    def _bucket(self, source: str) -> TokenBucket:
        bucket = self._buckets.get(source)
        if bucket is None:
            assert self.limits.rate is not None
            bucket = TokenBucket(self.limits.rate, self.limits.burst)
            self._buckets[source] = bucket
        return bucket

    def ensure_clock(self, items: Sequence[StreamItem]) -> None:
        """Validate that this step runs no token bucket's clock
        backwards (raise otherwise).

        The pre-mutation check :meth:`StreamingDetectionRuntime.ingest`
        runs after ``ensure_live``: a token bucket refuses a
        regressing clock, and would refuse it from inside
        :meth:`intake` — after the screens ahead of admission recorded
        the step and after earlier items took their tokens.  Under a
        rate limit a step must therefore satisfy, whatever part of it
        survives screening (any survivor may come first, and the first
        one's tick is the ``now`` the deferred items are re-offered at):
        arrival ticks do not decrease along the step, across sources as
        well as within one; no deferred item's bucket is ahead of the
        step's first tick; no item's own bucket is ahead of the item.
        Without a rate limit there are no clocks and nothing is checked.
        """
        if self.limits.rate is None or not items:
            return
        now = items[0].arrival_tick
        for source in {item.source for item in self._deferred}:
            self._ensure_not_ahead(source, now)
        for item in items:
            if item.arrival_tick < now:
                raise ObserverError(
                    f"arrival ticks regress from {now} to "
                    f"{item.arrival_tick} within one delivery step; the "
                    "step was rejected before any item was admitted"
                )
            now = item.arrival_tick
            self._ensure_not_ahead(item.source, now)

    def _ensure_not_ahead(self, source: str, now: int) -> None:
        bucket = self._buckets.get(source)
        if bucket is None or bucket.last_tick is None:
            return
        if bucket.last_tick > now:
            raise ObserverError(
                f"source {source!r}'s token bucket clock would regress "
                f"from {bucket.last_tick} to {now}; the delivery step was "
                "rejected before any item was admitted"
            )

    def intake(self, items: Sequence[StreamItem]) -> Sequence[StreamItem]:
        """Classify one delivery step: the items admitted now, in order
        (the step itself when there is no rate limit).

        Previously deferred items are re-considered first (their
        sources' buckets have refilled by the step's arrival tick), so
        the deferral queue drains FIFO as capacity appears.  The rest
        are deferred (:attr:`deferred_total`) or, on deferral overflow,
        shed (:attr:`shed_total`) — both counted here, the one count of
        each there is.
        """
        if self.limits.rate is None:
            return items  # nothing defers without a rate limit
        admitted: list[StreamItem] = []
        if items and self._deferred:
            now = items[0].arrival_tick
            still: deque[StreamItem] = deque()
            for item in self._deferred:
                if self._bucket(item.source).try_take(now):
                    admitted.append(item)
                else:
                    still.append(item)
            self._deferred = still
        for item in items:
            if self._bucket(item.source).try_take(item.arrival_tick):
                admitted.append(item)
            elif (
                self.limits.max_deferred is None
                or len(self._deferred) < self.limits.max_deferred
            ):
                self._deferred.append(item)
                self.deferred_total += 1
            else:
                self.shed_total += 1
        return admitted

    def flush_deferred(self) -> list[StreamItem]:
        """Hand back everything still deferred (end of stream).

        Flushed items go through the ordinary offer path — anything
        whose event tick the watermark passed while it waited is
        classified late there, which is exactly the deferral cost the
        recall measurement reports.
        """
        items = list(self._deferred)
        self._deferred.clear()
        return items

    # -- occupancy-cap shedding ----------------------------------------

    def make_room(
        self, incoming: StreamItem, buffer: ReorderBuffer
    ) -> StreamItem | None:
        """Take the whole at-cap step for ``incoming``: under
        ``drop_oldest_late`` evict and return the event-time-oldest
        buffered item (offer ``incoming`` now); under
        ``drop_lowest_priority``, or with nothing buffered, shed
        ``incoming`` and return ``None`` (not ``incoming``: without a
        deduper the same object may also sit in the buffer).  Either
        loser is counted in :attr:`shed_total`."""
        self.shed_total += 1
        if self.shedding == "drop_oldest_late":
            return buffer.evict_oldest()
        return None

    # -- backpressure --------------------------------------------------

    def engaged(self, occupancy: int) -> bool:
        """Whether producers should slow down: the worse fill level —
        occupancy against ``max_pending`` (a cap of 0 sheds every
        in-order offer: saturated by configuration), deferral depth
        against ``max_deferred`` (saturated once anything is parked when
        deferral is unbounded) — reaches :data:`BACKPRESSURE_RATIO`;
        never with no limits."""
        level = 0.0
        cap = self.limits.max_pending
        if cap is not None:
            level = occupancy / cap if cap else 1.0
        if self._deferred:
            cap = self.limits.max_deferred
            level = max(level, len(self._deferred) / cap if cap else 1.0)
        return level >= BACKPRESSURE_RATIO

    # -- checkpoint / restore ------------------------------------------

    def snapshot(self) -> AdmissionSnapshot:
        """Capture deferred items, bucket levels and counters."""
        return AdmissionSnapshot(
            limits=self.limits,
            shedding=self.shedding,
            deferred=tuple(self._deferred),
            buckets={
                source: bucket.state()
                for source, bucket in self._buckets.items()
            },
            shed_total=self.shed_total,
            deferred_total=self.deferred_total,
        )

    def ensure_restorable(self, snapshot: AdmissionSnapshot) -> None:
        """Refuse other limits or shedding rule (a cap or rate limit would
        move mid-stream), bucket or deferral state without a rate limit,
        and a bucket outside ``0 <= tokens <= burst``."""
        mine = {"limits": self.limits, "shedding": self.shedding}
        check(snapshot, AdmissionSnapshot, **mine)
        stateful = snapshot.buckets or snapshot.deferred
        if stateful and self.limits.rate is None:
            raise ObserverError(
                "AdmissionSnapshot.buckets and .deferred hold state, but "
                "this controller has no rate limit configured"
            )
        for source, (tokens, _) in snapshot.buckets.items():
            if not 0 <= tokens <= self.limits.burst:
                raise ObserverError(
                    f"AdmissionSnapshot.buckets gives source {source!r} "
                    f"{tokens!r} tokens, outside 0..{self.limits.burst}"
                )

    def install(self, snapshot: AdmissionSnapshot) -> None:
        """Reload controller state from an accepted snapshot."""
        rate, burst = self.limits.rate, self.limits.burst
        self._buckets = {}
        for source, state in snapshot.buckets.items():
            self._buckets[source] = bucket = TokenBucket(rate, burst)
            bucket.restore(state)
        self._deferred = deque(snapshot.deferred)
        self.shed_total = snapshot.shed_total
        self.deferred_total = snapshot.deferred_total
