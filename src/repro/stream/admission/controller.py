"""The admission front end: rate limits, deferral, caps and accounting.

An :class:`AdmissionController` sits between a delivery step and the
reorder buffer, mempool-style.  Per delivery step it decides, for every
observation, one of four fates — **admit** (offer to the buffer now),
**defer** (hold in a bounded FIFO until the source's token bucket
refills), **shed** (reject, counted, never silent) — with the fourth,
**late**, decided downstream by the buffer's release frontier.  The
controller also owns the whole step taken when the buffer is at its
occupancy cap (:meth:`AdmissionController.make_room`: policy, eviction,
per-class shed accounting), and the :class:`~repro.stream.admission.backpressure.Backpressure`
signal handed back to producers.

Everything is deterministic (tick-driven buckets, seedless policies)
and everything is checkpointable: :meth:`AdmissionController.snapshot`
captures deferred items, bucket levels, policy state and its counters,
so a :class:`~repro.stream.runtime.RuntimeCheckpoint` taken from an
actively shedding runtime restores to an identical remaining stream.

With no limits configured (the default :class:`AdmissionLimits`), the
controller admits everything unconditionally — installing it is
behavior-identical to running without one, which is what lets the
golden-trace conformance suite pin that admission is a strict superset
of the unbounded runtime.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.errors import ObserverError
from repro.stream.admission.backpressure import Backpressure
from repro.stream.admission.limiter import TokenBucket
from repro.stream.admission.policy import SheddingPolicy, resolve_policy
from repro.stream.admission.priority import PriorityMap
from repro.stream.reorder import DEFAULT_LATE_RETENTION, ReorderBuffer
from repro.stream.source import StreamItem

__all__ = [
    "AdmissionLimits",
    "AdmissionController",
    "AdmissionSnapshot",
]


@dataclass(frozen=True)
class AdmissionLimits:
    """The resource envelope the streaming runtime promises to hold.

    Args:
        max_pending: Reorder-buffer occupancy cap (``None`` =
            unbounded).  At the cap the shedding policy picks who loses;
            a cap of ``0`` sheds every in-order observation and reads as
            permanently saturated backpressure.
        late_retention: Cap on *retained* late items (the exact late
            count is never capped; see
            :attr:`~repro.stream.reorder.ReorderBuffer.late_count`).
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
        backpressure_ratio: Fill fraction at which the backpressure
            signal engages — of ``max_pending`` on the occupancy path
            and of ``max_deferred`` on the deferral path.  With
            unbounded deferral (``max_deferred=None``) any parked item
            engages the signal: nothing but bucket refill drains the
            queue, so a cooperating producer should slow down at once.
    """

    max_pending: int | None = None
    late_retention: int | None = DEFAULT_LATE_RETENTION
    rate: float | None = None
    burst: float = 1.0
    max_deferred: int | None = None
    backpressure_ratio: float = 0.75

    def __post_init__(self) -> None:
        if self.max_pending is not None and self.max_pending < 0:
            raise ObserverError(
                f"max_pending cannot be negative: {self.max_pending}"
            )
        if self.max_deferred is not None and self.max_deferred < 0:
            raise ObserverError(
                f"max_deferred cannot be negative: {self.max_deferred}"
            )
        if not 0.0 < self.backpressure_ratio <= 1.0:
            raise ObserverError(
                "backpressure_ratio must be in (0, 1]: "
                f"{self.backpressure_ratio}"
            )
        # Checked here, not when the first token bucket is built: by then
        # the screens ahead of admission have recorded the step.
        if self.rate is not None and not 0 < self.rate < math.inf:
            raise ObserverError(
                f"rate must be positive and finite: {self.rate}"
            )
        if not 1 <= self.burst < math.inf:
            raise ObserverError(
                f"burst must be finite and at least 1: {self.burst}"
            )


@dataclass(frozen=True)
class AdmissionSnapshot:
    """Checkpoint of a controller's mutable state (config excluded —
    the restoring controller must be configured equivalently, like the
    engine behind an :class:`~repro.detect.engine.EngineSnapshot`)."""

    deferred: tuple[StreamItem, ...]
    buckets: Mapping[str, tuple[float, int | None]]
    policy_state: Mapping[str, int]
    shed_by_priority: Mapping[str, int]
    deferred_total: int


@dataclass
class AdmissionController:
    """Per-source rate limiting, bounded deferral and measured shedding.

    Args:
        limits: The resource envelope (see :class:`AdmissionLimits`).
        priorities: Admission classes per item (default: everything
            ``OPERATIONAL``).
        shedding: A :class:`~repro.stream.admission.policy.SheddingPolicy`
            instance or built-in name (``drop_oldest_late`` /
            ``drop_lowest_priority`` / ``degrade_to_sampling``).
    """

    limits: AdmissionLimits = field(default_factory=AdmissionLimits)
    priorities: PriorityMap = field(default_factory=PriorityMap)
    shedding: SheddingPolicy | str = "drop_oldest_late"

    def __post_init__(self) -> None:
        self.policy = resolve_policy(self.shedding)
        self.policy_state: dict[str, int] = {}
        self.shed_by_priority: dict[str, int] = {}
        self.deferred_total = 0
        """Observations parked in the deferral queue so far, each
        counted once."""
        self._deferred: deque[StreamItem] = deque()
        self._buckets: dict[str, TokenBucket] = {}

    # -- intake --------------------------------------------------------

    @property
    def deferred_depth(self) -> int:
        """Items currently parked in the deferral queue."""
        return len(self._deferred)

    @property
    def shed_total(self) -> int:
        """Observations shed so far, across every priority class."""
        return sum(self.shed_by_priority.values())

    def metrics_view(self) -> dict[str, object]:
        """Controller state as a flat metric mapping (read-only).

        The observability layer's sampling surface — deferral depth,
        per-priority shed counts (sorted for deterministic export) and
        per-source token-bucket levels; reading never admits, defers or
        refills anything.
        """
        return {
            "deferred_depth": len(self._deferred),
            "shed_total": self.shed_total,
            "shed_by_priority": dict(sorted(self.shed_by_priority.items())),
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
        runs next to ``ensure_open``: a token bucket refuses a
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

    def intake(self, items: Sequence[StreamItem]) -> list[StreamItem]:
        """Classify one delivery step: the items admitted now, in order.

        Previously deferred items are re-considered first (their
        sources' buckets have refilled by the step's arrival tick), so
        the deferral queue drains FIFO as capacity appears.  The rest
        are deferred (:attr:`deferred_total`) or, on deferral overflow,
        shed (:meth:`note_shed`) — both counted here, the one count of
        each there is.
        """
        if self.limits.rate is None:
            admitted = [*self._deferred, *items]  # rate lifted: drain all
            self._deferred.clear()
            return admitted
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
                self.note_shed(item)
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
        """Take the whole at-cap step for ``incoming``: evict and return
        the buffered victim the policy names (offer ``incoming`` now), or
        shed ``incoming`` and return ``None`` (not ``incoming``: without
        a deduper the same object may also sit in the buffer).  Either
        loser is counted (:meth:`note_shed`)."""
        victim = self.policy.make_room(
            incoming, buffer, self.priorities, self.policy_state
        )
        if victim is None:
            self.note_shed(incoming)
            return None
        if not buffer.evict_item(victim):
            raise ObserverError(
                "shedding policy named a victim that is not in the "
                "reorder buffer"
            )
        self.note_shed(victim)
        return victim

    def note_shed(self, item: StreamItem) -> None:
        """Record one shed observation in the per-class breakdown."""
        name = self.priorities.of(item).name
        self.shed_by_priority[name] = self.shed_by_priority.get(name, 0) + 1

    # -- backpressure --------------------------------------------------

    def backpressure(
        self, occupancy: int, watermark: int | None
    ) -> Backpressure:
        """The pressure signal for the current buffer/deferral state.

        Each bounded dimension reports its own fill level — occupancy
        against ``max_pending`` (a cap of 0 sheds every in-order offer,
        so it is saturated by configuration), deferral depth against
        ``max_deferred`` (saturated the moment anything is parked when
        deferral is unbounded).  The signal engages when either level
        reaches :attr:`AdmissionLimits.backpressure_ratio`.
        """
        ratio = self.limits.backpressure_ratio
        occupancy_level = 0.0
        if self.limits.max_pending is not None:
            occupancy_level = (
                occupancy / self.limits.max_pending
                if self.limits.max_pending
                else 1.0
            )
        deferral_level = 0.0
        if self._deferred:
            if self.limits.max_deferred:
                deferral_level = len(self._deferred) / self.limits.max_deferred
            else:
                deferral_level = 1.0  # unbounded deferral piling up
        engaged = (
            self.limits.max_pending is not None and occupancy_level >= ratio
        ) or (bool(self._deferred) and deferral_level >= ratio)
        level = max(occupancy_level, deferral_level)
        return Backpressure(
            engaged=engaged,
            level=min(1.0, level),
            occupancy=occupancy,
            pending_limit=self.limits.max_pending,
            deferred=len(self._deferred),
            watermark=watermark,
        )

    # -- checkpoint / restore ------------------------------------------

    def snapshot(self) -> AdmissionSnapshot:
        """Capture deferred items, bucket levels, policy state, counters."""
        return AdmissionSnapshot(
            deferred=tuple(self._deferred),
            buckets={
                source: bucket.state()
                for source, bucket in self._buckets.items()
            },
            policy_state=dict(self.policy_state),
            shed_by_priority=dict(self.shed_by_priority),
            deferred_total=self.deferred_total,
        )

    def restore(self, snapshot: AdmissionSnapshot) -> None:
        """Reload controller state (the config must match the one the
        snapshot was taken under, as with engine snapshots)."""
        if snapshot.buckets and self.limits.rate is None:
            raise ObserverError(
                "checkpoint carries token-bucket state but this "
                "controller has no rate limit configured"
            )
        self._deferred = deque(snapshot.deferred)
        self._buckets = {}
        for source, state in snapshot.buckets.items():
            bucket = TokenBucket(self.limits.rate, self.limits.burst)
            bucket.restore(state)
            self._buckets[source] = bucket
        self.policy_state = dict(snapshot.policy_state)
        self.shed_by_priority = dict(snapshot.shed_by_priority)
        self.deferred_total = snapshot.deferred_total
