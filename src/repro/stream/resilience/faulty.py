"""A fault-injecting, reconnectable wrapper around any observation source.

:class:`FaultySource` materializes a base source's delivery steps
(arrival-tick groups) and re-plays them with the faults of a
:class:`~repro.stream.resilience.faults.FaultPlan` injected: corrupted
copies precede their intact originals, duplicate bursts re-send recent
items, stalls shift every later arrival, and crash entries raise
:class:`~repro.stream.resilience.faults.SourceCrash` mid-step.

The wrapper is also the *transport half* of crash recovery.  It keeps a
consumer acknowledgement floor (:meth:`ack`) — the supervisor acks the
delivery step of every checkpoint it takes — and on :meth:`reconnect`
the next iteration resumes from **at or before** that floor: everything
delivered after the last ack (plus ``redelivery_overlap`` extra steps,
modelling acks lost in flight) is delivered *again*.  That is textbook
at-least-once delivery; the runtime's redelivery dedup is what turns it
into effectively exactly-once.

Redelivered and post-stall items keep their event ticks and sequence
numbers — only the *arrival* clock is shifted (by the reconnect backoff
delay and any stalls), and always by a per-suffix constant, so arrival
order stays non-decreasing and relative delivery-step structure is
preserved.  Event-time semantics (watermarks, lateness, release order)
are therefore untouched by the faults, which is why a recovered run can
reproduce the unfaulted golden digest byte-for-byte.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Iterable, Iterator

from repro.core.checkpoint import is_count
from repro.core.errors import ObserverError
from repro.stream.resilience.faults import (
    CorruptObservation,
    FaultPlan,
    SourceCrash,
)
from repro.stream.runtime import arrival_groups
from repro.stream.source import ObservationSource, StreamItem

__all__ = ["FaultySource", "RECENT_WINDOW"]

RECENT_WINDOW = 32
"""How many recently delivered items a duplicate burst can re-send."""


class FaultySource:
    """Inject a :class:`FaultPlan` around a base source; support
    ack/reconnect redelivery.

    Args:
        base: Source to wrap (consumed eagerly, grouped by arrival
            tick; must yield in arrival order).
        plan: The deterministic fault schedule.
        redelivery_overlap: Extra already-acknowledged delivery steps
            re-sent on every reconnect (acks lost in flight); the
            at-least-once duplicates the dedup layer must absorb.
    """

    def __init__(
        self,
        base: ObservationSource | Iterable[StreamItem],
        plan: FaultPlan | None = None,
        *,
        redelivery_overlap: int = 1,
    ):
        if not is_count(redelivery_overlap):
            raise ObserverError(
                f"redelivery_overlap must be a non-negative int: "
                f"{redelivery_overlap!r}"
            )
        # Faults never change an item's identity: the source keeps the
        # base source's name.
        base_name = getattr(base, "name", None)
        self.name = base_name if isinstance(base_name, str) else "faulty"
        self.plan = plan if plan is not None else FaultPlan()
        self.redelivery_overlap = redelivery_overlap
        self._groups: list[list[StreamItem]] = [
            group for _, group in arrival_groups(base)
        ]
        self._crash_queue: deque[tuple[int, int]] = deque(self.plan.crashes)
        self._stalls_applied: set[int] = set()
        self._recent: deque[StreamItem] = deque(maxlen=RECENT_WINDOW)
        self._acked = 0
        self._resume = 0
        self._offset = 0
        self._last_arrival: int | None = None
        self.crash_count = 0

    # -- stream identity -----------------------------------------------

    def __len__(self) -> int:
        """Observations in the *base* stream (injected extras excluded)."""
        return sum(len(group) for group in self._groups)

    @property
    def steps(self) -> int:
        """Delivery steps (arrival-tick groups) in the base stream."""
        return len(self._groups)

    # -- consumer acknowledgement / reconnection -----------------------

    def ack(self, step: int) -> None:
        """Mark delivery steps below ``step`` durably consumed.

        The supervisor calls this with the step of every checkpoint it
        takes; redelivery after a crash restarts from (at or before)
        the highest acknowledged step, never later.
        """
        if step < 0:
            raise ObserverError(f"cannot ack a negative step: {step}")
        self._acked = max(self._acked, min(step, len(self._groups)))

    def reconnect(self, delay: int = 0) -> int:
        """Re-open the stream after a crash; returns the resume step.

        The next iteration re-delivers from
        ``max(0, acked - redelivery_overlap)`` with every arrival tick
        shifted so the first redelivered item lands at least ``delay``
        ticks after the last pre-crash delivery — the supervisor's
        backoff, measured on the arrival clock.  The shift is a single
        constant for the whole suffix, so arrival order and step
        structure are preserved.
        """
        if delay < 0:
            raise ObserverError(f"reconnect delay cannot be negative: {delay}")
        resume = max(0, self._acked - self.redelivery_overlap)
        # The retransmit window dies with the connection: a duplicate
        # burst after reconnect may only copy items re-sent in the new
        # epoch.  A stale pre-crash window could re-send an item from
        # *after* the consumer's rolled-back state — which is not a
        # duplicate there, but a genuine out-of-order first delivery
        # that would corrupt its watermark.
        self._recent.clear()
        if self._last_arrival is not None and resume < len(self._groups):
            target = self._last_arrival + delay
            first = self._groups[resume][0].arrival_tick + self._offset
            if first < target:
                self._offset += target - first
        self._resume = resume
        return resume

    # -- iteration with fault injection --------------------------------

    def _stamp(self, item: StreamItem, arrival: int) -> StreamItem:
        self._last_arrival = arrival
        if arrival == item.arrival_tick:
            return item
        return replace(item, arrival_tick=arrival)

    def __iter__(self) -> Iterator[StreamItem]:
        step = self._resume
        while step < len(self._groups):
            group = self._groups[step]
            stall = self.plan.stalls.get(step, 0)
            if stall and step not in self._stalls_applied:
                self._stalls_applied.add(step)
                self._offset += stall
            arrival = group[0].arrival_tick + self._offset
            crash_after: int | None = None
            if self._crash_queue and self._crash_queue[0][0] == step:
                crash_after = min(self._crash_queue[0][1], len(group))
            for index in range(min(self.plan.corruptions.get(step, 0),
                                   len(group))):
                original = group[index]
                yield self._stamp(
                    replace(
                        original,
                        entity=CorruptObservation(
                            source=original.source, seq=original.seq
                        ),
                    ),
                    arrival,
                )
            if (
                crash_after is None
                and not self._offset
                and not self.plan.duplicates
            ):
                # Nothing can interrupt, restamp or re-send this group:
                # no crash pending here, no arrival shift, and no burst
                # anywhere in the plan that would read the retransmit
                # window.  Deliver it as-is — the fault-free wrapper
                # must cost (almost) nothing, it is the common case the
                # supervision-overhead gate measures.
                self._last_arrival = arrival
                yield from group
                step += 1
                continue
            delivered = 0
            for item in group:
                if crash_after is not None and delivered >= crash_after:
                    self._crash(step, delivered)
                yield self._stamp(item, arrival)
                self._recent.append(item)
                delivered += 1
            if crash_after is not None and delivered >= crash_after:
                self._crash(step, delivered)
            burst = self.plan.duplicates.get(step, 0)
            if burst:
                for copy in list(self._recent)[-burst:]:
                    yield self._stamp(copy, arrival)
            step += 1
        self._resume = step

    def _crash(self, step: int, delivered: int) -> None:
        self._crash_queue.popleft()
        self.crash_count += 1
        raise SourceCrash(
            f"source {self.name!r} crashed at delivery step {step} after "
            f"{delivered} item(s)",
            step=step,
            delivered=delivered,
        )
