"""Deterministic discrete-event simulation kernel.

The paper's architecture is hardware (motes, sinks, CCUs, radios); this
kernel is the substitution that lets the whole system run on a laptop:
a classic event-queue simulator over the discrete time model of
Section 4.  Every dynamic component (sampling loops, packet delivery,
condition evaluation, actuation) is a callback scheduled at an integer
tick; runs are fully deterministic given a seed, which the test suite
and the benchmark harness rely on.

Design notes:

* Within a tick callbacks run by (priority, insertion order), lowest
  priority number first: packet deliveries (:data:`PRIORITY_NETWORK`,
  0), observer batch-ingest flushes (:data:`PRIORITY_INGEST`, 1), the
  physical world's step (:data:`PRIORITY_WORLD`, 5), then ordinary work
  (:data:`PRIORITY_DEFAULT`, 10: sampling, bus deliveries, actuation).
  So a flush ingests every *packet* of its tick as one batch and a mote
  samples a world already stepped; bus deliveries are ordinary work, so
  the flush the first one schedules pre-empts the rest (see
  :meth:`repro.cps.component.ObserverComponent.enqueue`).
* The heap holds ``(tick, priority, seq, handle)`` tuples: sifts compare
  in C and never reach the handle, because ``seq`` is unique.
* :meth:`Simulator.every` installs a periodic process; the callback may
  return ``False`` to stop rescheduling itself.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.core.errors import SchedulingError, SimulationError
from repro.core.time_model import TimePoint

__all__ = [
    "Simulator",
    "PRIORITY_NETWORK",
    "PRIORITY_INGEST",
    "PRIORITY_WORLD",
    "PRIORITY_DEFAULT",
]

PRIORITY_NETWORK = 0
"""Queue priority for packet deliveries (run first within a tick)."""

PRIORITY_INGEST = 1
"""Queue priority for observer batch-ingest flushes."""

PRIORITY_WORLD = 5
"""Queue priority for the physical world's dynamics step."""

PRIORITY_DEFAULT = 10
"""Queue priority for ordinary scheduled work."""


class EventHandle:
    """One scheduled callback: the queue entry of a firing.

    A periodic process keeps one handle, pushed again after each firing.

    Attributes:
        tick: Tick of the (next) firing.
    """

    __slots__ = ("tick", "_callback", "_every")

    def __init__(
        self,
        tick: int,
        callback: Callable[[], object],
        every: tuple[int, int] | None = None,
    ):
        self.tick = tick
        self._callback = callback
        self._every = every  # (period, priority) of a periodic process


class Simulator:
    """Discrete-event simulator with a deterministic run loop.

    Args:
        seed: Seed for the simulator's random streams (see
            :class:`repro.sim.rng.RngStreams`); recorded for traceability.
    """

    def __init__(self, seed: int = 0):
        from repro.sim.rng import RngStreams  # local import avoids a cycle

        self.seed = seed
        self.rng = RngStreams(seed)
        self._queue: list[tuple[int, int, int, EventHandle]] = []
        self._seq = itertools.count()
        self._tick = 0
        self._running = False
        self._processed = 0

    def _push(self, handle: EventHandle, priority: int) -> None:
        # With run(until) refusing to rewind, this check at every way in
        # is why the loop never pops an entry from the past or off the ints.
        if type(handle.tick) is not int or handle.tick < self._tick:
            raise SchedulingError(
                f"cannot schedule at tick {handle.tick!r}; "
                f"current tick is {self._tick}"
            )
        heapq.heappush(
            self._queue, (handle.tick, priority, next(self._seq), handle)
        )

    # -- time --------------------------------------------------------

    @property
    def now(self) -> TimePoint:
        """Current simulation time as a :class:`TimePoint`."""
        return TimePoint(self._tick)

    @property
    def tick(self) -> int:
        """Current simulation time as a raw tick count."""
        return self._tick

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._processed

    # -- scheduling --------------------------------------------------

    def schedule(
        self,
        delay: int,
        callback: Callable[[], None],
        priority: int = PRIORITY_DEFAULT,
    ) -> None:
        """Run ``callback`` ``delay`` ticks from now.

        Args:
            delay: Non-negative tick offset (0 = later this tick).
            callback: Zero-argument callable.
            priority: Within-tick ordering; lower runs first.

        Raises:
            SchedulingError: If ``delay`` is negative or not an int.
        """
        if type(delay) is not int or delay < 0:
            raise SchedulingError(f"delay must be an int >= 0, got {delay!r}")
        self._push(EventHandle(self._tick + delay, callback), priority)

    def schedule_at(
        self,
        tick: int,
        callback: Callable[[], None],
        priority: int = PRIORITY_DEFAULT,
    ) -> None:
        """Run ``callback`` at absolute ``tick`` (must not be in the past)."""
        self._push(EventHandle(tick, callback), priority)

    def every(
        self,
        period: int,
        callback: Callable[[], object],
        start: int | None = None,
        priority: int = PRIORITY_DEFAULT,
    ) -> None:
        """Install a periodic process firing every ``period`` ticks.

        Args:
            period: Positive tick period.
            callback: Called each firing; returning ``False`` (exactly)
                stops the process.
            start: Absolute tick of the first firing, not in the past
                (defaults to ``now + period``).
            priority: Within-tick ordering.

        The process keeps one queue entry, pushed again after each
        firing.
        """
        if type(period) is not int or period <= 0:
            raise SchedulingError(f"period must be an int >= 1, got {period!r}")
        first = self._tick + period if start is None else start
        self._push(EventHandle(first, callback, (period, priority)), priority)

    # -- run loop ----------------------------------------------------

    def _drain(self, until: int | None) -> None:
        """Fire due callbacks in queue order, up to the first entry
        later than ``until``."""
        queue = self._queue
        pop = heapq.heappop
        while queue:
            tick = queue[0][0]
            if until is not None and tick > until:
                break
            handle = pop(queue)[3]
            self._tick = tick
            self._processed += 1
            if handle._every is None:
                handle._callback()
            elif handle._callback() is not False:
                period, priority = handle._every
                handle.tick = self._tick + period
                self._push(handle, priority)

    def run(self, until: int | None = None) -> int:
        """Run until the queue drains or ``until`` is reached.

        Args:
            until: Inclusive tick bound, not below the current tick;
                callbacks scheduled later stay queued (resumable).  The
                clock ends on ``until``.

        Returns:
            The tick at which the run ended.

        Raises:
            SchedulingError: If ``until`` is in the past (nothing moves).
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        if until is not None and until < self._tick:
            raise SchedulingError(
                f"cannot run until tick {until}; current tick is {self._tick}"
            )
        self._running = True
        try:
            self._drain(until)
        finally:
            self._running = False
        if until is not None:
            self._tick = until
        return self._tick

    @property
    def pending(self) -> int:
        """Number of queued entries."""
        return len(self._queue)
