"""Differential oracle for the simulation kernel (hypothesis, stateful).

The kernel's queue is a heap of ``(tick, priority, seq, handle)`` tuples
and one handle that a periodic process pushes again after every firing.
The reference below has neither: a plain list kept sorted by ``(tick,
priority, insertion)``.  Slow, and obviously right.  A state machine
drives both through the same ``schedule`` / ``schedule_at`` / ``every``
/ ``run(until)`` calls — with callbacks that schedule more
work from inside a firing — and requires the same execution order,
``tick``, ``events_processed`` and ``pending`` after each operation.

Refused calls — a delay, an absolute tick, a first firing or an
``until`` in the past — must raise ``SchedulingError`` on both sides and
change nothing.
"""

import bisect
import functools

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.core.errors import SchedulingError
from repro.sim.kernel import (
    PRIORITY_DEFAULT,
    PRIORITY_INGEST,
    PRIORITY_NETWORK,
    PRIORITY_WORLD,
    Simulator,
)

PRIORITIES = (
    PRIORITY_NETWORK, PRIORITY_INGEST, PRIORITY_WORLD, PRIORITY_DEFAULT
)
ACTIONS = ("nothing", "schedule")


class ReferenceHandle:
    def __init__(self, tick, callback, period, priority):
        self.tick = tick
        self.callback = callback
        self.period = period
        self.priority = priority


class ReferenceKernel:
    """The kernel as a sorted list."""

    def __init__(self):
        self.tick = 0
        self.events_processed = 0
        self.entries = []  # (tick, priority, insertion, handle), sorted
        self.insertions = 0

    @property
    def pending(self):
        return len(self.entries)

    def push(self, handle):
        if handle.tick < self.tick:
            raise SchedulingError("in the past")
        bisect.insort(
            self.entries,
            (handle.tick, handle.priority, self.insertions, handle),
        )
        self.insertions += 1

    def schedule(self, delay, callback, priority=PRIORITY_DEFAULT):
        if delay < 0:
            raise SchedulingError("negative delay")
        self.schedule_at(self.tick + delay, callback, priority)

    def schedule_at(self, tick, callback, priority=PRIORITY_DEFAULT):
        self.push(ReferenceHandle(tick, callback, 0, priority))

    def every(self, period, callback, start=None, priority=PRIORITY_DEFAULT):
        if period <= 0:
            raise SchedulingError("period must be positive")
        first = self.tick + period if start is None else start
        self.push(ReferenceHandle(first, callback, period, priority))

    def fire_first(self):
        tick, _, _, handle = self.entries.pop(0)
        self.tick = tick
        self.events_processed += 1
        result = handle.callback()
        if handle.period and result is not False:
            handle.tick = self.tick + handle.period
            self.push(handle)

    def run(self, until=None):
        if until is not None and until < self.tick:
            raise SchedulingError("until is in the past")
        while self.entries:
            if until is not None and self.entries[0][0] > until:
                break
            self.fire_first()
        if until is not None:
            self.tick = until
        return self.tick


class Side:
    """One kernel with its job count and the execution log of its run."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.jobs = 0
        self.log = []

    def callback(self, job, action, argument, fire_limit):
        """What job ``job`` does when fired, against this side's kernel."""
        fired = 0

        def fire():
            nonlocal fired
            kernel = self.kernel
            self.log.append((job, kernel.tick))
            fired += 1
            if action == "schedule":
                child = self.jobs
                self.jobs += 1
                kernel.schedule(
                    argument % 4,
                    functools.partial(self.log.append, (child, "child")),
                    PRIORITIES[argument % len(PRIORITIES)],
                )
            return fired < fire_limit  # False ends a periodic process

        return fire


def both(sides, call):
    """Apply ``call(side)`` to both; same result or same refusal."""
    outcomes = []
    for side in sides:
        before = (
            side.kernel.tick, side.kernel.pending, side.jobs,
            side.kernel.events_processed,
        )
        try:
            outcomes.append(("ok", call(side)))
        except SchedulingError:
            outcomes.append(("refused", None))
            after = (
                side.kernel.tick, side.kernel.pending, side.jobs,
                side.kernel.events_processed,
            )
            assert after == before, "a refused call moved something"
    assert outcomes[0] == outcomes[1], outcomes
    return outcomes[0]


behaviour = dict(
    action=st.sampled_from(ACTIONS),
    argument=st.integers(min_value=0, max_value=40),
    priority=st.sampled_from(PRIORITIES),
)


class KernelAgainstASortedList(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sides = (Side(Simulator()), Side(ReferenceKernel()))

    def add(self, schedule):
        """Schedule one new job on both sides through ``schedule(side,
        job)``; a refused call must be refused by both and adds none."""

        def call(side):
            schedule(side, side.jobs)
            side.jobs += 1

        both(self.sides, call)

    @rule(delay=st.integers(min_value=-1, max_value=6), **behaviour)
    def schedule(self, delay, action, argument, priority):
        self.add(
            lambda side, job: side.kernel.schedule(
                delay, side.callback(job, action, argument, 1), priority
            )
        )

    @rule(ahead=st.integers(min_value=-2, max_value=6), **behaviour)
    def schedule_at(self, ahead, action, argument, priority):
        self.add(
            lambda side, job: side.kernel.schedule_at(
                side.kernel.tick + ahead,
                side.callback(job, action, argument, 1),
                priority,
            )
        )

    @rule(
        period=st.integers(min_value=0, max_value=4),
        ahead=st.none() | st.integers(min_value=-1, max_value=5),
        fire_limit=st.integers(min_value=1, max_value=5),
        **behaviour,
    )
    def every(self, period, ahead, fire_limit, action, argument, priority):
        self.add(
            lambda side, job: side.kernel.every(
                period,
                side.callback(job, action, argument, fire_limit),
                start=None if ahead is None else side.kernel.tick + ahead,
                priority=priority,
            )
        )

    @rule(ahead=st.integers(min_value=-2, max_value=8))
    def run_until(self, ahead):
        both(self.sides, lambda side: side.kernel.run(side.kernel.tick + ahead))

    @rule()
    def run_dry(self):
        # Every periodic job stops itself within five firings, so an
        # unbounded run terminates.
        both(self.sides, lambda side: side.kernel.run())

    @invariant()
    def kernels_agree(self):
        real, reference = self.sides
        assert real.log == reference.log
        assert real.kernel.tick == reference.kernel.tick
        assert real.kernel.now.tick == reference.kernel.tick
        assert (
            real.kernel.events_processed == reference.kernel.events_processed
        )
        assert real.kernel.pending == reference.kernel.pending
        assert real.jobs == reference.jobs
        # The clock never runs ahead of live work.
        assert all(
            entry[0] >= reference.kernel.tick
            for entry in reference.kernel.entries
        )


KernelAgainstASortedList.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)
TestKernelAgainstASortedList = KernelAgainstASortedList.TestCase


class TestOnePeriodicHandle:
    """The chain of firings by example: what the machine checks in bulk."""

    def test_tick_follows_the_next_firing(self):
        sim = Simulator()
        fired = []
        sim.every(3, lambda: fired.append(sim.tick) or len(fired) < 3, start=2)
        ((tick, _, _, handle),) = sim._queue
        assert tick == handle.tick == 2
        sim.run(until=2)
        assert fired == [2] and sim.pending == 1
        assert sim._queue[0][3] is handle and handle.tick == 5
        sim.run(until=40)
        assert fired == [2, 5, 8] and handle.tick == 8 and sim.pending == 0
