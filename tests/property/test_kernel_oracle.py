"""Differential oracle for the simulation kernel (hypothesis, stateful).

The kernel's queue is a heap of ``(tick, priority, seq, handle)`` tuples
with lazy cancellation, a live counter behind ``pending`` and one handle
that a periodic process pushes again after every firing.  The reference
below has none of that: a plain list kept sorted by ``(tick, priority,
insertion)``, cancellation that really removes the entry, ``pending``
that is the list's length.  Slow, and obviously right.  A state machine
drives both through the same ``schedule`` / ``schedule_at`` / ``every``
/ ``cancel`` / ``step`` / ``run(until)`` calls — with callbacks that
cancel themselves or another handle, schedule more work or ``stop()``
the run from inside a firing — and requires the same execution order,
``tick``, ``events_processed``, ``pending`` and every handle's ``tick``
and ``cancelled`` after each operation.

A cancel lands wherever the draw puts it: before the firing, after it,
from inside it (the ``cancel-self`` / ``cancel-other`` callbacks), or on
a handle cancelled already.  Refused calls — a delay, an absolute tick,
a first firing or an ``until`` in the past — must raise
``SchedulingError`` on both sides and change nothing.

One count row sits beside the machine: a cancelled far-future entry
stays in the heap until its tick surfaces, so it must not keep its
callback — or anything the callback captured — alive until then.
"""

import bisect
import functools
import gc
import weakref

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
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
ACTIONS = ("nothing", "cancel-self", "cancel-other", "schedule", "stop")


class ReferenceHandle:
    def __init__(self, kernel, tick, callback, period, priority):
        self.kernel = kernel
        self.tick = tick
        self.callback = callback
        self.period = period
        self.priority = priority
        self.cancelled = False

    def cancel(self):
        self.cancelled = True
        self.kernel.entries = [
            entry for entry in self.kernel.entries if entry[3] is not self
        ]


class ReferenceKernel:
    """The eager kernel: a sorted list, and a cancel that removes."""

    def __init__(self):
        self.tick = 0
        self.events_processed = 0
        self.entries = []  # (tick, priority, insertion, handle), sorted
        self.insertions = 0
        self.stopped = False

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
        return handle

    def schedule(self, delay, callback, priority=PRIORITY_DEFAULT):
        if delay < 0:
            raise SchedulingError("negative delay")
        return self.schedule_at(self.tick + delay, callback, priority)

    def schedule_at(self, tick, callback, priority=PRIORITY_DEFAULT):
        return self.push(ReferenceHandle(self, tick, callback, 0, priority))

    def every(self, period, callback, start=None, priority=PRIORITY_DEFAULT):
        if period <= 0:
            raise SchedulingError("period must be positive")
        first = self.tick + period if start is None else start
        return self.push(
            ReferenceHandle(self, first, callback, period, priority)
        )

    def step(self):
        if not self.entries:
            return False
        tick, _, _, handle = self.entries.pop(0)
        self.tick = tick
        self.events_processed += 1
        result = handle.callback()
        if handle.period and result is not False and not handle.cancelled:
            handle.tick = self.tick + handle.period
            self.push(handle)
        return True

    def run(self, until=None):
        if until is not None and until < self.tick:
            raise SchedulingError("until is in the past")
        self.stopped = False
        while self.entries and not self.stopped:
            if until is not None and self.entries[0][0] > until:
                break
            self.step()
        if until is not None and not self.stopped:
            self.tick = until
        return self.tick

    def stop(self):
        self.stopped = True


class Side:
    """One kernel with the handles and the execution log of its run."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.handles = []
        self.log = []

    def callback(self, job, action, argument, fire_limit):
        """What job ``job`` does when fired, against this side's kernel."""
        fired = 0

        def fire():
            nonlocal fired
            kernel = self.kernel
            self.log.append((job, kernel.tick))
            fired += 1
            if action == "cancel-self":
                self.handles[job].cancel()
            elif action == "cancel-other":
                self.handles[argument % len(self.handles)].cancel()
            elif action == "schedule":
                child = len(self.handles)
                self.handles.append(
                    kernel.schedule(
                        argument % 4,
                        functools.partial(self.log.append, (child, "child")),
                        PRIORITIES[argument % len(PRIORITIES)],
                    )
                )
            elif action == "stop":
                kernel.stop()
            return fired < fire_limit  # False ends a periodic process

        return fire


def both(sides, call):
    """Apply ``call(side)`` to both; same result or same refusal."""
    outcomes = []
    for side in sides:
        before = (
            side.kernel.tick, side.kernel.pending, len(side.handles),
            side.kernel.events_processed,
        )
        try:
            outcomes.append(("ok", call(side)))
        except SchedulingError:
            outcomes.append(("refused", None))
            after = (
                side.kernel.tick, side.kernel.pending, len(side.handles),
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
            job = len(side.handles)
            handle = schedule(side, job)
            side.handles.append(handle)

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

    @precondition(lambda self: self.sides[1].handles)
    @rule(which=st.integers(min_value=0, max_value=40), twice=st.booleans())
    def cancel(self, which, twice):
        for side in self.sides:
            handle = side.handles[which % len(side.handles)]
            handle.cancel()
            if twice:
                handle.cancel()

    @rule()
    def step(self):
        both(self.sides, lambda side: side.kernel.step())

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
        assert len(real.handles) == len(reference.handles)
        for mine, theirs in zip(real.handles, reference.handles):
            assert mine.tick == theirs.tick
            assert mine.cancelled == theirs.cancelled
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

    def test_tick_follows_the_next_firing_and_one_cancel_ends_the_chain(self):
        sim = Simulator()
        fired = []
        handle = sim.every(3, lambda: fired.append(sim.tick), start=2)
        assert handle.tick == 2
        sim.run(until=2)
        assert fired == [2] and handle.tick == 5 and sim.pending == 1
        sim.run(until=9)
        assert fired == [2, 5, 8] and handle.tick == 11
        handle.cancel()
        assert handle.cancelled and sim.pending == 0
        sim.run(until=40)
        assert fired == [2, 5, 8] and handle.tick == 11

    def test_cancelling_from_inside_the_firing_ends_it_too(self):
        sim = Simulator()
        fired = []
        handles = []

        def fire():
            fired.append(sim.tick)
            if len(fired) == 2:
                handles[0].cancel()

        handles.append(sim.every(4, fire))
        sim.run(until=50)
        assert fired == [4, 8]
        assert sim.pending == 0 and handles[0].tick == 8


class Captured:
    """Something a callback closes over (weakly referenceable)."""


@pytest.mark.parametrize("periodic", [False, True], ids=["once", "periodic"])
def test_a_cancelled_far_future_entry_pins_nothing(periodic):
    sim = Simulator()
    refs = []
    for _ in range(10_000):
        captured = Captured()
        refs.append(weakref.ref(captured))
        callback = functools.partial(id, captured)
        if periodic:
            sim.every(7, callback, start=1_000_000).cancel()
        else:
            sim.schedule(1_000_000, callback).cancel()
        del captured, callback
    gc.collect()
    assert sim.pending == 0
    assert sum(ref() is not None for ref in refs) == 0
