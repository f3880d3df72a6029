"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.core.errors import SchedulingError, SimulationError
from repro.core.time_model import TimePoint
from repro.sim.kernel import PRIORITY_NETWORK, Simulator


class TestScheduling:
    def test_callbacks_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(5, lambda: order.append("b"))
        sim.schedule(2, lambda: order.append("a"))
        sim.schedule(9, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.tick == 9

    def test_same_tick_fifo(self):
        sim = Simulator()
        order = []
        for name in "abc":
            sim.schedule(3, lambda n=name: order.append(n))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_priority_overrides_fifo_within_tick(self):
        sim = Simulator()
        order = []
        sim.schedule(3, lambda: order.append("normal"))
        sim.schedule(3, lambda: order.append("network"), priority=PRIORITY_NETWORK)
        sim.run()
        assert order == ["network", "normal"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(5, lambda: None)

    @pytest.mark.parametrize(
        "call",
        [
            lambda sim: sim.schedule(2.5, lambda: None),
            lambda sim: sim.schedule(3.0, lambda: None),
            lambda sim: sim.schedule(True, lambda: None),
            lambda sim: sim.schedule(float("nan"), lambda: None),
            lambda sim: sim.schedule_at(7.5, lambda: None),
            lambda sim: sim.schedule_at(True, lambda: None),
            lambda sim: sim.schedule_at(float("inf"), lambda: None),
            lambda sim: sim.every(2.5, lambda: None),
            lambda sim: sim.every(True, lambda: None),
            lambda sim: sim.every(2.0, lambda: None),
            lambda sim: sim.every(2, lambda: None, start=4.5),
            lambda sim: sim.every(2, lambda: None, start=True),
        ],
        ids=[
            "schedule-2.5", "schedule-3.0", "schedule-True", "schedule-nan",
            "schedule_at-7.5", "schedule_at-True", "schedule_at-inf",
            "every-2.5", "every-True", "every-2.0", "every-start-4.5",
            "every-start-True",
        ],
    )
    def test_ticks_and_periods_must_be_ints(self, call):
        sim = Simulator()
        sim.run(until=1)
        with pytest.raises(SchedulingError):
            call(sim)
        assert sim.pending == 0
        assert sim.run() == 1 and sim.events_processed == 0

    def test_least_int_tick_delay_and_period_accepted(self):
        sim = Simulator()
        ticks = []
        sim.schedule(0, lambda: ticks.append(("schedule", sim.tick)))
        sim.schedule_at(0, lambda: ticks.append(("schedule_at", sim.tick)))
        sim.every(1, lambda: ticks.append(("every", sim.tick)) or False)
        sim.run()
        assert ticks == [("schedule", 0), ("schedule_at", 0), ("every", 1)]
        assert all(type(tick) is int for _, tick in ticks)

    def test_zero_delay_runs_this_tick(self):
        sim = Simulator()
        seen = []
        sim.schedule(4, lambda: sim.schedule(0, lambda: seen.append(sim.tick)))
        sim.run()
        assert seen == [4]

    def test_now_is_timepoint(self):
        sim = Simulator()
        assert sim.now == TimePoint(0)
        sim.schedule(7, lambda: None)
        sim.run()
        assert sim.now == TimePoint(7)


class TestRunControl:
    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        ran = []
        sim.schedule(3, lambda: ran.append(3))
        sim.schedule(10, lambda: ran.append(10))
        sim.run(until=5)
        assert ran == [3]
        assert sim.tick == 5
        sim.run()  # resumable
        assert ran == [3, 10]

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=100)
        assert sim.tick == 100

    def test_run_until_the_current_tick_is_legal(self):
        sim = Simulator()
        ran = []
        sim.run(until=4)
        sim.schedule(0, lambda: ran.append(sim.tick))
        assert sim.run(until=4) == 4
        assert ran == [4]

    def test_run_until_a_past_tick_is_refused_and_moves_nothing(self):
        # It used to rewind the clock: work scheduled next ran "at 5"
        # after the run had already reached 10.
        sim = Simulator()
        ran = []
        sim.schedule_at(20, lambda: ran.append(sim.tick))
        assert sim.run(until=10) == 10
        with pytest.raises(SchedulingError):
            sim.run(until=5)
        assert sim.tick == 10 and sim.pending == 1 and not ran
        sim.schedule(0, lambda: ran.append(sim.tick))
        sim.run()
        assert ran == [10, 20]

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        error = []

        def reenter():
            try:
                sim.run()
            except SimulationError:
                error.append(True)

        sim.schedule(1, reenter)
        sim.run()
        assert error == [True]

    def test_run_on_an_empty_queue_processes_nothing(self):
        sim = Simulator()
        assert sim.run() == 0
        assert (sim.tick, sim.events_processed, sim.pending) == (0, 0, 0)

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(i + 1, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestPeriodic:
    def test_every_fires_on_period(self):
        sim = Simulator()
        ticks = []
        sim.every(10, lambda: ticks.append(sim.tick))
        sim.run(until=35)
        assert ticks == [10, 20, 30]

    def test_every_with_explicit_start(self):
        sim = Simulator()
        ticks = []
        sim.every(10, lambda: ticks.append(sim.tick), start=3)
        sim.run(until=25)
        assert ticks == [3, 13, 23]

    def test_returning_false_stops_process(self):
        sim = Simulator()
        ticks = []

        def fire():
            ticks.append(sim.tick)
            return len(ticks) < 3

        sim.every(5, fire)
        sim.run(until=100)
        assert ticks == [5, 10, 15]

    def test_invalid_period(self):
        with pytest.raises(SchedulingError):
            Simulator().every(0, lambda: None)

    def test_first_firing_in_the_past_rejected(self):
        sim = Simulator()
        sim.run(until=10)
        with pytest.raises(SchedulingError):
            sim.every(3, lambda: None, start=4)
        assert sim.pending == 0


class TestDeterminism:
    def test_same_seed_same_run(self):
        def run(seed):
            sim = Simulator(seed=seed)
            values = []
            sim.every(1, lambda: values.append(sim.rng.stream("x").random()))
            sim.run(until=20)
            return values

        assert run(7) == run(7)
        assert run(7) != run(8)


class TestPendingCounter:
    """`pending` counts queued entries, by example; the state machine in
    ``tests/property/test_kernel_oracle.py`` checks it against a sorted
    list."""

    def test_counter_tracks_schedule_and_run(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(i + 1, lambda: None)
        assert sim.pending == 5
        sim.run(until=2)
        assert sim.pending == 3
        sim.run()
        assert sim.pending == 0

    def test_periodic_process_keeps_single_pending_entry(self):
        sim = Simulator()
        ticks = []
        sim.every(3, lambda: ticks.append(sim.tick))
        assert sim.pending == 1
        sim.run(until=10)
        assert ticks == [3, 6, 9]
        assert sim.pending == 1  # the next firing is queued

    def test_periodic_stopping_via_false_drains_counter(self):
        sim = Simulator()
        fired = []
        sim.every(2, lambda: (fired.append(sim.tick), False)[-1])
        assert sim.pending == 1
        sim.run()
        assert fired == [2]
        assert sim.pending == 0


class TestQueueEntryOrdering:
    def test_tuple_key_orders_by_tick_priority_seq(self):
        sim = Simulator()
        order = []
        sim.schedule(4, lambda: order.append("late"))
        sim.schedule(4, lambda: order.append("first-priority"), priority=PRIORITY_NETWORK)
        sim.schedule(2, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "first-priority", "late"]
