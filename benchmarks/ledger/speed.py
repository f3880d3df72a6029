"""Reference-speed clock: timings that survive a CPU whose speed drifts.

The 2-core sandbox this ledger is sized for runs the same pure-Python loop
anywhere between 1.0x and 1.8x its best time, in states that last from a
second to a minute (a neighbour on the shared core).  A pass timed in the
slow state reads 50 % worse than the same pass a minute later, which no
number of passes inside one run averages away.

:class:`SpeedMeter` therefore times a short fixed *burst* of interpreter
work every :data:`PERIOD_NS` between the steps of a pass.  A burst that
takes twice :data:`REFERENCE_BURST_NS` says the CPU is currently running
Python at half the reference speed, so the wall time since the previous
burst is counted at half weight.  Timings come out in *reference seconds*:
what the work would have taken had every burst run in exactly the
reference time.  The burst shares no code with ``src/``, so a faster
engine cannot speed it up and cancel its own gain.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter_ns

__all__ = ["SpeedMeter", "Region", "REFERENCE_BURST_NS", "PERIOD_NS"]

REFERENCE_BURST_NS = 160_000
"""Burst time that defines reference speed: what a burst between two
steps takes on the seed sandbox when its neighbours are quiet, so there
reference seconds read like wall-clock seconds."""

PERIOD_NS = 25_000_000
"""Bursts are at least this far apart (under 1 % of a pass)."""


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self.x = x
        self.y = y

    def distance2(self, other: "_Point") -> int:
        return (self.x - other.x) ** 2 + (self.y - other.y) ** 2


def _burst() -> float:
    """Fixed interpreter work: allocation, dict updates, method calls —
    the mix the detection engine spends its time in."""
    counts: dict[tuple[int, str], int] = {}
    points = [_Point(i, i + 1) for i in range(40)]
    total = 0.0
    for i in range(400):
        point = points[i % 40]
        key = (i & 31, "k")
        counts[key] = counts.get(key, 0) + 1
        total += point.distance2(points[(i * 7) % 40])
    return total


@dataclass(frozen=True)
class Region:
    """One timed region, closed by :meth:`SpeedMeter.end`."""

    raw_ns: int
    """Wall time from the start of the opening burst to the end of the
    closing one."""
    work_ns: int
    """The same without any burst: the gaps between bursts."""
    inner_burst_ns: int
    """Time in the bursts strictly between the opening and closing one."""
    reference_ns: float
    """The gaps again, each weighted by its speed: reference nanoseconds."""
    first_segment: int
    factors: list[float]
    """Slowdown of each segment (the gap between two bursts) against the
    reference; ``factors[0]`` belongs to segment ``first_segment``."""

    def step_ns(self, segment: int, duration_ns: int) -> float:
        """Reference duration of a step that ran inside ``segment``."""
        return duration_ns / self.factors[segment - self.first_segment]


class SpeedMeter:
    """Interleaves calibration bursts with the work being timed."""

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._ends: list[int] = []

    @property
    def segment(self) -> int:
        """Index of the gap the caller is in: after the latest burst."""
        return len(self._ends) - 1

    def burst(self) -> None:
        started = perf_counter_ns()
        _burst()
        self._ends.append(perf_counter_ns())
        self._starts.append(started)

    def tick(self) -> None:
        """Call between steps: bursts when the last one is a period old."""
        if not self._ends or perf_counter_ns() - self._ends[-1] >= PERIOD_NS:
            self.burst()

    def begin(self) -> int:
        """Open a region with a burst; returns its first segment."""
        self.burst()
        return self.segment

    def end(self, first_segment: int) -> Region:
        """Close the region opened at ``first_segment`` with a burst."""
        self.burst()
        starts, ends = self._starts, self._ends
        took = [end - start for start, end in zip(starts, ends)]
        last = len(ends) - 1
        factors = []
        work_ns = 0
        reference_ns = 0.0
        for i in range(first_segment, last):
            # Median of the two bursts on each side of the gap: one burst
            # that caught an interrupt must not reprice its neighbours.
            around = took[max(first_segment, i - 1) : min(last, i + 2) + 1]
            factor = statistics.median(around) / REFERENCE_BURST_NS
            factors.append(factor)
            gap = starts[i + 1] - ends[i]
            work_ns += gap
            reference_ns += gap / factor
        return Region(
            raw_ns=ends[-1] - starts[first_segment],
            work_ns=work_ns,
            inner_burst_ns=sum(took[first_segment + 1 : last]),
            reference_ns=reference_ns,
            first_segment=first_segment,
            factors=factors,
        )
