"""Mobility models for physical objects (users, vehicles, intruders).

The paper's running example — "user A is nearby window B for the last
30 minutes" — needs a moving user; the intruder-tracking workload needs
adversarial motion.  A :class:`Trajectory` maps a tick to a position;
implementations cover scripted waypoint tours, cyclic patrols and
static placement.  All trajectories are deterministic given their
parameters, keeping simulation runs replayable.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right
from typing import Sequence

from repro.core.errors import ReproError
from repro.core.space_model import PointLocation

__all__ = [
    "Trajectory",
    "StaticPosition",
    "WaypointTrajectory",
    "PatrolTrajectory",
]


class Trajectory(ABC):
    """Position of a moving object as a function of the tick."""

    @abstractmethod
    def position(self, tick: int) -> PointLocation:
        """Where the object is at ``tick``."""


class StaticPosition(Trajectory):
    """An object that never moves (windows, doors, installed machines)."""

    def __init__(self, location: PointLocation):
        self.location = location

    def position(self, tick: int) -> PointLocation:
        return self.location


class WaypointTrajectory(Trajectory):
    """Piecewise-linear motion through timestamped waypoints.

    Before the first waypoint the object rests at it; after the last it
    stays there.  Between waypoints the position interpolates linearly,
    giving exact, scriptable ground truth for tests ("the user enters
    the nearby-window area at tick 120 and leaves at tick 1920").

    Args:
        waypoints: Sequence of ``(tick, location)`` pairs with strictly
            increasing ticks.
    """

    def __init__(self, waypoints: Sequence[tuple[int, PointLocation]]):
        if not waypoints:
            raise ReproError("waypoint trajectory needs at least one waypoint")
        ticks = [t for t, _ in waypoints]
        if any(b <= a for a, b in zip(ticks, ticks[1:])):
            raise ReproError("waypoint ticks must be strictly increasing")
        self._ticks = ticks
        self._points = [p for _, p in waypoints]

    def position(self, tick: int) -> PointLocation:
        if tick <= self._ticks[0]:
            return self._points[0]
        if tick >= self._ticks[-1]:
            return self._points[-1]
        index = bisect_right(self._ticks, tick) - 1
        t0, t1 = self._ticks[index], self._ticks[index + 1]
        p0, p1 = self._points[index], self._points[index + 1]
        frac = (tick - t0) / (t1 - t0)
        return PointLocation(
            p0.x + frac * (p1.x - p0.x), p0.y + frac * (p1.y - p0.y)
        )


class PatrolTrajectory(Trajectory):
    """Cyclic patrol along a closed waypoint loop at constant speed.

    Unlike :class:`WaypointTrajectory` the route repeats forever, which
    suits guards, cleaning robots and shuttle vehicles.

    Args:
        waypoints: Loop vertices (at least two, visited in order and
            then back to the first).
        speed: Distance covered per tick.
    """

    def __init__(self, waypoints: Sequence[PointLocation], speed: float):
        if len(waypoints) < 2:
            raise ReproError("patrol needs at least two waypoints")
        if speed <= 0:
            raise ReproError(f"speed must be positive, got {speed}")
        self.waypoints = list(waypoints)
        self.speed = speed
        self._legs: list[tuple[PointLocation, PointLocation, float]] = []
        total = 0.0
        points = self.waypoints + [self.waypoints[0]]
        for a, b in zip(points, points[1:]):
            length = a.distance_to(b)
            self._legs.append((a, b, length))
            total += length
        if total <= 0:
            raise ReproError("patrol loop has zero length")
        self._loop_length = total

    def position(self, tick: int) -> PointLocation:
        travelled = (max(0, tick) * self.speed) % self._loop_length
        for a, b, length in self._legs:
            if travelled <= length:
                if length == 0:
                    return a
                frac = travelled / length
                return PointLocation(
                    a.x + frac * (b.x - a.x), a.y + frac * (b.y - a.y)
                )
            travelled -= length
        return self.waypoints[0]
