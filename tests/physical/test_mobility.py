"""Unit tests for mobility models."""

import pytest

from repro.core.errors import ReproError
from repro.core.space_model import PointLocation
from repro.physical.mobility import (
    PatrolTrajectory,
    StaticPosition,
    WaypointTrajectory,
)


class TestStaticPosition:
    def test_never_moves(self):
        trajectory = StaticPosition(PointLocation(3, 4))
        assert trajectory.position(0) == PointLocation(3, 4)
        assert trajectory.position(10_000) == PointLocation(3, 4)


class TestWaypointTrajectory:
    def trajectory(self):
        return WaypointTrajectory(
            [
                (0, PointLocation(0, 0)),
                (10, PointLocation(10, 0)),
                (20, PointLocation(10, 10)),
            ]
        )

    def test_rests_at_endpoints(self):
        t = self.trajectory()
        assert t.position(-5) == PointLocation(0, 0)
        assert t.position(0) == PointLocation(0, 0)
        assert t.position(20) == PointLocation(10, 10)
        assert t.position(99) == PointLocation(10, 10)

    def test_linear_interpolation(self):
        t = self.trajectory()
        assert t.position(5) == PointLocation(5, 0)
        assert t.position(15) == PointLocation(10, 5)

    def test_validation(self):
        with pytest.raises(ReproError):
            WaypointTrajectory([])
        with pytest.raises(ReproError):
            WaypointTrajectory(
                [(5, PointLocation(0, 0)), (5, PointLocation(1, 1))]
            )


class TestPatrolTrajectory:
    def patrol(self):
        return PatrolTrajectory(
            [PointLocation(0, 0), PointLocation(10, 0)], speed=1.0
        )

    def test_constant_speed_along_loop(self):
        patrol = self.patrol()
        assert patrol.position(0) == PointLocation(0, 0)
        assert patrol.position(5) == PointLocation(5, 0)
        assert patrol.position(10) == PointLocation(10, 0)

    def test_loops_back(self):
        patrol = self.patrol()
        # Loop length is 20; tick 15 is halfway back.
        assert patrol.position(15) == PointLocation(5, 0)
        assert patrol.position(20) == PointLocation(0, 0)

    def test_validation(self):
        with pytest.raises(ReproError):
            PatrolTrajectory([PointLocation(0, 0)], speed=1.0)
        with pytest.raises(ReproError):
            PatrolTrajectory(
                [PointLocation(0, 0), PointLocation(1, 0)], speed=0.0
            )
        with pytest.raises(ReproError):
            PatrolTrajectory(
                [PointLocation(0, 0), PointLocation(0, 0)], speed=1.0
            )
