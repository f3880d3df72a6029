"""Physical objects: the things events describe.

Definition 4.1 speaks of "the state of one or more objects ... in the
physical world".  A :class:`PhysicalObject` couples an identity and a
trajectory; the world tracks them so ground-truth extraction and range
sensors can query "where is user A now?".
"""

from __future__ import annotations

from repro.core.space_model import PointLocation
from repro.physical.mobility import StaticPosition, Trajectory

__all__ = ["PhysicalObject"]


class PhysicalObject:
    """A named object with a position over time.

    Args:
        name: Unique object name ("userA", "windowB").
        trajectory: Motion model; a bare :class:`PointLocation` may be
            passed for stationary objects.
    """

    def __init__(self, name: str, trajectory: Trajectory | PointLocation):
        self.name = name
        if isinstance(trajectory, PointLocation):
            trajectory = StaticPosition(trajectory)
        self.trajectory = trajectory

    def position(self, tick: int) -> PointLocation:
        """The object's true position at ``tick``."""
        return self.trajectory.position(tick)

    def distance_to(self, other: "PhysicalObject", tick: int) -> float:
        """True distance between two objects at ``tick``."""
        return self.position(tick).distance_to(other.position(tick))

    def __repr__(self) -> str:
        return f"PhysicalObject({self.name!r})"
