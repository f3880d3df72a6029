"""Physical-world substrate: phenomena, objects, mobility, ground truth."""

from repro.physical.fields import (
    GaussianPlumeField,
    PlumeSource,
    ScalarField,
    UniformField,
)
from repro.physical.fire import CellState, FireModel, FireTemperatureField
from repro.physical.ground_truth import (
    exceedance_region,
    intervals_from_predicate,
    make_physical_event,
    proximity_intervals,
    threshold_intervals,
)
from repro.physical.mobility import (
    PatrolTrajectory,
    StaticPosition,
    Trajectory,
    WaypointTrajectory,
)
from repro.physical.objects import PhysicalObject
from repro.physical.world import PhysicalWorld

__all__ = [
    "ScalarField",
    "UniformField",
    "PlumeSource",
    "GaussianPlumeField",
    "FireModel",
    "FireTemperatureField",
    "CellState",
    "Trajectory",
    "StaticPosition",
    "WaypointTrajectory",
    "PatrolTrajectory",
    "PhysicalObject",
    "PhysicalWorld",
    "proximity_intervals",
    "threshold_intervals",
    "exceedance_region",
    "make_physical_event",
    "intervals_from_predicate",
]
