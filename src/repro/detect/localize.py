"""Event location estimation (``l_eo``) from multiple observations.

The paper's introduction motivates exactly this: a sink node receives
"several range measurements from different sensor motes and the user
location can be calculated".  Sinks and CCUs therefore need location
estimators:

* :func:`centroid_estimate` / :func:`weighted_centroid` — fuse reporting
  entities' positions, optionally weighted by confidence or signal
  strength (point-event estimates);
* :func:`trilaterate` — least-squares multilateration from anchor
  positions and range measurements (the intro's example).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.errors import SpatialError
from repro.core.space_model import PointLocation

__all__ = [
    "centroid_estimate",
    "weighted_centroid",
    "trilaterate",
]


def centroid_estimate(points: Sequence[PointLocation]) -> PointLocation:
    """Unweighted mean of reporting positions."""
    if not points:
        raise SpatialError("centroid estimate of no points")
    return PointLocation(
        sum(p.x for p in points) / len(points),
        sum(p.y for p in points) / len(points),
    )


def weighted_centroid(
    points: Sequence[PointLocation], weights: Sequence[float]
) -> PointLocation:
    """Confidence- or signal-weighted mean of reporting positions.

    Args:
        points: Reporting positions.
        weights: Non-negative weights, one per point, not all zero.
    """
    if not points:
        raise SpatialError("weighted centroid of no points")
    if len(points) != len(weights):
        raise SpatialError(
            f"{len(points)} points but {len(weights)} weights"
        )
    if any(w < 0 for w in weights):
        raise SpatialError("weights must be non-negative")
    total = sum(weights)
    if total <= 0:
        raise SpatialError("weights sum to zero")
    return PointLocation(
        sum(p.x * w for p, w in zip(points, weights)) / total,
        sum(p.y * w for p, w in zip(points, weights)) / total,
    )


def trilaterate(
    anchors: Sequence[PointLocation], ranges: Sequence[float]
) -> PointLocation:
    """Least-squares position from anchor/range pairs.

    Linearizes the circle equations against the last anchor and solves
    the normal equations; with three or more non-collinear anchors the
    solution is unique.  This is the computation the paper's sink node
    performs on range measurements from different motes.

    Args:
        anchors: Known positions (>= 3, non-collinear).
        ranges: Measured distances, one per anchor (>= 0).

    Raises:
        SpatialError: On malformed input or a singular geometry.
    """
    if len(anchors) < 3:
        raise SpatialError(f"trilateration needs >= 3 anchors, got {len(anchors)}")
    if len(anchors) != len(ranges):
        raise SpatialError(
            f"{len(anchors)} anchors but {len(ranges)} ranges"
        )
    if any(r < 0 for r in ranges):
        raise SpatialError("ranges must be non-negative")

    ref = anchors[-1]
    ref_range = ranges[-1]
    rows = []
    rhs = []
    for anchor, rng in zip(anchors[:-1], ranges[:-1]):
        rows.append([2.0 * (ref.x - anchor.x), 2.0 * (ref.y - anchor.y)])
        rhs.append(
            rng * rng
            - ref_range * ref_range
            - anchor.x * anchor.x
            + ref.x * ref.x
            - anchor.y * anchor.y
            + ref.y * ref.y
        )
    a = np.asarray(rows, dtype=float)
    b = np.asarray(rhs, dtype=float)
    solution, residuals, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < 2 or not np.all(np.isfinite(solution)):
        raise SpatialError("anchors are collinear; position is ambiguous")
    x, y = float(solution[0]), float(solution[1])
    if math.isnan(x) or math.isnan(y):
        raise SpatialError("trilateration produced NaN")
    return PointLocation(x, y)
