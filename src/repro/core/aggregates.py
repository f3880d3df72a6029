"""Aggregation functions ``g_v``, ``g_t`` and ``g_s`` (Definition 4.2).

Each event-condition family applies an aggregation function over the
attributes, times or locations of *n* entities before comparing the
result with an operator:

* ``g_v[V1, ..., Vn] OP_R C``   — value aggregates (Eq. 4.2), e.g.
  ``Average``, ``Max``, ``Add``;
* ``g_t[t1, ..., tn] OP_T Ct``  — time aggregates (Eq. 4.3), e.g. the
  earliest/latest occurrence or the interval hull;
* ``g_s[l1, ..., ln] OP_S Cs``  — location aggregates (Eq. 4.4), e.g.
  the centroid, or the scalar ``g_distance`` used by the paper's
  condition S1.

Aggregates come in two result shapes: *entity-valued* (a time or a
location, compared with ``OP_T`` / ``OP_S``) and *measure-valued* (a
float, compared with ``OP_R``).  Four registries expose them by name so
both the programmatic API and the DSL resolve the same functions.
"""

from __future__ import annotations

import math
import statistics
from typing import Callable, Sequence

from repro.core.errors import ConditionError
from repro.core.space_model import (
    Field,
    PointLocation,
    Polygon,
    SpatialEntity,
    centroid_of_points,
    convex_hull,
    min_enclosing_box,
)
from repro.core.time_model import TemporalEntity, TimeInterval, TimePoint, hull

__all__ = [
    "VALUE_AGGREGATES",
    "TIME_AGGREGATES",
    "TIME_MEASURES",
    "SPACE_AGGREGATES",
    "SPACE_MEASURES",
    "value_aggregate",
    "time_aggregate",
    "time_measure",
    "space_aggregate",
    "space_measure",
]

ValueAggregate = Callable[[Sequence[float]], float]
TimeAggregate = Callable[[Sequence[TemporalEntity]], TemporalEntity]
TimeMeasure = Callable[[Sequence[TemporalEntity]], float]
SpaceAggregate = Callable[[Sequence[SpatialEntity]], SpatialEntity]
SpaceMeasure = Callable[[Sequence[SpatialEntity]], float]


def _require_values(values: Sequence[float], name: str) -> Sequence[float]:
    if not values:
        raise ConditionError(f"aggregate {name!r} applied to zero values")
    return values


# ----------------------------------------------------------------------
# value aggregates (g_v)
# ----------------------------------------------------------------------

def _average(values: Sequence[float]) -> float:
    return sum(_require_values(values, "average")) / len(values)


def _median(values: Sequence[float]) -> float:
    return statistics.median(_require_values(values, "median"))


def _std(values: Sequence[float]) -> float:
    vals = _require_values(values, "std")
    return statistics.pstdev(vals) if len(vals) > 1 else 0.0


def _value_range(values: Sequence[float]) -> float:
    vals = _require_values(values, "range")
    return max(vals) - min(vals)


VALUE_AGGREGATES: dict[str, ValueAggregate] = {
    "average": _average,
    "avg": _average,
    "mean": _average,
    "max": lambda v: max(_require_values(v, "max")),
    "min": lambda v: min(_require_values(v, "min")),
    "add": lambda v: sum(_require_values(v, "add")),
    "sum": lambda v: sum(_require_values(v, "sum")),
    "count": lambda v: float(len(v)),
    "median": _median,
    "std": _std,
    "range": _value_range,
    "first": lambda v: _require_values(v, "first")[0],
    "last": lambda v: _require_values(v, "last")[-1],
}
"""Registry of ``g_v`` functions, keyed by lower-case name."""


def value_aggregate(name: str) -> ValueAggregate:
    """Look up a ``g_v`` function by name."""
    try:
        return VALUE_AGGREGATES[name.lower()]
    except KeyError:
        raise ConditionError(
            f"unknown value aggregate {name!r}; known: "
            f"{sorted(VALUE_AGGREGATES)}"
        ) from None


# ----------------------------------------------------------------------
# time aggregates and measures (g_t)
# ----------------------------------------------------------------------

def _start_of(entity: TemporalEntity) -> TimePoint:
    return entity.start if isinstance(entity, TimeInterval) else entity


def _end_of(entity: TemporalEntity) -> TimePoint:
    if isinstance(entity, TimeInterval):
        if entity.end is None:
            raise ConditionError("open interval has no end time yet")
        return entity.end
    return entity


def _earliest(times: Sequence[TemporalEntity]) -> TimePoint:
    if not times:
        raise ConditionError("earliest of zero times")
    return min(_start_of(t) for t in times)


def _latest(times: Sequence[TemporalEntity]) -> TimePoint:
    if not times:
        raise ConditionError("latest of zero times")
    return max(_end_of(t) for t in times)


def _span(times: Sequence[TemporalEntity]) -> TimeInterval:
    if not times:
        raise ConditionError("span of zero times")
    return hull(*times)


def _identity_time(times: Sequence[TemporalEntity]) -> TemporalEntity:
    if len(times) != 1:
        raise ConditionError(f"identity time aggregate needs 1 entity, got {len(times)}")
    return times[0]


TIME_AGGREGATES: dict[str, TimeAggregate] = {
    "time": _identity_time,
    "earliest": _earliest,
    "latest": _latest,
    "span": _span,
    "start": lambda ts: _start_of(_identity_time(ts)),
    "end": lambda ts: _end_of(_identity_time(ts)),
}
"""Registry of entity-valued ``g_t`` functions."""


def _duration(times: Sequence[TemporalEntity]) -> float:
    total = 0
    for t in times:
        if isinstance(t, TimeInterval):
            total += t.duration
    return float(total)


def _time_spread(times: Sequence[TemporalEntity]) -> float:
    if not times:
        raise ConditionError("time spread of zero times")
    return float(_latest(times).tick - _earliest(times).tick)


TIME_MEASURES: dict[str, TimeMeasure] = {
    "duration": _duration,
    "spread": _time_spread,
    "count": lambda ts: float(len(ts)),
}
"""Registry of scalar ``g_t`` measures (compared with ``OP_R``)."""


def time_aggregate(name: str) -> TimeAggregate:
    """Look up an entity-valued ``g_t`` function by name."""
    try:
        return TIME_AGGREGATES[name.lower()]
    except KeyError:
        raise ConditionError(
            f"unknown time aggregate {name!r}; known: {sorted(TIME_AGGREGATES)}"
        ) from None


def time_measure(name: str) -> TimeMeasure:
    """Look up a scalar ``g_t`` measure by name."""
    try:
        return TIME_MEASURES[name.lower()]
    except KeyError:
        raise ConditionError(
            f"unknown time measure {name!r}; known: {sorted(TIME_MEASURES)}"
        ) from None


# ----------------------------------------------------------------------
# space aggregates and measures (g_s)
# ----------------------------------------------------------------------

def _point_of(entity: SpatialEntity) -> PointLocation:
    """Representative point of a spatial entity (fields use centroids)."""
    if isinstance(entity, PointLocation):
        return entity
    return entity.centroid()


def _centroid(locations: Sequence[SpatialEntity]) -> PointLocation:
    if not locations:
        raise ConditionError("centroid of zero locations")
    return centroid_of_points(_point_of(loc) for loc in locations)


def _space_hull(locations: Sequence[SpatialEntity]) -> SpatialEntity:
    """Convex hull of representative points; degenerates to a point."""
    if not locations:
        raise ConditionError("hull of zero locations")
    points = [_point_of(loc) for loc in locations]
    hull_points = convex_hull(points)
    if len(hull_points) < 3:
        return hull_points[0] if len(hull_points) == 1 else _centroid(locations)
    return Polygon(hull_points)


def _enclosing_box(locations: Sequence[SpatialEntity]) -> SpatialEntity:
    if not locations:
        raise ConditionError("enclosing box of zero locations")
    points: list[PointLocation] = []
    for loc in locations:
        if isinstance(loc, PointLocation):
            points.append(loc)
        else:
            box = loc.bounding_box()
            points.append(PointLocation(box.min_x, box.min_y))
            points.append(PointLocation(box.max_x, box.max_y))
    return min_enclosing_box(points)


def _identity_location(locations: Sequence[SpatialEntity]) -> SpatialEntity:
    if len(locations) != 1:
        raise ConditionError(
            f"identity location aggregate needs 1 entity, got {len(locations)}"
        )
    return locations[0]


SPACE_AGGREGATES: dict[str, SpaceAggregate] = {
    "location": _identity_location,
    "centroid": _centroid,
    "hull": _space_hull,
    "box": _enclosing_box,
}
"""Registry of entity-valued ``g_s`` functions."""


def _distance(locations: Sequence[SpatialEntity]) -> float:
    """The paper's ``g_distance``: separation of exactly two entities.

    Point/point pairs use the Euclidean distance; when either operand is
    a field the distance is between the point and the field boundary
    (0 when inside) or between centroids for field/field pairs.
    """
    if len(locations) != 2:
        raise ConditionError(f"distance takes exactly 2 locations, got {len(locations)}")
    a, b = locations
    if isinstance(a, PointLocation) and isinstance(b, PointLocation):
        return a.distance_to(b)
    if isinstance(a, PointLocation):
        return b.distance_to_point(a)
    if isinstance(b, PointLocation):
        return a.distance_to_point(b)
    return _point_of(a).distance_to(_point_of(b))


def _diameter(locations: Sequence[SpatialEntity]) -> float:
    if not locations:
        raise ConditionError("diameter of zero locations")
    points = [_point_of(loc) for loc in locations]
    if len(points) == 1:
        return 0.0
    return max(
        points[i].distance_to(points[j])
        for i in range(len(points))
        for j in range(i + 1, len(points))
    )


def _total_area(locations: Sequence[SpatialEntity]) -> float:
    return math.fsum(
        loc.area() for loc in locations if isinstance(loc, Field)
    )


SPACE_MEASURES: dict[str, SpaceMeasure] = {
    "distance": _distance,
    "diameter": _diameter,
    "area": _total_area,
    "count": lambda ls: float(len(ls)),
}
"""Registry of scalar ``g_s`` measures (compared with ``OP_R``)."""


def space_aggregate(name: str) -> SpaceAggregate:
    """Look up an entity-valued ``g_s`` function by name."""
    try:
        return SPACE_AGGREGATES[name.lower()]
    except KeyError:
        raise ConditionError(
            f"unknown space aggregate {name!r}; known: {sorted(SPACE_AGGREGATES)}"
        ) from None


def space_measure(name: str) -> SpaceMeasure:
    """Look up a scalar ``g_s`` measure by name."""
    try:
        return SPACE_MEASURES[name.lower()]
    except KeyError:
        raise ConditionError(
            f"unknown space measure {name!r}; known: {sorted(SPACE_MEASURES)}"
        ) from None
