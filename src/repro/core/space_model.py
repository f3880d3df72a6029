"""2-D Cartesian spatial model: point locations, fields and relations.

The paper (Section 4, "Spatial Model") uses a standard two-dimensional
Cartesian coordinate system in which an ordered pair ``(x, y)`` names a
*location point* and a region (polytope) names a *location field*.  Two
spatial classes of events follow (Section 4.2):

* a *point event* occurs at a :class:`PointLocation`;
* a *field event* occurs over a :class:`Field` — here a polygon, circle
  or axis-aligned box — and "is made of at least 2 or more point
  events".

The spatial relations the paper enumerates are implemented by
:func:`spatial_relation`:

* point / point -- ``Equal to`` (and its negation ``Distinct``);
* point / field -- ``Inside``, ``Outside``;
* field / field -- ``Joint`` (overlapping), ``Disjoint``, plus the
  refinement ``Inside`` / ``Contains`` when one field lies entirely
  within the other and ``Equal to`` for identical extents.

The geometry is exact for polygons and boxes (ray casting, segment
intersection tests, shoelace area) and analytic for circles; no external
geometry dependency is used.
"""

from __future__ import annotations

import enum
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from repro.core.errors import SpatialError

__all__ = [
    "PointLocation",
    "Field",
    "BoundingBox",
    "Circle",
    "Polygon",
    "SpatialEntity",
    "SpatialRelation",
    "spatial_relation",
    "convex_hull",
    "centroid_of_points",
    "min_enclosing_box",
    "EPS",
]

EPS = 1e-9
"""Tolerance used for floating-point coincidence tests."""


@dataclass(frozen=True, slots=True)
class PointLocation:
    """A location point ``(x, y)`` in the 2-D Cartesian plane."""

    x: float
    y: float

    def __post_init__(self) -> None:
        # Every engine, index and router downstream does arithmetic on
        # these; a NaN or infinity refused here cannot half-enter one.
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise SpatialError(f"non-finite coordinate ({self.x}, {self.y})")

    def distance_to(self, other: "PointLocation") -> float:
        """Euclidean distance to another point."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def equals(self, other: "PointLocation", tolerance: float = EPS) -> bool:
        """Coincidence test within ``tolerance`` (paper's ``Equal to``)."""
        return self.distance_to(other) <= tolerance

    def translate(self, dx: float, dy: float) -> "PointLocation":
        """Point shifted by the vector ``(dx, dy)``."""
        return PointLocation(self.x + dx, self.y + dy)

    def __iter__(self):
        yield self.x
        yield self.y

    def __repr__(self) -> str:
        return f"({self.x:g}, {self.y:g})"


# ----------------------------------------------------------------------
# low-level geometry helpers
# ----------------------------------------------------------------------

def _orientation(
    p: PointLocation, q: PointLocation, r: PointLocation, tolerance: float = EPS
) -> int:
    """Sign of the cross product (q-p) x (r-p): 1 ccw, -1 cw, 0 collinear.

    ``tolerance`` widens the collinear band for predicates that want
    boundary forgiveness (containment, segment tests).  Hull
    construction passes 0 — an absolute tolerance there can misread a
    strict turn with sub-tolerance coordinates as collinear and drop an
    extreme vertex.
    """
    cross = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    if cross > tolerance:
        return 1
    if cross < -tolerance:
        return -1
    return 0


def _on_segment(p: PointLocation, a: PointLocation, b: PointLocation) -> bool:
    """Whether collinear point ``p`` lies on the closed segment ``ab``."""
    return (
        min(a.x, b.x) - EPS <= p.x <= max(a.x, b.x) + EPS
        and min(a.y, b.y) - EPS <= p.y <= max(a.y, b.y) + EPS
    )


def segments_intersect(
    a1: PointLocation, a2: PointLocation, b1: PointLocation, b2: PointLocation
) -> bool:
    """Whether closed segments ``a1a2`` and ``b1b2`` share any point."""
    o1 = _orientation(a1, a2, b1)
    o2 = _orientation(a1, a2, b2)
    o3 = _orientation(b1, b2, a1)
    o4 = _orientation(b1, b2, a2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(b1, a1, a2):
        return True
    if o2 == 0 and _on_segment(b2, a1, a2):
        return True
    if o3 == 0 and _on_segment(a1, b1, b2):
        return True
    if o4 == 0 and _on_segment(a2, b1, b2):
        return True
    return False


def point_segment_distance(
    p: PointLocation, a: PointLocation, b: PointLocation
) -> float:
    """Distance from point ``p`` to the closed segment ``ab``."""
    ab_x, ab_y = b.x - a.x, b.y - a.y
    length_sq = ab_x * ab_x + ab_y * ab_y
    if length_sq <= EPS:
        return p.distance_to(a)
    t = ((p.x - a.x) * ab_x + (p.y - a.y) * ab_y) / length_sq
    t = max(0.0, min(1.0, t))
    nearest = PointLocation(a.x + t * ab_x, a.y + t * ab_y)
    return p.distance_to(nearest)


def centroid_of_points(points: Iterable[PointLocation]) -> PointLocation:
    """Arithmetic mean of a non-empty collection of points."""
    pts = list(points)
    if not pts:
        raise SpatialError("centroid of no points")
    return PointLocation(
        sum(p.x for p in pts) / len(pts), sum(p.y for p in pts) / len(pts)
    )


def convex_hull(points: Iterable[PointLocation]) -> list[PointLocation]:
    """Convex hull (counter-clockwise, no duplicate endpoint).

    Uses Andrew's monotone chain.  Degenerate inputs collapse: fewer
    than three distinct points return those points in sorted order, and
    collinear point sets return just the two extreme points — callers
    constructing a :class:`Polygon` from a hull must therefore check the
    result length.
    """
    unique = sorted(set((p.x, p.y) for p in points))
    pts = [PointLocation(x, y) for x, y in unique]
    if len(pts) <= 2:
        return pts

    def half(iterable: Sequence[PointLocation]) -> list[PointLocation]:
        chain: list[PointLocation] = []
        for p in iterable:
            while (
                len(chain) >= 2
                and _orientation(chain[-2], chain[-1], p, tolerance=0.0) <= 0
            ):
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) >= 3 and abs(_signed_area(hull)) <= EPS:
        # Numerically collinear (area below tolerance): collapse to the
        # two extreme points so callers never build a degenerate polygon.
        hull = [pts[0], pts[-1]]
    return hull if len(hull) >= 2 else pts


# ----------------------------------------------------------------------
# fields (location polytopes)
# ----------------------------------------------------------------------

class Field(ABC):
    """A location field: the spatial extent of a field event.

    Concrete shapes are :class:`Polygon`, :class:`Circle` and
    :class:`BoundingBox`.  All expose containment, pairwise intersection
    (the paper's ``Joint``) and full-containment tests, plus the centroid
    and area used by spatial aggregation functions.
    """

    @abstractmethod
    def contains_point(self, point: PointLocation) -> bool:
        """Whether ``point`` lies in the closed region (boundary counts)."""

    @abstractmethod
    def bounding_box(self) -> "BoundingBox":
        """Smallest axis-aligned box enclosing the field."""

    @abstractmethod
    def centroid(self) -> PointLocation:
        """Geometric center of the field."""

    @abstractmethod
    def area(self) -> float:
        """Area of the field."""

    @abstractmethod
    def boundary_distance(self, point: PointLocation) -> float:
        """Distance from ``point`` to the field boundary (always >= 0)."""

    def distance_to_point(self, point: PointLocation) -> float:
        """0 when the point is inside, else distance to the boundary."""
        if self.contains_point(point):
            return 0.0
        return self.boundary_distance(point)

    def intersects(self, other: "Field") -> bool:
        """Whether the two fields share any point (paper's ``Joint``)."""
        if not self.bounding_box().overlaps(other.bounding_box()):
            return False
        return _fields_intersect(self, other)

    def contains_field(self, other: "Field") -> bool:
        """Whether ``other`` lies entirely within this field."""
        return _field_contains(self, other)

    def equals(self, other: "Field", tolerance: float = 1e-6) -> bool:
        """Approximate extent equality: mutual containment within tolerance.

        Exact shape equality is not needed by the model; two fields are
        treated as ``Equal to`` when each contains the other's defining
        geometry (vertices / center-radius) to within ``tolerance``.
        """
        bb_a, bb_b = self.bounding_box(), other.bounding_box()
        return (
            abs(bb_a.min_x - bb_b.min_x) <= tolerance
            and abs(bb_a.min_y - bb_b.min_y) <= tolerance
            and abs(bb_a.max_x - bb_b.max_x) <= tolerance
            and abs(bb_a.max_y - bb_b.max_y) <= tolerance
            and self.contains_field(other)
            and other.contains_field(self)
        )


@dataclass(frozen=True)
class BoundingBox(Field):
    """Axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.max_x < self.min_x or self.max_y < self.min_y:
            raise SpatialError(
                f"degenerate bounding box ({self.min_x},{self.min_y})-"
                f"({self.max_x},{self.max_y})"
            )

    def contains_point(self, point: PointLocation) -> bool:
        return (
            self.min_x - EPS <= point.x <= self.max_x + EPS
            and self.min_y - EPS <= point.y <= self.max_y + EPS
        )

    def bounding_box(self) -> "BoundingBox":
        return self

    def centroid(self) -> PointLocation:
        return PointLocation(
            (self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0
        )

    def area(self) -> float:
        return (self.max_x - self.min_x) * (self.max_y - self.min_y)

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    def overlaps(self, other: "BoundingBox") -> bool:
        """Fast axis-separation overlap test between boxes."""
        return not (
            self.max_x < other.min_x - EPS
            or other.max_x < self.min_x - EPS
            or self.max_y < other.min_y - EPS
            or other.max_y < self.min_y - EPS
        )

    def boundary_distance(self, point: PointLocation) -> float:
        return min(
            point_segment_distance(point, a, b) for a, b in self._edges()
        )

    def to_polygon(self) -> "Polygon":
        """Equivalent 4-vertex polygon (counter-clockwise)."""
        return Polygon(
            (
                PointLocation(self.min_x, self.min_y),
                PointLocation(self.max_x, self.min_y),
                PointLocation(self.max_x, self.max_y),
                PointLocation(self.min_x, self.max_y),
            )
        )

    def expand(self, margin: float) -> "BoundingBox":
        """Box grown by ``margin`` on every side."""
        return BoundingBox(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )

    def _edges(self):
        return self.to_polygon().edges()

    def __repr__(self) -> str:
        return (
            f"Box[({self.min_x:g},{self.min_y:g})..({self.max_x:g},{self.max_y:g})]"
        )


@dataclass(frozen=True)
class Circle(Field):
    """Disk of ``radius`` around ``center`` (closed)."""

    center: PointLocation
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise SpatialError(f"negative radius {self.radius}")

    def contains_point(self, point: PointLocation) -> bool:
        return self.center.distance_to(point) <= self.radius + EPS

    def bounding_box(self) -> BoundingBox:
        return BoundingBox(
            self.center.x - self.radius,
            self.center.y - self.radius,
            self.center.x + self.radius,
            self.center.y + self.radius,
        )

    def centroid(self) -> PointLocation:
        return self.center

    def area(self) -> float:
        return math.pi * self.radius * self.radius

    def boundary_distance(self, point: PointLocation) -> float:
        return abs(self.center.distance_to(point) - self.radius)

    def __repr__(self) -> str:
        return f"Circle[{self.center!r}, r={self.radius:g}]"


class Polygon(Field):
    """Simple (non-self-intersecting) polygon given by its vertices.

    Vertices may be listed in either winding order; the constructor
    normalizes to counter-clockwise.  The polygon is closed implicitly
    (the last vertex connects back to the first).
    """

    __slots__ = ("_vertices", "_bbox")

    def __init__(self, vertices: Sequence[PointLocation]):
        verts = tuple(vertices)
        if len(verts) < 3:
            raise SpatialError(
                f"a polygon needs at least 3 vertices, got {len(verts)}"
            )
        if _signed_area(verts) < 0:
            verts = tuple(reversed(verts))
        if abs(_signed_area(verts)) <= EPS:
            raise SpatialError("degenerate (zero-area) polygon")
        self._vertices = verts
        self._bbox = BoundingBox(
            min(v.x for v in verts),
            min(v.y for v in verts),
            max(v.x for v in verts),
            max(v.y for v in verts),
        )

    @property
    def vertices(self) -> tuple[PointLocation, ...]:
        return self._vertices

    def edges(self):
        """Yield each edge as a pair of endpoints."""
        verts = self._vertices
        for i, a in enumerate(verts):
            yield a, verts[(i + 1) % len(verts)]

    def contains_point(self, point: PointLocation) -> bool:
        if not self._bbox.contains_point(point):
            return False
        for a, b in self.edges():
            if _orientation(a, b, point) == 0 and _on_segment(point, a, b):
                return True
        inside = False
        x, y = point.x, point.y
        verts = self._vertices
        j = len(verts) - 1
        for i in range(len(verts)):
            xi, yi = verts[i].x, verts[i].y
            xj, yj = verts[j].x, verts[j].y
            if (yi > y) != (yj > y):
                x_cross = (xj - xi) * (y - yi) / (yj - yi) + xi
                if x < x_cross:
                    inside = not inside
            j = i
        return inside

    def bounding_box(self) -> BoundingBox:
        return self._bbox

    def area(self) -> float:
        return abs(_signed_area(self._vertices))

    def centroid(self) -> PointLocation:
        # Work in coordinates relative to the first vertex: the shoelace
        # formula suffers catastrophic cancellation for small polygons
        # far from the origin otherwise.
        verts = self._vertices
        ox, oy = verts[0].x, verts[0].y
        signed = cx = cy = 0.0
        for i, a in enumerate(verts):
            b = verts[(i + 1) % len(verts)]
            ax, ay = a.x - ox, a.y - oy
            bx, by = b.x - ox, b.y - oy
            cross = ax * by - bx * ay
            signed += cross
            cx += (ax + bx) * cross
            cy += (ay + by) * cross
        factor = 1.0 / (3.0 * signed)  # signed here is 2 * area
        return PointLocation(ox + cx * factor, oy + cy * factor)

    def boundary_distance(self, point: PointLocation) -> float:
        return min(point_segment_distance(point, a, b) for a, b in self.edges())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polygon) and self._vertices == other._vertices

    def __hash__(self) -> int:
        return hash(self._vertices)

    def __repr__(self) -> str:
        return f"Polygon[{len(self._vertices)} vertices, area={self.area():g}]"


def _signed_area(vertices: Sequence[PointLocation]) -> float:
    """Shoelace signed area (positive for counter-clockwise winding).

    Computed relative to the first vertex to stay well-conditioned for
    small polygons far from the origin.
    """
    ox, oy = vertices[0].x, vertices[0].y
    total = 0.0
    n = len(vertices)
    for i, a in enumerate(vertices):
        b = vertices[(i + 1) % n]
        total += (a.x - ox) * (b.y - oy) - (b.x - ox) * (a.y - oy)
    return total / 2.0


def min_enclosing_box(points: Iterable[PointLocation]) -> BoundingBox:
    """Smallest axis-aligned box covering a non-empty point set."""
    pts = list(points)
    if not pts:
        raise SpatialError("min_enclosing_box of no points")
    return BoundingBox(
        min(p.x for p in pts),
        min(p.y for p in pts),
        max(p.x for p in pts),
        max(p.y for p in pts),
    )


# ----------------------------------------------------------------------
# field / field predicates (double dispatch on shape pairs)
# ----------------------------------------------------------------------

def _as_polygon(field: Field) -> Polygon | None:
    if isinstance(field, Polygon):
        return field
    if isinstance(field, BoundingBox):
        return field.to_polygon()
    return None


def _fields_intersect(a: Field, b: Field) -> bool:
    if isinstance(a, Circle) and isinstance(b, Circle):
        return a.center.distance_to(b.center) <= a.radius + b.radius + EPS
    if isinstance(a, Circle):
        return _circle_polygon_intersect(a, _require_polygon(b))
    if isinstance(b, Circle):
        return _circle_polygon_intersect(b, _require_polygon(a))
    return _polygons_intersect(_require_polygon(a), _require_polygon(b))


def _require_polygon(field: Field) -> Polygon:
    poly = _as_polygon(field)
    if poly is None:
        raise SpatialError(f"unsupported field shape {type(field).__name__}")
    return poly


def _circle_polygon_intersect(circle: Circle, poly: Polygon) -> bool:
    if poly.contains_point(circle.center):
        return True
    return any(
        point_segment_distance(circle.center, a, b) <= circle.radius + EPS
        for a, b in poly.edges()
    )


def _polygons_intersect(a: Polygon, b: Polygon) -> bool:
    for ea in a.edges():
        for eb in b.edges():
            if segments_intersect(ea[0], ea[1], eb[0], eb[1]):
                return True
    return a.contains_point(b.vertices[0]) or b.contains_point(a.vertices[0])


def _polygon_edges_cross(a: Polygon, b: Polygon) -> bool:
    """Proper edge crossings only (shared boundary points do not count)."""
    for a1, a2 in a.edges():
        for b1, b2 in b.edges():
            o1 = _orientation(a1, a2, b1)
            o2 = _orientation(a1, a2, b2)
            o3 = _orientation(b1, b2, a1)
            o4 = _orientation(b1, b2, a2)
            if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
                return True
    return False


def _field_contains(outer: Field, inner: Field) -> bool:
    if isinstance(outer, Circle) and isinstance(inner, Circle):
        distance = outer.center.distance_to(inner.center)
        return distance + inner.radius <= outer.radius + EPS
    if isinstance(outer, Circle):
        poly = _require_polygon(inner)
        return all(
            outer.center.distance_to(v) <= outer.radius + EPS for v in poly.vertices
        )
    if isinstance(inner, Circle):
        poly = _require_polygon(outer)
        return (
            poly.contains_point(inner.center)
            and poly.boundary_distance(inner.center) >= inner.radius - EPS
        )
    outer_poly = _require_polygon(outer)
    inner_poly = _require_polygon(inner)
    if not all(outer_poly.contains_point(v) for v in inner_poly.vertices):
        return False
    return not _polygon_edges_cross(outer_poly, inner_poly)


# ----------------------------------------------------------------------
# spatial relations
# ----------------------------------------------------------------------

SpatialEntity = Union[PointLocation, Field]


class SpatialRelation(enum.Enum):
    """Every spatial relation the model distinguishes (Section 4.2)."""

    EQUAL_TO = "equal_to"
    DISTINCT = "distinct"      # two non-coincident points
    INSIDE = "inside"
    OUTSIDE = "outside"        # a point clear of a field (either order)
    CONTAINS = "contains"
    JOINT = "joint"            # overlapping fields, neither contains the other
    DISJOINT = "disjoint"      # two non-overlapping fields

    @property
    def inverse(self) -> "SpatialRelation":
        """The relation that holds with the operands swapped.

        The mapping is an involution (``r.inverse.inverse is r``), which
        requires ``OUTSIDE`` and ``DISJOINT`` to be self-inverse: a point
        outside a field means the field is outside the point, and
        disjointness of fields is symmetric.
        """
        return _SPATIAL_INVERSES[self]


_SPATIAL_INVERSES = {
    SpatialRelation.EQUAL_TO: SpatialRelation.EQUAL_TO,
    SpatialRelation.DISTINCT: SpatialRelation.DISTINCT,
    SpatialRelation.INSIDE: SpatialRelation.CONTAINS,
    SpatialRelation.OUTSIDE: SpatialRelation.OUTSIDE,
    SpatialRelation.CONTAINS: SpatialRelation.INSIDE,
    SpatialRelation.JOINT: SpatialRelation.JOINT,
    SpatialRelation.DISJOINT: SpatialRelation.DISJOINT,
}


def spatial_relation(
    a: SpatialEntity, b: SpatialEntity, tolerance: float = EPS
) -> SpatialRelation:
    """The single spatial relation holding between two spatial entities.

    Point/point pairs yield ``EQUAL_TO`` or ``DISTINCT``; point/field
    pairs yield ``INSIDE`` or ``OUTSIDE``; field/point pairs the inverse
    (``CONTAINS`` / ``OUTSIDE``); field/field pairs one of ``EQUAL_TO``,
    ``INSIDE``, ``CONTAINS``, ``JOINT`` or ``DISJOINT``.
    """
    a_point = isinstance(a, PointLocation)
    b_point = isinstance(b, PointLocation)
    if a_point and b_point:
        return (
            SpatialRelation.EQUAL_TO
            if a.equals(b, tolerance)
            else SpatialRelation.DISTINCT
        )
    if a_point:
        return (
            SpatialRelation.INSIDE
            if b.contains_point(a)
            else SpatialRelation.OUTSIDE
        )
    if b_point:
        return (
            SpatialRelation.CONTAINS
            if a.contains_point(b)
            else SpatialRelation.OUTSIDE
        )
    if a.equals(b):
        return SpatialRelation.EQUAL_TO
    if b.contains_field(a):
        return SpatialRelation.INSIDE
    if a.contains_field(b):
        return SpatialRelation.CONTAINS
    if a.intersects(b):
        return SpatialRelation.JOINT
    return SpatialRelation.DISJOINT
