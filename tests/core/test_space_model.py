"""Unit tests for the 2-D spatial model (Section 4, "Spatial Model")."""

import math

import pytest

from repro.core.errors import SpatialError
from repro.core.space_model import (
    BoundingBox,
    Circle,
    PointLocation,
    Polygon,
    SpatialRelation,
    centroid_of_points,
    convex_hull,
    min_enclosing_box,
    point_segment_distance,
    segments_intersect,
    spatial_relation,
)

S = SpatialRelation


def square(x0=0.0, y0=0.0, side=4.0):
    return Polygon(
        [
            PointLocation(x0, y0),
            PointLocation(x0 + side, y0),
            PointLocation(x0 + side, y0 + side),
            PointLocation(x0, y0 + side),
        ]
    )


class TestPointLocation:
    def test_distance(self):
        assert PointLocation(0, 0).distance_to(PointLocation(3, 4)) == 5.0

    def test_equals_with_tolerance(self):
        assert PointLocation(1, 1).equals(PointLocation(1.0005, 1), tolerance=1e-2)
        assert not PointLocation(1, 1).equals(PointLocation(1.1, 1))

    def test_translate(self):
        assert PointLocation(1, 2).translate(3, -1) == PointLocation(4, 1)

    def test_unpacking(self):
        x, y = PointLocation(2, 7)
        assert (x, y) == (2, 7)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coordinate_rejected(self, bad):
        for x, y in ((bad, 2.0), (1.0, bad)):
            with pytest.raises(SpatialError, match="non-finite"):
                PointLocation(x, y)

    def test_huge_finite_coordinate_accepted(self):
        point = PointLocation(1e308, -1e308)
        assert point.x == 1e308
        with pytest.raises(SpatialError):
            point.translate(1e308, 0.0)  # overflows to inf


class TestGeometryHelpers:
    def test_segments_crossing(self):
        assert segments_intersect(
            PointLocation(0, 0), PointLocation(4, 4),
            PointLocation(0, 4), PointLocation(4, 0),
        )

    def test_segments_parallel(self):
        assert not segments_intersect(
            PointLocation(0, 0), PointLocation(4, 0),
            PointLocation(0, 1), PointLocation(4, 1),
        )

    def test_segments_touching_at_endpoint(self):
        assert segments_intersect(
            PointLocation(0, 0), PointLocation(2, 2),
            PointLocation(2, 2), PointLocation(4, 0),
        )

    def test_collinear_overlap(self):
        assert segments_intersect(
            PointLocation(0, 0), PointLocation(4, 0),
            PointLocation(2, 0), PointLocation(6, 0),
        )

    def test_point_segment_distance_perpendicular(self):
        assert point_segment_distance(
            PointLocation(2, 3), PointLocation(0, 0), PointLocation(4, 0)
        ) == pytest.approx(3.0)

    def test_point_segment_distance_beyond_endpoint(self):
        assert point_segment_distance(
            PointLocation(7, 0), PointLocation(0, 0), PointLocation(4, 0)
        ) == pytest.approx(3.0)

    def test_point_segment_distance_degenerate_segment(self):
        assert point_segment_distance(
            PointLocation(3, 4), PointLocation(0, 0), PointLocation(0, 0)
        ) == pytest.approx(5.0)

    def test_centroid_of_points(self):
        centroid = centroid_of_points(
            [PointLocation(0, 0), PointLocation(4, 0), PointLocation(2, 6)]
        )
        assert centroid == PointLocation(2, 2)

    def test_centroid_empty_rejected(self):
        with pytest.raises(SpatialError):
            centroid_of_points([])


class TestConvexHull:
    def test_hull_of_square_with_interior_point(self):
        points = [
            PointLocation(0, 0),
            PointLocation(4, 0),
            PointLocation(4, 4),
            PointLocation(0, 4),
            PointLocation(2, 2),  # interior — must not appear
        ]
        hull = convex_hull(points)
        assert len(hull) == 4
        assert PointLocation(2, 2) not in hull

    def test_hull_collinear_returns_points(self):
        points = [PointLocation(0, 0), PointLocation(1, 1), PointLocation(2, 2)]
        hull = convex_hull(points)
        assert len(hull) <= 3  # no polygon possible

    def test_hull_deduplicates(self):
        hull = convex_hull([PointLocation(1, 1)] * 5)
        assert hull == [PointLocation(1, 1)]


class TestBoundingBox:
    def test_degenerate_rejected(self):
        with pytest.raises(SpatialError):
            BoundingBox(5, 0, 1, 4)

    def test_contains_and_area(self):
        box = BoundingBox(0, 0, 4, 2)
        assert box.contains_point(PointLocation(4, 2))
        assert not box.contains_point(PointLocation(4.1, 2))
        assert box.area() == 8.0
        assert box.centroid() == PointLocation(2, 1)

    def test_overlaps(self):
        assert BoundingBox(0, 0, 4, 4).overlaps(BoundingBox(3, 3, 6, 6))
        assert not BoundingBox(0, 0, 1, 1).overlaps(BoundingBox(2, 2, 3, 3))

    def test_expand(self):
        grown = BoundingBox(0, 0, 2, 2).expand(1)
        assert grown == BoundingBox(-1, -1, 3, 3)

    def test_to_polygon_roundtrip(self):
        box = BoundingBox(0, 0, 4, 2)
        poly = box.to_polygon()
        assert poly.area() == pytest.approx(box.area())
        assert poly.bounding_box() == box


class TestCircle:
    def test_negative_radius_rejected(self):
        with pytest.raises(SpatialError):
            Circle(PointLocation(0, 0), -1.0)

    def test_contains_boundary(self):
        circle = Circle(PointLocation(0, 0), 5.0)
        assert circle.contains_point(PointLocation(3, 4))
        assert not circle.contains_point(PointLocation(3.1, 4))

    def test_area_and_bbox(self):
        circle = Circle(PointLocation(1, 1), 2.0)
        assert circle.area() == pytest.approx(math.pi * 4)
        assert circle.bounding_box() == BoundingBox(-1, -1, 3, 3)

    def test_boundary_distance(self):
        circle = Circle(PointLocation(0, 0), 5.0)
        assert circle.boundary_distance(PointLocation(0, 0)) == 5.0
        assert circle.boundary_distance(PointLocation(8, 0)) == pytest.approx(3.0)


class TestPolygon:
    def test_too_few_vertices_rejected(self):
        with pytest.raises(SpatialError):
            Polygon([PointLocation(0, 0), PointLocation(1, 1)])

    def test_zero_area_rejected(self):
        with pytest.raises(SpatialError):
            Polygon(
                [PointLocation(0, 0), PointLocation(1, 1), PointLocation(2, 2)]
            )

    def test_winding_normalized_to_ccw(self):
        clockwise = Polygon(
            [
                PointLocation(0, 4),
                PointLocation(4, 4),
                PointLocation(4, 0),
                PointLocation(0, 0),
            ]
        )
        assert clockwise.area() == pytest.approx(16.0)

    def test_area_and_centroid(self):
        poly = square()
        assert poly.area() == pytest.approx(16.0)
        assert poly.centroid() == PointLocation(2, 2)

    def test_contains_interior_boundary_exterior(self):
        poly = square()
        assert poly.contains_point(PointLocation(2, 2))
        assert poly.contains_point(PointLocation(0, 2))     # edge
        assert poly.contains_point(PointLocation(4, 4))     # vertex
        assert not poly.contains_point(PointLocation(5, 2))

    def test_concave_polygon_containment(self):
        # L-shape: the notch must be outside.
        notch = Polygon(
            [
                PointLocation(0, 0),
                PointLocation(4, 0),
                PointLocation(4, 2),
                PointLocation(2, 2),
                PointLocation(2, 4),
                PointLocation(0, 4),
            ]
        )
        assert notch.contains_point(PointLocation(1, 3))
        assert not notch.contains_point(PointLocation(3, 3))

    def test_boundary_distance(self):
        assert square().boundary_distance(PointLocation(2, 2)) == pytest.approx(2.0)

    def test_min_enclosing_box(self):
        box = min_enclosing_box(
            [PointLocation(1, 2), PointLocation(5, -1), PointLocation(3, 4)]
        )
        assert box == BoundingBox(1, -1, 5, 4)


class TestFieldPredicates:
    def test_circle_circle_intersection(self):
        a = Circle(PointLocation(0, 0), 3)
        b = Circle(PointLocation(5, 0), 3)
        c = Circle(PointLocation(10, 0), 1)
        assert a.intersects(b)
        assert not a.intersects(c)

    def test_circle_polygon_intersection(self):
        poly = square()
        assert poly.intersects(Circle(PointLocation(5, 2), 1.5))
        assert not poly.intersects(Circle(PointLocation(8, 8), 1.0))
        assert poly.intersects(Circle(PointLocation(2, 2), 0.5))  # centre inside

    def test_polygon_polygon_intersection(self):
        assert square().intersects(square(3, 3))
        assert not square().intersects(square(10, 10))
        # containment without edge crossings is still "intersects"
        assert square(0, 0, 10).intersects(square(2, 2, 2))

    def test_contains_field_polygon(self):
        assert square(0, 0, 10).contains_field(square(2, 2, 2))
        assert not square(0, 0, 4).contains_field(square(3, 3, 4))

    def test_contains_field_circle_in_polygon(self):
        assert square(0, 0, 10).contains_field(Circle(PointLocation(5, 5), 2))
        assert not square(0, 0, 10).contains_field(Circle(PointLocation(9, 9), 3))

    def test_contains_field_circle_circle(self):
        outer = Circle(PointLocation(0, 0), 5)
        assert outer.contains_field(Circle(PointLocation(1, 0), 3))
        assert not outer.contains_field(Circle(PointLocation(4, 0), 3))

    def test_contains_field_polygon_in_circle(self):
        outer = Circle(PointLocation(2, 2), 4)
        assert outer.contains_field(square(1, 1, 2))
        assert not outer.contains_field(square(0, 0, 8))


class TestSpatialRelationDispatch:
    def test_point_point(self):
        assert spatial_relation(PointLocation(1, 1), PointLocation(1, 1)) is S.EQUAL_TO
        assert spatial_relation(PointLocation(1, 1), PointLocation(2, 2)) is S.DISTINCT

    def test_point_field(self):
        assert spatial_relation(PointLocation(2, 2), square()) is S.INSIDE
        assert spatial_relation(PointLocation(9, 9), square()) is S.OUTSIDE

    def test_field_point(self):
        assert spatial_relation(square(), PointLocation(2, 2)) is S.CONTAINS
        assert spatial_relation(square(), PointLocation(9, 9)) is S.OUTSIDE

    def test_field_field_all_cases(self):
        assert spatial_relation(square(), square()) is S.EQUAL_TO
        assert spatial_relation(square(1, 1, 2), square(0, 0, 10)) is S.INSIDE
        assert spatial_relation(square(0, 0, 10), square(1, 1, 2)) is S.CONTAINS
        assert spatial_relation(square(), square(2, 2)) is S.JOINT
        assert spatial_relation(square(), square(10, 10)) is S.DISJOINT

    def test_inverse_property(self):
        pairs = [
            (PointLocation(2, 2), square()),
            (square(1, 1, 2), square(0, 0, 10)),
            (square(), square(2, 2)),
            (PointLocation(0, 0), PointLocation(1, 1)),
        ]
        for a, b in pairs:
            assert spatial_relation(b, a) is spatial_relation(a, b).inverse
