"""WorldPartitioner geometry: tiling, homes, halo neighborhoods."""

import pytest

from repro.core.errors import SpatialError
from repro.core.space_model import EPS, BoundingBox, PointLocation
from repro.shard import ShardedDetectionEngine
from repro.shard.partitioner import WorldPartitioner

BOUNDS = BoundingBox(0.0, 0.0, 100.0, 60.0)


class TestLayout:
    def test_grid_factors_near_square_toward_wide_axis(self):
        part = WorldPartitioner(BOUNDS, 4)
        assert (part.rows, part.cols) == (2, 2)
        part = WorldPartitioner(BOUNDS, 6)
        assert (part.rows, part.cols) == (2, 3)  # wider world: cols > rows
        tall = WorldPartitioner(BoundingBox(0, 0, 60, 100), 6)
        assert (tall.rows, tall.cols) == (3, 2)

    def test_prime_shard_count_degrades_to_stripes_layout(self):
        part = WorldPartitioner(BOUNDS, 7)
        assert part.shard_count == 7
        assert (part.rows, part.cols) == (1, 7)

    def test_regions_tile_bounds_exactly(self):
        part = WorldPartitioner(BOUNDS, 6)
        regions = part.regions()
        assert len(regions) == 6
        assert sum(r.area() for r in regions) == pytest.approx(BOUNDS.area())
        assert min(r.min_x for r in regions) == BOUNDS.min_x
        assert max(r.max_x for r in regions) == BOUNDS.max_x
        assert min(r.min_y for r in regions) == BOUNDS.min_y
        assert max(r.max_y for r in regions) == BOUNDS.max_y

    def test_invalid_arguments_rejected(self):
        with pytest.raises(SpatialError):
            WorldPartitioner(BOUNDS, 0)
        with pytest.raises(SpatialError):
            WorldPartitioner(BOUNDS, 4).region(4)

    # A float or string used to escape as a bare TypeError (from
    # ``math.isqrt`` or ``<``) and ``True`` silently tiled one shard.
    # The sharded engine builds its partitioner first, so it refuses
    # the same counts before any shard engine exists.
    @pytest.mark.parametrize(
        "build",
        [
            lambda shards: WorldPartitioner(BOUNDS, shards),
            lambda shards: ShardedDetectionEngine(bounds=BOUNDS, shards=shards),
        ],
        ids=["partitioner", "engine"],
    )
    @pytest.mark.parametrize("shards", [0, -3, 2.5, "4", None, True])
    def test_bad_shard_count_rejected(self, build, shards):
        with pytest.raises(SpatialError, match="must be an int >= 1"):
            build(shards)


class TestHomeAssignment:
    def test_interior_points_land_in_their_region(self):
        part = WorldPartitioner(BOUNDS, 6)
        for x in (1.0, 30.0, 55.0, 99.0):
            for y in (1.0, 29.0, 59.0):
                shard = part.shard_of(PointLocation(x, y))
                assert part.region(shard).contains_point(PointLocation(x, y))

    def test_outside_points_clamp_to_edge_shards(self):
        part = WorldPartitioner(BOUNDS, 4)
        assert part.shard_of(PointLocation(-50.0, -50.0)) == 0
        far = part.shard_of(PointLocation(500.0, 500.0))
        assert far == part.shard_count - 1

    def test_degenerate_bounds_are_total(self):
        line = WorldPartitioner(BoundingBox(0, 5, 100, 5), 4)
        assert line.shard_of(PointLocation(50.0, 5.0)) in range(4)
        point = WorldPartitioner(BoundingBox(3, 3, 3, 3), 2)
        assert point.shard_of(PointLocation(99.0, 99.0)) in (0, 1)


class TestShardsWithin:
    def _brute(self, part, point, radius):
        found = []
        for i in range(part.shard_count):
            region = part.region(i)
            x = min(max(point.x, part.bounds.min_x), part.bounds.max_x)
            y = min(max(point.y, part.bounds.min_y), part.bounds.max_y)
            dx = max(region.min_x - x, 0.0, x - region.max_x)
            dy = max(region.min_y - y, 0.0, y - region.max_y)
            if dx * dx + dy * dy <= radius * radius:
                found.append(i)
        return found

    def test_never_wider_than_closed_region_distance(self):
        part = WorldPartitioner(BOUNDS, 8)
        for x in (-10.0, 0.0, 24.9, 25.0, 50.0, 77.7, 100.0, 140.0):
            for y in (-5.0, 0.0, 15.0, 30.0, 59.9, 80.0):
                for radius in (0.0, 1.0, 9.0, 26.0, 200.0):
                    point = PointLocation(x, y)
                    got = set(part.shards_within(point, radius))
                    assert got <= set(self._brute(part, point, radius))

    def test_contains_home_of_every_point_in_range(self):
        # The routing contract: any point within ``radius`` (after
        # clamping, which is how the router measures) must have its
        # *home* shard — half-open cell assignment, not closed-region
        # geometry — inside the neighborhood.
        import itertools
        import random

        part = WorldPartitioner(BOUNDS, 8)
        rng = random.Random(7)
        anchors = [
            PointLocation(rng.uniform(-20, 120), rng.uniform(-20, 80))
            for _ in range(60)
        ]
        others = anchors + [
            PointLocation(25.0, 30.0), PointLocation(50.0, 30.0),
            PointLocation(75.0, 0.0), PointLocation(24.999999, 29.999999),
        ]
        for p, q in itertools.product(anchors, others):
            cp = PointLocation(
                min(max(p.x, 0.0), 100.0), min(max(p.y, 0.0), 60.0)
            )
            cq = PointLocation(
                min(max(q.x, 0.0), 100.0), min(max(q.y, 0.0), 60.0)
            )
            # The router always queries with an EPS-padded halo, which
            # absorbs the float rounding of distance computations at
            # exact-boundary separations.
            radius = cp.distance_to(cq) + EPS
            assert part.shard_of(q) in part.shards_within(p, radius)

    def test_zero_radius_is_exactly_home(self):
        part = WorldPartitioner(BOUNDS, 6)
        for x in (3.0, 49.0, 96.0, -20.0, 300.0):
            point = PointLocation(x, 31.0)
            assert part.shards_within(point, 0.0) == (part.shard_of(point),)

    def test_always_contains_home(self):
        part = WorldPartitioner(BOUNDS, 5)
        for x in (-30.0, 10.0, 50.0, 130.0):
            point = PointLocation(x, 10.0)
            assert part.shard_of(point) in part.shards_within(point, 7.5)

    def test_radius_covering_world_returns_all(self):
        part = WorldPartitioner(BOUNDS, 4)
        assert part.shards_within(PointLocation(50.0, 30.0), 1000.0) == (
            0, 1, 2, 3,
        )
