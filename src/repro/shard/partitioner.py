"""Tiling the world bounds into detection shards.

A :class:`WorldPartitioner` divides a rectangular world extent into
``shards`` disjoint rectangular regions and answers the two queries the
router needs:

* :meth:`~WorldPartitioner.shard_of` — the *home* shard of a point
  (points outside the bounds clamp to the nearest edge shard, so the
  partition is total over the plane);
* :meth:`~WorldPartitioner.shards_within` — every shard whose region
  lies within a radius of a point, which is how halo routing finds the
  neighbor shards a boundary-adjacent entity must be mirrored into.

Both queries clamp the point into the bounds first.  Clamping to a
convex box is 1-Lipschitz (it never increases pairwise distances), so
every pairwise-distance guarantee the router derives from specification
clauses survives clamping — entities far outside the declared bounds
still merge exactly, they just all land in edge shards.

The tiling is a grid of rows x cols uniform cells, factored as
near-square as the shard count allows and oriented so the longer world
axis gets the larger factor.
"""

from __future__ import annotations

import math

from repro.core.errors import SpatialError
from repro.core.space_model import BoundingBox, PointLocation

__all__ = ["WorldPartitioner"]


def _near_square_factors(shards: int) -> tuple[int, int]:
    """Factor ``shards`` as ``(small, large)`` with the factors closest."""
    small = int(math.isqrt(shards))
    while shards % small:
        small -= 1
    return small, shards // small


class WorldPartitioner:
    """Uniform grid partition of a world extent.

    Args:
        bounds: The world extent to tile.  Any box containing the bulk
            of the observed locations works — partition choice affects
            only load balance, never correctness (outside points clamp
            to edge shards).
        shards: Number of shards, an ``int`` >= 1 (a bool is refused).
    """

    def __init__(self, bounds: BoundingBox, shards: int):
        if type(shards) is not int or shards < 1:
            raise SpatialError(
                f"shard count must be an int >= 1, got {shards!r}"
            )
        self.bounds = bounds
        small, large = _near_square_factors(shards)
        wide = bounds.width >= bounds.height
        rows, cols = (small, large) if wide else (large, small)
        self.rows = rows
        self.cols = cols
        self._cell_w = bounds.width / cols
        self._cell_h = bounds.height / rows

    @property
    def shard_count(self) -> int:
        """Total number of shards (``rows * cols``)."""
        return self.rows * self.cols

    # -- geometry ------------------------------------------------------

    def _clamp(self, point: PointLocation) -> tuple[float, float]:
        b = self.bounds
        return (
            min(max(point.x, b.min_x), b.max_x),
            min(max(point.y, b.min_y), b.max_y),
        )

    def _col_of(self, x: float) -> int:
        if self._cell_w <= 0.0:
            return 0
        col = int((x - self.bounds.min_x) / self._cell_w)
        return min(max(col, 0), self.cols - 1)

    def _row_of(self, y: float) -> int:
        if self._cell_h <= 0.0:
            return 0
        row = int((y - self.bounds.min_y) / self._cell_h)
        return min(max(row, 0), self.rows - 1)

    def region(self, shard: int) -> BoundingBox:
        """The rectangular region of one shard."""
        if not 0 <= shard < self.shard_count:
            raise SpatialError(
                f"no shard {shard}; partition has {self.shard_count}"
            )
        row, col = divmod(shard, self.cols)
        b = self.bounds
        return BoundingBox(
            b.min_x + col * self._cell_w,
            b.min_y + row * self._cell_h,
            b.max_x if col == self.cols - 1 else b.min_x + (col + 1) * self._cell_w,
            b.max_y if row == self.rows - 1 else b.min_y + (row + 1) * self._cell_h,
        )

    def regions(self) -> tuple[BoundingBox, ...]:
        """All shard regions, in shard-id order."""
        return tuple(self.region(i) for i in range(self.shard_count))

    def shard_of(self, point: PointLocation) -> int:
        """Home shard of a point (clamped into the bounds)."""
        x, y = self._clamp(point)
        return self._row_of(y) * self.cols + self._col_of(x)

    def shards_within(self, point: PointLocation, radius: float) -> tuple[int, ...]:
        """Every shard whose region lies within ``radius`` of the point.

        The point is clamped into the bounds first, so the result always
        includes :meth:`shard_of` (a region contains its own clamped
        point at distance zero).  ``radius=0`` therefore returns exactly
        the home shard.
        """
        x, y = self._clamp(point)
        col_lo = self._col_of(x - radius)
        col_hi = self._col_of(x + radius)
        row_lo = self._row_of(y - radius)
        row_hi = self._row_of(y + radius)
        limit = radius * radius
        found: list[int] = []
        b = self.bounds
        for row in range(row_lo, row_hi + 1):
            cell_min_y = b.min_y + row * self._cell_h
            cell_max_y = b.max_y if row == self.rows - 1 else cell_min_y + self._cell_h
            dy = max(cell_min_y - y, 0.0, y - cell_max_y)
            for col in range(col_lo, col_hi + 1):
                cell_min_x = b.min_x + col * self._cell_w
                cell_max_x = (
                    b.max_x if col == self.cols - 1 else cell_min_x + self._cell_w
                )
                dx = max(cell_min_x - x, 0.0, x - cell_max_x)
                if dx * dx + dy * dy <= limit:
                    found.append(row * self.cols + col)
        return tuple(found)

    def describe(self) -> str:
        """Human-readable layout summary (for tracing and docs)."""
        return f"grid:{self.rows}x{self.cols} over {self.bounds!r}"

    def __repr__(self) -> str:
        return f"WorldPartitioner({self.describe()})"
