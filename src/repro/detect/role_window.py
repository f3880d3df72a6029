"""One detection window: a FIFO of entities beside numpy columns.

Observers evaluate conditions over recent entities; a
:class:`RoleWindow` bounds that state for one distinct selector of a
specification (roles whose selectors compare equal share it) and is,
at the same time, the structure the planner
(:mod:`repro.detect.planner`) prunes candidates with.  Slot ``i`` of the
entity list is row ``i`` of four columns:

* ``x`` / ``y`` — the occurrence location when it is a
  :class:`~repro.core.space_model.PointLocation`, each coordinate
  ``NaN`` when it cannot be squared without overflow; both ``NaN`` for
  anything else (field events);
* ``lo`` / ``hi`` — the earliest / latest possible occurrence tick as
  ``int64``.  An open interval has ``hi = INT64_MAX``; an entity whose
  bounds are unknown (or do not fit in 64 bits) has ``lo = INT64_MAX,
  hi = INT64_MIN``.

Every query returns a boolean **reject mask** over the live slice — one
vectorised comparison per clause instead of one Python call per entry.
Soundness contract: a mask is ``True`` only where the clause *provably*
cannot hold.  Distances are compared with an explicit float margin
(never an equality between a vectorised and a :func:`math.hypot`
distance), every comparison against ``NaN`` is ``False``, and the tick
sentinels sit on the admitting side of every order comparison — so
unlocated, huge or temporally exotic entities are never rejected.

The same columns also *prove*: :func:`nearer_sq` and :func:`farther_sq`
bound a squared distance on either side of a radius with that margin,
so one :meth:`RoleWindow.distance_sq` array answers a distance clause
three ways — provably outside (reject), provably inside (prove), or
too close to the radius to tell (left to the compiled condition).  An
order comparison is exact wherever :meth:`RoleWindow.closed` holds.

Arrival order is slot order: :meth:`RoleWindow.surviving` maps
``np.flatnonzero`` of the kept rows back to entities, which is why
pruned enumeration is always an ordered subsequence of the exhaustive
one.  Eviction is strictly FIFO (arrival ticks never decrease), done by
advancing a head offset; dead rows are reclaimed by compaction when the
columns fill up, so appends stay amortised O(1).
"""

from __future__ import annotations

import numpy as np

from repro.core.entity import Entity
from repro.core.errors import ConditionError
from repro.core.space_model import EPS, BoundingBox, PointLocation
from repro.core.time_model import TimeInterval, TimePoint

__all__ = ["RoleWindow", "farther_sq", "nearer_sq", "tick_bounds"]

_INT64_MIN = int(np.iinfo(np.int64).min)
_INT64_MAX = int(np.iinfo(np.int64).max)
_COORD_LIMIT = 1e150  # |dx| <= 2e150 squares to 4e300: no overflow
_INITIAL_CAPACITY = 16


def tick_bounds(entity: Entity) -> tuple[int | None, int | None]:
    """Conservative [lo, hi] occurrence-tick bounds for an entity.

    A :class:`~repro.core.time_model.TimePoint` is its own bound; an
    open interval has ``hi=None`` (unbounded); an exotic temporal
    entity yields ``(None, None)`` — fully-unknown bounds are
    unprunable.  Shared by the window (column values) and the planner
    (pinned-entity predicates) so admission logic can never
    desynchronize from the stored metadata.
    """
    when = entity.occurrence_time
    if isinstance(when, TimePoint):
        return when.tick, when.tick
    if isinstance(when, TimeInterval):
        hi = None if when.end is None else when.end.tick
        return when.start.tick, hi
    return None, None


def _margin(radius: float) -> float:
    """Slack that absorbs any rounding gap between the vectorised and
    the scalar distance (a few ulps, relative) with orders to spare."""
    return EPS * (1.0 + abs(radius))


def farther_sq(radius: float) -> float:
    """Squared distance past which a point is provably farther than
    ``radius``: ``math.hypot`` of the same two points exceeds it too."""
    bound = radius + _margin(radius)
    return bound * bound


def nearer_sq(radius: float) -> float:
    """Squared distance below which a point is provably nearer than
    ``radius`` (nothing is nearer than a non-positive radius)."""
    bound = max(radius - _margin(radius), 0.0)
    return bound * bound


def _squarable(coordinate: float) -> float:
    """The coordinate, or NaN when its square could overflow."""
    return coordinate if abs(coordinate) <= _COORD_LIMIT else np.nan


class RoleWindow:
    """Entities tagged with their arrival tick, evicted after ``width`` ticks.

    An entity added at tick *t* stays eligible through tick
    ``t + width`` inclusive; ``width=0`` keeps only entities added at
    the current tick.

    Args:
        width: Non-negative window width in ticks.
    """

    def __init__(self, width: int):
        if width < 0:
            raise ConditionError(f"window width cannot be negative: {width}")
        self.width = width
        # Arrival ticks stay Python ints: eviction only ever looks at
        # the head, and any tick the engine accepts must fit.
        self._ticks: list[int] = []
        self._entities: list[Entity] = []
        self._head = 0  # first live slot
        self._x = np.empty(_INITIAL_CAPACITY, np.float64)
        self._y = np.empty(_INITIAL_CAPACITY, np.float64)
        self._lo = np.empty(_INITIAL_CAPACITY, np.int64)
        self._hi = np.empty(_INITIAL_CAPACITY, np.int64)

    # -- maintenance ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._entities) - self._head

    def add(self, entity: Entity, tick: int) -> None:
        """Append an entity that arrived at ``tick``."""
        slot = len(self._entities)
        if slot == len(self._x):
            self._make_room()
            slot = len(self._entities)
        location = entity.occurrence_location
        if isinstance(location, PointLocation):
            self._x[slot] = _squarable(location.x)
            self._y[slot] = _squarable(location.y)
        else:
            self._x[slot] = self._y[slot] = np.nan
        lo, hi = tick_bounds(entity)
        if lo is None or not (
            _INT64_MIN < lo <= (lo if hi is None else hi) < _INT64_MAX
        ):
            lo, hi = _INT64_MAX, _INT64_MIN  # unknown: no order mask rejects it
        elif hi is None:
            hi = _INT64_MAX  # open interval: never over
        self._lo[slot] = lo
        self._hi[slot] = hi
        self._ticks.append(tick)
        self._entities.append(entity)

    def _make_room(self) -> None:
        """Reclaim evicted rows, or double the columns when most are live."""
        head, size = self._head, len(self._entities)
        live = size - head
        capacity = size if head >= live else 2 * size
        for name in ("_x", "_y", "_lo", "_hi"):
            old = getattr(self, name)
            new = old if capacity == size else np.empty(capacity, old.dtype)
            new[:live] = old[head:size]
            setattr(self, name, new)
        del self._ticks[:head]
        del self._entities[:head]
        self._head = 0

    def evict(self, now: int) -> None:
        """Drop entities older than the window at ``now``."""
        ticks = self._ticks
        head, size = self._head, len(ticks)
        cutoff = now - self.width
        while head < size and ticks[head] < cutoff:
            head += 1
        if head == size:
            self.clear()
        else:
            self._head = head

    def clear(self) -> None:
        """Drop everything."""
        self._ticks.clear()
        self._entities.clear()
        self._head = 0

    # -- reads ---------------------------------------------------------

    def entities(self) -> list[Entity]:
        """Live entities in arrival order (a fresh list)."""
        return self._entities[self._head:]

    def entries(self) -> tuple[tuple[int, Entity], ...]:
        """Live ``(tick, entity)`` pairs in arrival order.

        The checkpoint view: engine snapshots serialize windows through
        this and rebuild them by re-adding the pairs in order, which
        reproduces both content and FIFO position exactly.
        """
        head = self._head
        return tuple(zip(self._ticks[head:], self._entities[head:]))

    # -- reject masks over the live slice ------------------------------

    def distance_sq(self, point: PointLocation) -> np.ndarray:
        """Squared distances to ``point`` (NaN where either end is NaN).

        ``> farther_sq(r)`` marks the rows provably farther than ``r``,
        ``< nearer_sq(r)`` the rows provably nearer."""
        live = slice(self._head, len(self._entities))
        dx = self._x[live] - _squarable(point.x)
        dy = self._y[live] - _squarable(point.y)
        return dx * dx + dy * dy

    def outside(self, box: BoundingBox) -> np.ndarray:
        """Rows provably outside ``box`` padded by the containment tolerance.

        Every ``Field.contains_point`` forgives up to ``EPS`` beyond its
        exact boundary, so the pad keeps a boundary-tolerant hit; the
        caller still runs the exact containment test on survivors.
        """
        live = slice(self._head, len(self._entities))
        x, y = self._x[live], self._y[live]
        return (
            (x < box.min_x - EPS)
            | (x > box.max_x + EPS)
            | (y < box.min_y - EPS)
            | (y > box.max_y + EPS)
        )

    def not_over_before(self, cap: int) -> np.ndarray:
        """Rows whose latest occurrence tick is not ``< cap``."""
        cap = max(_INT64_MIN + 1, min(cap, _INT64_MAX))
        return self._hi[self._head:len(self._entities)] >= cap

    def not_begun_after(self, floor: int) -> np.ndarray:
        """Rows whose earliest occurrence tick is not ``> floor``."""
        floor = max(_INT64_MIN, min(floor, _INT64_MAX - 1))
        return self._lo[self._head:len(self._entities)] <= floor

    def closed(self, rows: np.ndarray) -> np.ndarray:
        """Which of the live ``rows`` have known, closed tick bounds: the
        rows an order comparison decides exactly (the unknown and open
        sentinels sit on its admitting side)."""
        lo, hi = self._lo[self._head:][rows], self._hi[self._head:][rows]
        return (lo <= hi) & (hi < _INT64_MAX)

    def surviving(self, rejected: np.ndarray) -> list[Entity]:
        """Live entities a reject mask left standing, in arrival order."""
        return self.take(np.flatnonzero(~rejected))

    def take(self, rows: np.ndarray) -> list[Entity]:
        """The entities of the live ``rows``, in the order given."""
        entities, head = self._entities, self._head
        return [entities[head + i] for i in rows.tolist()]
