"""Soundness of the columnar role window (unit + hypothesis).

:class:`~repro.detect.role_window.RoleWindow` is both the bounded FIFO
an engine keeps per distinct selector of a spec and the structure the planner
prunes with.  Two contracts, each checked against a scalar reference
kept in this file:

* **window** — ``entries()`` equals a reference ``deque`` under any
  interleaving of adds and evictions, across the column growth and
  compaction boundaries;
* **superset guard** — a reject mask is ``True`` only where the clause
  provably cannot hold: everything the brute-force scalar test admits
  (and everything it cannot judge: field locations, huge coordinates,
  open or exotic occurrence times) is left standing;
* **proof** — a decisive plan's survivor is proven only where the
  scalar condition holds, and evaluates without raising; the probe that
  proves keeps the rows :meth:`EvaluationPlan.candidates` keeps.

The whole module runs with warnings as errors: a mask that overflows or
compares invalid values on its way to the right answer is a defect.
"""

import math
from collections import deque
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.composite import all_of
from repro.core.conditions import SpatialMeasureCondition, TemporalCondition, TimeOf
from repro.core.errors import ConditionError
from repro.core.instance import PhysicalObservation
from repro.core.operators import RelationalOp, TemporalOp
from repro.core.space_model import BoundingBox, Circle, PointLocation
from repro.core.spec import EntitySelector, EventSpecification
from repro.core.time_model import TimeInterval, TimePoint
from repro.detect.compiler import compile_condition
from repro.detect.engine import DetectionEngine, binding_identity
from repro.detect.planner import compile_plan
from repro.detect.role_window import RoleWindow, farther_sq, nearer_sq, tick_bounds

from tests.reference import NaiveEngine, evaluate

pytestmark = pytest.mark.filterwarnings("error")


@dataclass(frozen=True)
class Stub:
    """The two attributes a window reads off an entity."""

    occurrence_location: object
    occurrence_time: object
    name: int = 0


def at(x, y, tick=0, name=0):
    return Stub(PointLocation(x, y), TimePoint(tick), name)


# ----------------------------------------------------------------------
# the window contract
# ----------------------------------------------------------------------

class TestWindow:
    def test_live_within_width_inclusive(self):
        window = RoleWindow(10)
        a, b = at(0, 0, name=1), at(1, 1, name=2)
        window.add(a, 0)
        window.add(b, 5)
        window.evict(10)  # exactly width ticks later: still alive
        assert window.entities() == [a, b]
        window.evict(11)
        assert window.entities() == [b] and len(window) == 1
        assert window.entries() == ((5, b),)
        window.evict(16)
        assert window.entities() == [] and len(window) == 0

    def test_zero_width_keeps_current_tick_only(self):
        window = RoleWindow(0)
        window.add(at(0, 0), 5)
        window.evict(5)
        assert len(window) == 1
        window.evict(6)
        assert len(window) == 0

    def test_negative_width_rejected(self):
        with pytest.raises(ConditionError):
            RoleWindow(-1)

    def test_clear_then_reuse(self):
        window = RoleWindow(10)
        for i in range(40):
            window.add(at(i, i, name=i), i)
        window.clear()
        assert len(window) == 0 and window.entries() == ()
        fresh = at(1, 2, name=99)
        window.add(fresh, 50)
        assert window.entries() == ((50, fresh),)
        assert window.surviving(window.outside(BoundingBox(0, 0, 5, 5))) == [fresh]

    def test_growth_and_compaction_boundaries(self):
        """40 adds double the 16-row columns twice; the slow drain that
        follows fills them with dead rows and compacts in place."""
        steps = [("add", at(i, -i, tick=i)) for i in range(40)]
        for i in range(40, 400):
            steps += [("tick", 1), ("add", at(i, -i, tick=i))]
        window, live = replay(6, steps)
        assert [e.occurrence_time.tick for e in live] == list(range(393, 400))
        assert len(window._x) == 64  # never grew past the first burst
        origin = PointLocation(0, 0)
        assert standing(window, farther_than(window, origin, 396 * math.sqrt(2))) == {
            e.name for e in live[:4]
        }

    def test_entities_is_a_copy(self):
        window = RoleWindow(10)
        window.add(at(0, 0), 0)
        window.entities().clear()
        assert len(window.entities()) == 1

    def test_tick_bounds(self):
        assert tick_bounds(at(0, 0, tick=7)) == (7, 7)
        closed = TimeInterval(TimePoint(2), TimePoint(9))
        assert tick_bounds(Stub(None, closed)) == (2, 9)
        assert tick_bounds(Stub(None, TimeInterval(TimePoint(2), None))) == (2, None)
        assert tick_bounds(Stub(None, "whenever")) == (None, None)


# ----------------------------------------------------------------------
# strategies: every kind of entity a window can be handed
# ----------------------------------------------------------------------

small = st.floats(-200.0, 200.0, allow_nan=False)
huge = st.floats(-1e300, 1e300, allow_nan=False)
coords = st.one_of(small, small, huge)
radii = st.one_of(st.floats(0.0, 300.0), st.floats(0.0, 1e300), st.just(-1.0))
ticks = st.one_of(st.integers(-50, 200), st.integers(-(2**70), 2**70))

locations = st.one_of(
    st.builds(PointLocation, coords, coords),
    st.builds(PointLocation, coords, coords),
    st.builds(Circle, st.builds(PointLocation, small, small), st.floats(0.5, 20.0)),
)


@st.composite
def times(draw):
    kind = draw(st.sampled_from(("point", "point", "closed", "open", "exotic")))
    if kind == "exotic":
        return "whenever"
    start = draw(ticks)
    if kind == "point":
        return TimePoint(start)
    if kind == "open":
        return TimeInterval(TimePoint(start), None)
    return TimeInterval(TimePoint(start), TimePoint(start + draw(st.integers(0, 40))))


stubs = st.builds(Stub, locations, times())


@st.composite
def histories(draw):
    """A window width plus interleaved ``("add", stub)`` / ``("tick", dt)`` steps.

    Long enough, against a short width, to cross the initial 16-row
    capacity, at least one doubling and at least one in-place compaction.
    """
    width = draw(st.integers(0, 12))
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("add"), stubs),
                st.tuples(st.just("add"), stubs),
                st.tuples(st.just("add"), stubs),
                st.tuples(st.just("tick"), st.integers(1, 8)),
            ),
            max_size=120,
        )
    )
    return width, steps


def replay(width, steps):
    """Drive a window and a reference deque through the same history."""
    window, reference, now = RoleWindow(width), deque(), 0
    for index, (kind, value) in enumerate(steps):
        if kind == "tick":
            now += value
            window.evict(now)
            while reference and reference[0][0] < now - width:
                reference.popleft()
        else:
            entity = Stub(value.occurrence_location, value.occurrence_time, index)
            window.add(entity, now)
            reference.append((now, entity))
        assert window.entries() == tuple(reference)
        assert len(window) == len(reference)
    return window, [entity for _, entity in reference]


def point_of(entity):
    location = entity.occurrence_location
    return location if isinstance(location, PointLocation) else None


def farther_than(window, point, radius):
    """The reject mask of a within clause."""
    return window.distance_sq(point) > farther_sq(radius)


def nearer_than(window, point, radius):
    """The reject mask of a beyond clause."""
    return window.distance_sq(point) < nearer_sq(radius)


def standing(window, rejected):
    """Names of the entities a reject mask leaves standing."""
    assert len(rejected) == len(window)
    return {entity.name for entity in window.surviving(rejected)}


DISTANCE_OPS = [RelationalOp.LT, RelationalOp.LE, RelationalOp.GT, RelationalOp.GE]


def pair(op, radius, order, offsets):
    """A decisive pair spec: one distance and one order clause."""
    offset_a, offset_b = offsets
    return EventSpecification(
        event_id="pair",
        selectors={"a": EntitySelector(), "b": EntitySelector()},
        condition=all_of(
            SpatialMeasureCondition("distance", ("a", "b"), op, radius),
            TemporalCondition(
                TimeOf("a", offset=offset_a), order, TimeOf("b", offset=offset_b)
            ),
        ),
        window=10,
    )


# ----------------------------------------------------------------------
# the contracts, under one random history
# ----------------------------------------------------------------------

class TestSoundness:
    @given(histories())
    @settings(max_examples=100, deadline=None)
    def test_entries_equal_a_reference_deque(self, history):
        window, live = replay(*history)
        assert window.entities() == live

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=50).map(sorted), st.integers(0, 20))
    def test_live_items_are_exactly_the_recent_ones(self, arrival_ticks, width):
        window = RoleWindow(width)
        for tick in arrival_ticks:
            window.add(at(0, 0, name=tick), tick)
        now = arrival_ticks[-1]
        window.evict(now)
        assert [e.name for e in window.entities()] == [
            t for t in arrival_ticks if t >= now - width
        ]

    @given(histories(), coords, coords, radii)
    @settings(max_examples=120, deadline=None)
    def test_distance_masks_contain_the_scalar_answer(self, history, qx, qy, radius):
        window, live = replay(*history)
        query = PointLocation(qx, qy)
        within = standing(window, farther_than(window, query, radius))
        beyond = standing(window, nearer_than(window, query, radius))
        for entity in live:
            point = point_of(entity)
            distance = None if point is None else point.distance_to(query)
            if distance is None or distance <= radius:
                assert entity.name in within
            if distance is None or distance >= radius:
                assert entity.name in beyond

    @given(histories(), small, small, st.floats(0.0, 150.0), st.floats(0.0, 150.0))
    @settings(max_examples=80, deadline=None)
    def test_box_mask_contains_every_tolerant_hit(self, history, x0, y0, w, h):
        window, live = replay(*history)
        box = BoundingBox(x0, y0, x0 + w, y0 + h)
        kept = standing(window, window.outside(box))
        for entity in live:
            point = point_of(entity)
            if point is None or box.contains_point(point):
                assert entity.name in kept

    @given(histories(), ticks)
    @settings(max_examples=120, deadline=None)
    def test_order_masks_contain_the_scalar_answer(self, history, bound):
        window, live = replay(*history)
        over_before = standing(window, window.not_over_before(bound))
        begun_after = standing(window, window.not_begun_after(bound))
        for entity in live:
            lo, hi = tick_bounds(entity)
            if lo is None or (hi is not None and hi < bound):
                assert entity.name in over_before
            if lo is None or lo > bound:
                assert entity.name in begun_after

    def test_masks_do_prune(self):
        """The guards above hold for a mask that rejects nothing; this
        pins that ordinary rows *are* rejected, and sentinels are not."""
        window = RoleWindow(100)
        near, far = at(3, 4, tick=5, name=1), at(60, 80, tick=50, name=2)
        field = Stub(Circle(PointLocation(90, 90), 2.0), "whenever", 3)
        ongoing = Stub(PointLocation(0, 0), TimeInterval(TimePoint(1), None), 4)
        for entity in (near, far, field, ongoing):
            window.add(entity, 0)
        origin = PointLocation(0, 0)
        assert standing(window, farther_than(window, origin, 5.0)) == {1, 3, 4}
        assert standing(window, nearer_than(window, origin, 5.0)) == {1, 2, 3}
        assert standing(window, nearer_than(window, origin, 5.1)) == {2, 3}
        assert standing(window, window.outside(BoundingBox(0, 0, 10, 10))) == {1, 3, 4}
        assert standing(window, window.not_over_before(10)) == {1, 3}
        assert standing(window, window.not_begun_after(10)) == {2, 3}
        # Anchors too far out to square have no opinion.
        assert not farther_than(window, PointLocation(1e200, 0), 5.0).any()
        assert not nearer_than(window, origin, -1.0).any()

    @pytest.mark.parametrize("op", DISTANCE_OPS)
    @pytest.mark.parametrize("order", [TemporalOp.BEFORE, TemporalOp.AFTER])
    @given(
        history=histories(),
        anchor=stubs,
        radius=radii,
        offsets=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
        pinned=st.sampled_from("ab"),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_proven_row_satisfies_the_scalar_condition(
        self, op, order, history, anchor, radius, offsets, pinned
    ):
        spec = pair(op, radius, order, offsets)
        plan = compile_plan(spec)
        window, live = replay(*history)
        role = "b" if pinned == "a" else "a"
        rows, proofs = plan.pin(anchor).candidates(pinned, window)
        found = plan.candidates(role, {pinned: anchor}, window)
        if rows is None:
            assert found is None
            return
        assert [live[row] for row in rows] == list(found)
        if proofs is None:
            return
        assert len(proofs) == len(rows)
        judge = compile_condition(spec.condition)
        for row, proof in zip(rows, proofs):
            if proof:
                binding = {pinned: anchor, role: live[row]}
                assert evaluate(spec.condition, binding) is True
                assert judge(binding) is True

    def test_proofs_do_prove(self):
        """The guard above holds for a proof that accepts nothing; this
        pins that ordinary rows *are* proven, on each side of the pinned
        entity, and the rows only the judge can settle are not."""
        window = RoleWindow(100)
        rows = [
            at(2, 3, tick=2, name=1),  # near, earlier
            at(1, 1, tick=9, name=2),  # near, later
            at(60, 80, tick=2, name=3),  # far
            at(0, 6, tick=5, name=4),  # same tick: never Before
            Stub(Circle(PointLocation(1, 1), 2.0), TimePoint(2), 5),
            Stub(PointLocation(1, 1), TimeInterval(TimePoint(1), None), 6),
            Stub(PointLocation(1, 1), TimeInterval(TimePoint(1), TimePoint(3)), 7),
            Stub(PointLocation(1, 1), "whenever", 8),
            at(4, 3, tick=2, name=9),  # exactly at the radius
        ]
        for entity in rows:
            window.add(entity, 0)
        spec = pair(RelationalOp.LT, 5.0, TemporalOp.BEFORE, (0, 0))
        plan = compile_plan(spec)
        pinned = at(0, 0, tick=5, name=0)

        def proven(other):
            rows, proofs = plan.pin(pinned).candidates(other, window)
            live = window.entities()
            return {live[row].name for row, p in zip(rows, proofs) if p}

        assert proven("b") == {1, 7}
        assert proven("a") == {2}
        # An open or unknown pinned entity proves nothing.
        for when in (TimeInterval(TimePoint(0), None), "whenever"):
            ongoing = Stub(PointLocation(0, 0), when, 0)
            assert plan.pin(ongoing).candidates("a", window)[1] is None


# ----------------------------------------------------------------------
# exactly at the radius, through the plan, for each operator
# ----------------------------------------------------------------------

TRIANGLES = [(3, 4), (4, 3), (-3, 4), (0, 5), (5, 0), (-4, -3)]  # all at 5


class TestAtTheRadius:
    @pytest.mark.parametrize("op", DISTANCE_OPS)
    @given(ox=st.integers(-1000, 1000), oy=st.integers(-1000, 1000))
    @settings(max_examples=40, deadline=None)
    def test_candidates_contain_every_scalar_match(self, op, ox, oy):
        spec = EventSpecification(
            event_id="ring",
            selectors={"a": EntitySelector(), "b": EntitySelector()},
            condition=SpatialMeasureCondition("distance", ("a", "b"), op, 5.0),
            window=10,
        )
        plan = compile_plan(spec)
        anchor = at(ox, oy, name=-1)
        window = RoleWindow(10)
        ring = [
            at(ox + dx * scale, oy + dy * scale, name=index)
            for index, (scale, (dx, dy)) in enumerate(
                (scale, leg) for scale in (0.5, 1, 2) for leg in TRIANGLES
            )
        ]
        for entity in ring:
            window.add(entity, 0)
        survivors = plan.candidates("b", {"a": anchor}, window)
        assert survivors is not None
        names = [entity.name for entity in survivors]
        assert names == sorted(names)  # arrival order
        for entity in ring:
            distance = math.hypot(
                entity.occurrence_location.x - ox, entity.occurrence_location.y - oy
            )
            if op.apply(distance, 5.0):
                assert entity.name in names
        # ... and the mask is worth having: one ring of three is gone.
        assert len(names) <= 2 * len(TRIANGLES)
        # The ring at the radius is left to the judge under every
        # operator; the matching ring clear of it is proven.
        rows, proofs = plan.pin(anchor).candidates("a", window)
        assert [ring[row] for row in rows] == survivors
        proven = {ring[row].name for row, p in zip(rows, proofs) if p}
        at_radius = set(range(len(TRIANGLES), 2 * len(TRIANGLES)))
        assert proven == set(names) - at_radius

    @pytest.mark.parametrize("op", DISTANCE_OPS)
    def test_planned_engine_matches_naive_at_the_radius(self, op):
        spec = EventSpecification(
            event_id="ring",
            selectors={
                "a": EntitySelector(kinds={"v"}),
                "b": EntitySelector(kinds={"v"}),
            },
            condition=all_of(
                TemporalCondition(TimeOf("a"), TemporalOp.BEFORE, TimeOf("b")),
                SpatialMeasureCondition("distance", ("a", "b"), op, 5.0),
            ),
            window=50,
        )
        points = [(0, 0), *TRIANGLES, (6, 8), (1.5, 2), (1e308, 0), (0, -1e200)]
        counts = []
        for engine_class in (DetectionEngine, NaiveEngine):
            engine = engine_class([spec])
            keys = set()
            for tick, (x, y) in enumerate(points):
                entity = PhysicalObservation(
                    f"M{tick}", "S", tick, TimePoint(tick),
                    PointLocation(x, y), {"v": 1.0},
                )
                for match in engine.submit(entity, tick):
                    keys.add(binding_identity(spec)(match.binding))
            counts.append(keys)
        assert counts[0] == counts[1] and counts[0]
