"""The decisive pair loop against exhaustive enumeration (hypothesis).

A decisive plan (two single roles, every leaf a distance or order
clause: the paper's S1 pair shape) is evaluated by
:meth:`~repro.detect.engine.DetectionEngine._evaluate_pair`: one loop
over window columns that builds a binding's identity from the window's
key column, tests distinctness and dedup on it, and matches the rows the
columns prove without the judge.  Whatever it does must give the match
stream of an engine with ``use_planner=False``: the same matches in the
same order, the same ``match.key``, and the same per-spec match tallies.
Against the general planned loop (the same plan with ``decisive`` off)
it must also keep every counter.

Specs draw twin and distinct selectors (distinct ones that overlap
too, so one arrival reads two windows), within and beyond distances,
``before`` / ``after`` clauses with offsets, windows and cooldowns;
entities draw coordinates up to 1e300, field locations, open and closed
intervals, and redelivered copies (one entity key delivered twice).

The key column is checked on its own too: after evictions, compaction,
``clear`` and an :class:`~repro.detect.engine.EngineSnapshot` restore, a
window's keys are ``[entity_key(e) for e in window.entities()]``.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.composite import all_of
from repro.core.conditions import SpatialMeasureCondition, TemporalCondition, TimeOf
from repro.core.entity import entity_key
from repro.core.instance import EventInstance, ObserverId, ObserverKind
from repro.core.operators import RelationalOp, TemporalOp
from repro.core.space_model import Circle, PointLocation
from repro.core.spec import EntitySelector, EventSpecification
from repro.core.time_model import TimeInterval, TimePoint
from repro.detect.engine import DetectionEngine, binding_identity
from repro.detect.planner import compile_plan
from repro.detect.role_window import RoleWindow, tick_bounds

pytestmark = pytest.mark.filterwarnings("error")

MOTE = ObserverId(ObserverKind.SENSOR_MOTE, "N1")

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

small = st.integers(-12, 12).map(float)  # 3-4-5 triangles land on a radius
wide = st.floats(-300.0, 300.0, allow_nan=False)
huge = st.floats(-1e300, 1e300, allow_nan=False)
coords = st.one_of(small, small, wide, huge)
radii = st.one_of(st.just(5.0), st.floats(0.0, 60.0), st.just(1e300))


@st.composite
def clauses(draw):
    """One to three leaves of a decisive pair condition."""
    leaves = []
    for kind in draw(
        st.lists(
            st.sampled_from(("within", "beyond", "before", "after")),
            min_size=1, max_size=3,
        )
    ):
        if kind in ("within", "beyond"):
            ops = (
                (RelationalOp.LT, RelationalOp.LE)
                if kind == "within"
                else (RelationalOp.GT, RelationalOp.GE)
            )
            leaves.append(
                SpatialMeasureCondition(
                    "distance", ("a", "b"), draw(st.sampled_from(ops)), draw(radii)
                )
            )
        else:
            first, second = draw(st.sampled_from((("a", "b"), ("b", "a"))))
            leaves.append(
                TemporalCondition(
                    TimeOf(first, offset=draw(st.integers(-3, 3))),
                    TemporalOp.BEFORE if kind == "before" else TemporalOp.AFTER,
                    TimeOf(second, offset=draw(st.integers(-3, 3))),
                )
            )
    return leaves[0] if len(leaves) == 1 else all_of(*leaves)


@st.composite
def pair_specs(draw):
    kinds = draw(st.sampled_from((
        ({"u", "v"}, {"u", "v"}),  # twin selectors: one shared window
        ({"u"}, {"v"}),  # distinct: an arrival fills one role
        ({"u", "v"}, {"v"}),  # distinct, overlapping: a "v" fills both
    )))
    selectors = {role: EntitySelector(kinds=k) for role, k in zip("ab", kinds)}
    spec = EventSpecification(
        event_id="pair",
        selectors=selectors,
        condition=draw(clauses()),
        window=draw(st.integers(0, 8)),
        cooldown=draw(st.sampled_from((0, 0, 0, 1, 3))),
    )
    assert compile_plan(spec).decisive
    return spec


@st.composite
def occurrence_times(draw, tick):
    kind = draw(st.sampled_from(("point", "point", "closed", "open")))
    start = tick - draw(st.integers(0, 6))
    if kind == "point":
        return TimePoint(start)
    if kind == "open":
        return TimeInterval(TimePoint(start), None)
    return TimeInterval(TimePoint(start), TimePoint(start + draw(st.integers(0, 5))))


@st.composite
def histories(draw):
    """``[(tick, [instance, ...]), ...]``, ticks rising; some batches
    hold redelivered copies (equal keys, new objects) of earlier ones."""
    batches, made, tick = [], [], 0
    for _ in range(draw(st.integers(1, 25))):
        tick += draw(st.integers(0, 3))
        batch = []
        for _ in range(draw(st.integers(1, 4))):
            if made and draw(st.integers(0, 4)) == 0:
                batch.append(replace(draw(st.sampled_from(made))))
                continue
            point = PointLocation(draw(coords), draw(coords))
            location = (
                Circle(point, 3.0)
                if draw(st.integers(0, 9)) == 0 and abs(point.x) < 1e6
                and abs(point.y) < 1e6
                else point
            )
            instance = EventInstance(
                observer=MOTE,
                event_id=draw(st.sampled_from(("u", "v"))),
                seq=len(made),
                generated_time=TimePoint(tick),
                generated_location=PointLocation(0.0, 0.0),
                estimated_time=draw(occurrence_times(tick)),
                estimated_location=location,
            )
            made.append(instance)
            batch.append(instance)
        batches.append((tick, batch))
    return batches


# ----------------------------------------------------------------------
# the differential
# ----------------------------------------------------------------------


def feed(engine, batches):
    """``(tick, key)`` per match, in emission order; the key is the
    ``(first role, second role)`` pair of the binding's entity keys."""
    out = []
    for tick, batch in batches:
        for match in engine.submit_batch(batch, tick):
            first, second = match.spec.roles
            pair = (entity_key(match.binding[first]), entity_key(match.binding[second]))
            assert match.key == pair == binding_identity(match.spec)(match.binding)
            out.append((match.tick, match.key))
    return out


def counts(engine):
    return {
        name: getattr(engine.stats, name)
        for name in ("entities_submitted", "bindings_evaluated", "bindings_proven",
                     "candidates_pruned", "matches", "evaluation_errors")
    }


@settings(max_examples=300, deadline=None)
@given(spec=pair_specs(), batches=histories())
def test_the_pair_loop_matches_exhaustive_enumeration(spec, batches):
    planned = DetectionEngine([spec])
    naive = DetectionEngine([spec], use_planner=False)
    matched = feed(planned, batches)
    assert matched == feed(naive, batches)
    assert planned.tallies()["pair"][1] == naive.tallies()["pair"][1] == len(matched)
    assert planned.stats.bindings_proven <= planned.stats.bindings_evaluated
    assert naive.stats.bindings_proven == 0


@settings(max_examples=150, deadline=None)
@given(spec=pair_specs(), batches=histories())
def test_the_pair_loop_keeps_every_count_of_the_general_loop(spec, batches):
    paired = DetectionEngine([spec])
    general = DetectionEngine([spec])
    plan = general.plan("pair")
    general._plans["pair"] = replace(plan, decisive=False)
    assert feed(paired, batches) == feed(general, batches)
    expected = counts(general)
    # The general loop judges every binding; the pair loop proves some.
    expected["bindings_proven"] = paired.stats.bindings_proven
    assert counts(paired) == expected
    assert paired.tallies() == general.tallies()


def test_a_redelivered_copy_neither_pairs_with_itself_nor_fires_twice():
    spec = EventSpecification(
        event_id="pair",
        selectors={"a": EntitySelector(kinds={"u"}), "b": EntitySelector(kinds={"u"})},
        condition=SpatialMeasureCondition("distance", ("a", "b"), RelationalOp.LT, 5.0),
        window=10,
    )

    def at(seq, tick, x):
        return EventInstance(
            MOTE, "u", seq, TimePoint(tick), PointLocation(0.0, 0.0),
            TimePoint(tick), PointLocation(x, 0.0),
        )

    first, second = at(0, 0, 0.0), at(1, 1, 3.0)
    engine = DetectionEngine([spec])
    assert engine.submit_batch([first, replace(first)], 0) == []
    keys = [match.key for match in engine.submit_batch([second], 1)]
    assert keys == [(second.key, first.key), (first.key, second.key)]
    assert engine.submit_batch([replace(second), replace(first)], 2) == []
    assert engine.stats.bindings_proven == engine.stats.bindings_evaluated == 2


# ----------------------------------------------------------------------
# the key column
# ----------------------------------------------------------------------


def assert_columns(window):
    entities = window.entities()
    assert window.keys() == [entity_key(entity) for entity in entities]
    closed = []
    for entity in entities:
        lo, hi = tick_bounds(entity)
        closed.append(lo is not None and hi is not None and -(2**63) < lo <= hi < 2**63 - 1)
    assert window.closed().tolist() == closed


@settings(max_examples=100, deadline=None)
@given(
    width=st.integers(0, 6),
    steps=st.lists(
        st.one_of(
            st.tuples(st.just("add"), st.integers(0, 40)),
            st.tuples(st.just("add"), st.integers(0, 40)),
            st.tuples(st.just("add"), st.integers(0, 40)),
            st.tuples(st.just("tick"), st.integers(1, 4)),
            st.tuples(st.just("clear"), st.just(0)),
        ),
        max_size=150,
    ),
    when=st.sampled_from(("point", "open", "closed")),
)
def test_the_key_column_follows_evictions_compaction_and_clear(width, steps, when):
    window, now = RoleWindow(width), 0
    for kind, value in steps:
        if kind == "tick":
            now += value
            window.evict(now)
        elif kind == "clear":
            window.clear()
        else:
            occurrence = {
                "point": TimePoint(now),
                "open": TimeInterval(TimePoint(now), None),
                "closed": TimeInterval(TimePoint(now), TimePoint(now + 2)),
            }[when]
            window.add(
                EventInstance(
                    MOTE, "u", value, TimePoint(now), PointLocation(0.0, 0.0),
                    occurrence, PointLocation(float(value), 0.0),
                ),
                now,
            )
        assert_columns(window)


@settings(max_examples=60, deadline=None)
@given(spec=pair_specs(), batches=histories(), cut=st.integers(0, 25))
def test_the_key_column_survives_a_snapshot_restore(spec, batches, cut):
    head, tail = batches[:cut], batches[cut:]
    engine = DetectionEngine([spec])
    feed(engine, head)
    resumed = DetectionEngine([spec])
    resumed.restore(engine.snapshot())
    for window in resumed._windows["pair"].values():
        assert_columns(window)
    assert feed(resumed, tail) == feed(engine, tail)
