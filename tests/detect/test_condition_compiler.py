"""Compiled condition evaluation: differential equivalence.

The compiled evaluator's contract against the interpreted tree
(:mod:`repro.detect.compiler` module docstring):

* ``True`` if and only if the interpreted tree returns ``True``
  (match sets can never diverge);
* when the compiled evaluator raises, the interpreted tree raises the
  same exception class;
* a short-circuiting conjunction may return ``False`` where the
  interpreter raises (a cheap conjunct disproved the binding before an
  expensive erroring conjunct ran) — the engine maps both to non-match.

The hypothesis suite below drives random condition trees against random
(including deliberately broken) bindings and checks exactly that
relation.
"""

from hypothesis import given, settings, strategies as st

from repro.core.composite import And, Leaf, Not, Or, as_node
from repro.core.conditions import (
    AttributeCondition,
    Condition,
    AttributeTerm,
    ConfidenceCondition,
    LocationConst,
    LocationOf,
    SpatialCondition,
    SpatialMeasureCondition,
    TemporalCondition,
    TemporalMeasureCondition,
    TimeConst,
    TimeOf,
)
from repro.core.errors import (
    BindingError,
    ConditionError,
    SpatialError,
    TemporalError,
)
from repro.core.instance import (
    ObserverId,
    ObserverKind,
    PhysicalObservation,
    SensorEventInstance,
)
from repro.core.operators import RelationalOp, SpatialOp, TemporalOp
from repro.core.space_model import BoundingBox, PointLocation
from repro.core.spec import EntitySelector, EventSpecification
from repro.core.time_model import TimeInterval, TimePoint
from repro.detect.compiler import EVALUATION_ERRORS, compile_condition
from repro.detect.engine import DetectionEngine

ROLES = ("x", "y")
OBSERVER = ObserverId(ObserverKind.SENSOR_MOTE, "ob")


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

def observation(draw, seq: int):
    attrs = {}
    if draw(st.booleans()):
        attrs["temp"] = draw(st.floats(0, 100, allow_nan=False))
    if draw(st.booleans()):
        attrs["hum"] = draw(st.floats(0, 100, allow_nan=False))
    return PhysicalObservation(
        mote_id=f"m{seq}",
        sensor_id="s",
        seq=seq,
        time=TimePoint(draw(st.integers(0, 40))),
        location=PointLocation(
            draw(st.floats(-30, 30, allow_nan=False)),
            draw(st.floats(-30, 30, allow_nan=False)),
        ),
        attributes=attrs,
    )


def interval_instance(draw, seq: int):
    start = draw(st.integers(0, 30))
    end = draw(st.one_of(st.none(), st.integers(start, start + 20)))
    when = TimeInterval(TimePoint(start), None if end is None else TimePoint(end))
    return SensorEventInstance(
        observer=OBSERVER,
        event_id="ev",
        seq=seq,
        generated_time=TimePoint(start),
        generated_location=PointLocation(0.0, 0.0),
        estimated_time=when,
        estimated_location=PointLocation(
            draw(st.floats(-30, 30, allow_nan=False)),
            draw(st.floats(-30, 30, allow_nan=False)),
        ),
        confidence=draw(st.floats(0.0, 1.0, allow_nan=False)),
    )


@st.composite
def bindings(draw):
    binding = {}
    seq = 0
    for role in ROLES:
        shape = draw(st.sampled_from(("missing", "single", "group")))
        if shape == "missing":
            continue
        count = 1 if shape == "single" else draw(st.integers(1, 3))
        entities = []
        for _ in range(count):
            if draw(st.booleans()):
                entities.append(observation(draw, seq))
            else:
                entities.append(interval_instance(draw, seq))
            seq += 1
        binding[role] = entities[0] if shape == "single" else tuple(entities)
    return binding


REL_OPS = st.sampled_from(list(RelationalOp))
TIME_OPS = st.sampled_from(
    [
        TemporalOp.BEFORE,
        TemporalOp.AFTER,
        TemporalOp.SIMULTANEOUS,
        TemporalOp.DURING,
        TemporalOp.OVERLAPS,
        TemporalOp.WITHIN,
        TemporalOp.INTERSECTS,
    ]
)
SPACE_OPS = st.sampled_from(
    [SpatialOp.INSIDE, SpatialOp.OUTSIDE, SpatialOp.JOINT, SpatialOp.DISJOINT]
)
REGION = BoundingBox(-15.0, -15.0, 15.0, 15.0)
ROLE = st.sampled_from(ROLES)


@st.composite
def time_exprs(draw):
    kind = draw(st.sampled_from(("of", "const")))
    if kind == "of":
        return TimeOf(draw(ROLE), offset=draw(st.integers(-5, 5)))
    return TimeConst(TimePoint(draw(st.integers(0, 40))))


@st.composite
def leaves(draw):
    kind = draw(
        st.sampled_from(
            ("attr", "temporal", "tmeasure", "spatial", "smeasure", "confidence")
        )
    )
    if kind == "attr":
        terms = tuple(
            AttributeTerm(draw(ROLE), draw(st.sampled_from(("temp", "hum"))))
            for _ in range(draw(st.integers(1, 2)))
        )
        return AttributeCondition(
            draw(st.sampled_from(("average", "max", "last"))),
            terms,
            draw(REL_OPS),
            draw(st.floats(0, 100, allow_nan=False)),
        )
    if kind == "temporal":
        return TemporalCondition(
            draw(time_exprs()), draw(TIME_OPS), draw(time_exprs())
        )
    if kind == "tmeasure":
        return TemporalMeasureCondition(
            draw(st.sampled_from(("spread", "duration", "count"))),
            (draw(ROLE),),
            draw(REL_OPS),
            draw(st.floats(0, 40, allow_nan=False)),
        )
    if kind == "spatial":
        return SpatialCondition(
            LocationOf(draw(ROLE)), draw(SPACE_OPS), LocationConst(REGION)
        )
    if kind == "smeasure":
        return SpatialMeasureCondition(
            "distance", ("x", "y"), draw(REL_OPS),
            draw(st.floats(0, 60, allow_nan=False)),
        )
    return ConfidenceCondition(
        draw(ROLE), draw(REL_OPS), draw(st.floats(0, 1, allow_nan=False))
    )


def trees():
    return st.recursive(
        leaves().map(as_node),
        lambda children: st.one_of(
            st.lists(children, min_size=1, max_size=3).map(
                lambda cs: And(tuple(cs))
            ),
            st.lists(children, min_size=1, max_size=3).map(
                lambda cs: Or(tuple(cs))
            ),
            children.map(Not),
        ),
        max_leaves=6,
    )


def outcome(thunk):
    try:
        return ("ok", thunk())
    except EVALUATION_ERRORS as exc:
        return ("err", type(exc))


# ----------------------------------------------------------------------
# differential suite
# ----------------------------------------------------------------------

class TestDifferential:
    @settings(max_examples=400, deadline=None)
    @given(tree=trees(), binding=bindings())
    def test_compiled_agrees_with_interpreted(self, tree, binding):
        compiled = compile_condition(tree)
        interpreted = outcome(lambda: tree.evaluate(binding))
        plain = outcome(lambda: compiled(binding))

        kind_i, value_i = interpreted
        kind_c, value_c = plain
        # Match sets can never diverge.
        assert (kind_c == "ok" and value_c is True) == (
            kind_i == "ok" and value_i is True
        )
        if kind_i == "ok":
            # The interpreter judged the binding: exact agreement.
            assert plain == interpreted
        elif kind_c == "err":
            # Both raised: identical error classification.
            assert value_c is value_i
        else:
            # The one permitted divergence: a conjunction short-circuit
            # returned False where the interpreter raised.
            assert value_c is False


# ----------------------------------------------------------------------
# compilation structure
# ----------------------------------------------------------------------

class Counted(Condition):
    """A leaf of cost rank ``cost`` that returns ``value`` and counts the
    calls of its lowered predicate."""

    def __init__(self, cost: float, value: bool):
        self.COST = cost
        self.value = value
        self.calls = 0

    def evaluate(self, binding):
        self.calls += 1
        return self.value

    @property
    def roles(self):
        return frozenset({"x"})

    def describe(self):
        return f"counted({self.COST}, {self.value})"


class TestCompilationStructure:
    def test_a_cheap_false_conjunct_short_circuits_an_expensive_one(self):
        expensive, cheap = Counted(6.0, True), Counted(1.0, False)
        judge = compile_condition(And((Leaf(expensive), Leaf(cheap))))
        assert judge({}) is False
        assert (cheap.calls, expensive.calls) == (1, 0)

    def test_nested_conjunctions_flatten(self):
        first, second = Counted(6.0, True), Counted(6.0, True)
        cheap = Counted(1.0, False)
        tree = And((And((Leaf(first), Leaf(second))), Leaf(cheap)))
        assert compile_condition(tree)({}) is False
        assert (cheap.calls, first.calls, second.calls) == (1, 0, 0)

    def test_equal_costs_keep_source_order(self):
        first, second = Counted(3.0, False), Counted(3.0, True)
        assert compile_condition(And((Leaf(first), Leaf(second))))({}) is False
        assert (first.calls, second.calls) == (1, 0)

    def test_an_expensive_false_conjunct_runs_after_every_cheaper_one(self):
        expensive, cheap = Counted(6.0, False), Counted(1.0, True)
        assert compile_condition(And((Leaf(expensive), Leaf(cheap))))({}) is False
        assert (cheap.calls, expensive.calls) == (1, 1)


# ----------------------------------------------------------------------
# engine-level error policy
# ----------------------------------------------------------------------

def _obs(mote: str, seq: int, tick: int, x: float, y: float = 0.0):
    return PhysicalObservation(
        mote_id=mote,
        sensor_id="s",
        seq=seq,
        time=TimePoint(tick),
        location=PointLocation(x, y),
        attributes={"temp": 20.0},
    )


class TestEngineErrorPolicy:
    def test_compiled_error_policy_matches_interpreted(self):
        # A binding the condition cannot judge is a counted non-match
        # on both paths (the engine-level error contract).
        spec = EventSpecification(
            event_id="broken",
            selectors={"x": EntitySelector()},
            condition=AttributeCondition(
                "last", (AttributeTerm("x", "absent"),), RelationalOp.GT, 0
            ),
        )
        for use_planner in (True, False):
            engine = DetectionEngine([spec], use_planner=use_planner)
            assert engine.submit(_obs("a", 0, 0, 0.0), now=0) == []
            assert engine.stats.evaluation_errors == 1
