"""Property-based tests for composite conditions and interval building
(hypothesis)."""

from hypothesis import given, strategies as st

from repro.core.composite import And, Leaf, Not, Or
from repro.core.conditions import Condition
from repro.detect.interval_builder import IntervalBuilder, TransitionKind


class _FlagCondition(Condition):
    """Test stub: evaluates to the value bound to its flag name."""

    def __init__(self, name):
        self.name = name

    def evaluate(self, binding):
        return bool(binding[self.name])

    @property
    def roles(self):
        return frozenset({self.name})

    def describe(self):
        return self.name


FLAGS = ("p", "q", "r")


@st.composite
def condition_trees(draw, depth=0):
    if depth >= 3 or draw(st.integers(0, 2)) == 0:
        return Leaf(_FlagCondition(draw(st.sampled_from(FLAGS))))
    kind = draw(st.sampled_from(["and", "or", "not"]))
    if kind == "not":
        return Not(draw(condition_trees(depth + 1)))
    children = tuple(
        draw(condition_trees(depth + 1))
        for _ in range(draw(st.integers(2, 3)))
    )
    return And(children) if kind == "and" else Or(children)


def all_bindings():
    for p in (False, True):
        for q in (False, True):
            for r in (False, True):
                yield {"p": p, "q": q, "r": r}


class TestCompositeProperties:
    @given(condition_trees())
    def test_nnf_preserves_semantics(self, tree):
        nnf = tree.nnf()
        for binding in all_bindings():
            assert tree.evaluate(binding) == nnf.evaluate(binding)

    @given(condition_trees())
    def test_double_negation_preserves_semantics(self, tree):
        double = Not(Not(tree))
        for binding in all_bindings():
            assert tree.evaluate(binding) == double.evaluate(binding)

    @given(condition_trees(), condition_trees())
    def test_de_morgan(self, a, b):
        left = Not(And((a, b)))
        right = Or((Not(a), Not(b)))
        for binding in all_bindings():
            assert left.evaluate(binding) == right.evaluate(binding)

    @given(condition_trees())
    def test_roles_cover_leaves(self, tree):
        leaf_roles = {
            role for leaf in tree.leaves() for role in leaf.roles
        }
        assert tree.roles == leaf_roles


class TestIntervalBuilderProperties:
    @given(
        st.lists(st.booleans(), min_size=1, max_size=80),
        st.integers(0, 5),
        st.integers(0, 4),
    )
    def test_intervals_are_disjoint_ordered_and_valid(
        self, stream, min_duration, gap_tolerance
    ):
        builder = IntervalBuilder(min_duration, gap_tolerance)
        closed = []
        for tick, active in enumerate(stream):
            for transition in builder.update("k", active, tick):
                if transition.kind is TransitionKind.CLOSED:
                    closed.append(transition.interval)
        closed.extend(
            t.interval
            for t in builder.flush("k", len(stream))
            if t.kind is TransitionKind.CLOSED
        )
        previous_end = None
        for interval in closed:
            assert interval.end is not None
            assert interval.duration >= min_duration
            # Interval endpoints are ticks where the stream was True.
            assert stream[interval.start.tick]
            assert stream[interval.end.tick]
            if previous_end is not None:
                assert interval.start > previous_end
            previous_end = interval.end

    @given(st.lists(st.booleans(), min_size=1, max_size=80))
    def test_zero_tolerance_reconstructs_runs_exactly(self, stream):
        builder = IntervalBuilder(0, 0)
        intervals = []
        for tick, active in enumerate(stream):
            for transition in builder.update("k", active, tick):
                if transition.kind is TransitionKind.CLOSED:
                    intervals.append(transition.interval)
        intervals.extend(
            t.interval
            for t in builder.flush("k", len(stream))
            if t.kind is TransitionKind.CLOSED
        )
        # Reconstruct runs of True directly.
        runs = []
        start = None
        for tick, active in enumerate(stream):
            if active and start is None:
                start = tick
            elif not active and start is not None:
                runs.append((start, tick - 1))
                start = None
        if start is not None:
            runs.append((start, len(stream) - 1))
        assert [(i.start.tick, i.end.tick) for i in intervals] == runs

