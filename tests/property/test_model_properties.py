"""Property-based tests for composite conditions and interval building
(hypothesis)."""

from hypothesis import given, strategies as st

from repro.core.composite import And, Leaf, Not, Or
from repro.core.conditions import Condition
from repro.detect.interval_builder import IntervalBuilder


class _FlagCondition(Condition):
    """Test stub: evaluates to the value bound to its flag name."""

    def __init__(self, name):
        self.name = name

    def evaluate(self, binding):
        return bool(binding[self.name])

    @property
    def roles(self):
        return frozenset({self.name})


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
        def leaf_roles(node):
            if isinstance(node, Leaf):
                return node.condition.roles
            if isinstance(node, Not):
                return leaf_roles(node.child)
            return frozenset().union(*map(leaf_roles, node.children))

        assert tree.roles == leaf_roles(tree)


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
        # Trailing False updates past the tolerance close what is open.
        for tick, active in enumerate(stream + [False] * (gap_tolerance + 1)):
            interval = builder.update(active, tick)
            if interval is not None:
                closed.append(interval)
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
        for tick, active in enumerate(stream + [False]):
            interval = builder.update(active, tick)
            if interval is not None:
                intervals.append(interval)
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

