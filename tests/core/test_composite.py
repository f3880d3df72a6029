"""Unit tests for composite condition trees (Eq. 4.5)."""

import pytest

from repro.core.composite import And, Leaf, Not, Or, all_of, as_node
from repro.core.conditions import AttributeCondition, AttributeTerm
from repro.core.errors import ConditionError
from repro.core.instance import PhysicalObservation
from repro.core.operators import RelationalOp
from repro.core.space_model import PointLocation
from repro.core.time_model import TimePoint


def threshold(role, attr, op, constant):
    return AttributeCondition(
        "last", (AttributeTerm(role, attr),), op, constant
    )


HOT = threshold("x", "t", RelationalOp.GT, 50.0)
HUMID = threshold("y", "h", RelationalOp.GT, 80.0)
DARK = threshold("z", "lux", RelationalOp.LT, 10.0)


def binding(t=60.0, h=90.0, lux=5.0):
    def entity(name, **attrs):
        return PhysicalObservation(
            name, "SR", 0, TimePoint(1), PointLocation(0, 0), attrs
        )

    return {
        "x": entity("MT1", t=t),
        "y": entity("MT2", h=h),
        "z": entity("MT3", lux=lux),
    }


class TestEvaluation:
    def test_leaf(self):
        assert Leaf(HOT).evaluate(binding(t=60))
        assert not Leaf(HOT).evaluate(binding(t=40))

    def test_and(self):
        node = And((Leaf(HOT), Leaf(HUMID)))
        assert node.evaluate(binding())
        assert not node.evaluate(binding(h=10))

    def test_or(self):
        node = Or((Leaf(HOT), Leaf(HUMID)))
        assert node.evaluate(binding(t=10, h=90))
        assert not node.evaluate(binding(t=10, h=10))

    def test_not(self):
        node = Not(Leaf(HOT))
        assert node.evaluate(binding(t=10))
        assert not node.evaluate(binding(t=90))

    def test_nested_tree_matches_eq_45_shape(self):
        # (g1 AND g2) OR (NOT g3) — attribute/temporal/spatial leaves mix freely
        node = Or((And((Leaf(HOT), Leaf(HUMID))), Not(Leaf(DARK))))
        assert node.evaluate(binding(t=60, h=90, lux=5))
        assert node.evaluate(binding(t=10, h=10, lux=50))
        assert not node.evaluate(binding(t=10, h=90, lux=5))


class TestOperatorSugar:
    def test_and_or_invert(self):
        node = (Leaf(HOT) & Leaf(HUMID)) | ~Leaf(DARK)
        assert isinstance(node, Or)
        assert node.evaluate(binding())

    def test_bare_conditions_accepted(self):
        node = all_of(HOT, HUMID)
        assert isinstance(node, And)
        assert node.evaluate(binding())

    def test_single_condition_passthrough(self):
        assert isinstance(all_of(HOT), Leaf)

    def test_as_node_rejects_garbage(self):
        with pytest.raises(ConditionError):
            as_node("not a condition")


class TestStructure:
    def test_roles_collected_recursively(self):
        node = Or((And((Leaf(HOT), Leaf(HUMID))), Not(Leaf(DARK))))
        assert node.roles == {"x", "y", "z"}

    def test_leaves_in_order(self):
        node = Or((And((Leaf(HOT), Leaf(HUMID))), Not(Leaf(DARK))))
        assert node.leaves() == (HOT, HUMID, DARK)

    def test_describe_parenthesized(self):
        node = And((Leaf(HOT), Or((Leaf(HUMID), Leaf(DARK)))))
        text = node.describe()
        assert text.startswith("(") and " AND " in text and " OR " in text

    def test_empty_children_rejected(self):
        with pytest.raises(ConditionError):
            And(())
        with pytest.raises(ConditionError):
            Or(())


class TestNegationNormalForm:
    def test_de_morgan_and(self):
        node = Not(And((Leaf(HOT), Leaf(HUMID))))
        nnf = node.nnf()
        assert isinstance(nnf, Or)
        assert all(isinstance(child, Not) for child in nnf.children)

    def test_de_morgan_or(self):
        node = Not(Or((Leaf(HOT), Leaf(HUMID))))
        nnf = node.nnf()
        assert isinstance(nnf, And)

    def test_double_negation_cancels(self):
        node = Not(Not(Leaf(HOT)))
        assert node.nnf() == Leaf(HOT)

    def test_nnf_preserves_semantics(self):
        node = Not(And((Leaf(HOT), Not(Or((Leaf(HUMID), Leaf(DARK)))))))
        nnf = node.nnf()
        for kwargs in (
            dict(t=60, h=90, lux=5),
            dict(t=60, h=10, lux=50),
            dict(t=10, h=90, lux=5),
            dict(t=10, h=10, lux=50),
        ):
            b = binding(**kwargs)
            assert node.evaluate(b) == nnf.evaluate(b)
