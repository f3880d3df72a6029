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

    def test_empty_children_rejected(self):
        with pytest.raises(ConditionError):
            And(())
        with pytest.raises(ConditionError):
            Or(())

