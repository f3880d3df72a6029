"""Composite event conditions: logical trees over leaf conditions (Eq. 4.5).

Equation 4.5 forms an event's full condition by combining attribute,
temporal and spatial conditions with the logical operators ``OP_L``
(AND, OR, NOT)::

    {Eid, (g_v ... OP_L ...) OP_L (g_t ... OP_L ...) OP_L (g_s ...)}

This module provides the condition tree — :class:`Leaf`, :class:`And`,
:class:`Or`, :class:`Not` — with evaluation over bindings, negation
normal form (for the logical-equivalence property tests), and the
convenience constructor :func:`all_of`.  Trees are immutable and
hashable so specifications can be deduplicated and used as dictionary
keys.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.conditions import Binding, Condition
from repro.core.errors import ConditionError
from repro.core.operators import LogicalOp

__all__ = [
    "ConditionNode",
    "Leaf",
    "And",
    "Or",
    "Not",
    "all_of",
    "as_node",
]


class ConditionNode(ABC):
    """A node of the composite condition tree."""

    @abstractmethod
    def evaluate(self, binding: Binding) -> bool:
        """Whether the (sub)tree holds under ``binding``."""

    @property
    @abstractmethod
    def roles(self) -> frozenset[str]:
        """All role names referenced anywhere in the subtree."""

    @abstractmethod
    def describe(self) -> str:
        """Parenthesized rendering of the subtree."""

    @abstractmethod
    def nnf(self, negate: bool = False) -> "ConditionNode":
        """Negation normal form: NOT pushed to the leaves via De Morgan.

        Leaves cannot be negated further, so a negated leaf stays as a
        ``Not(Leaf)``; every other ``Not`` disappears.
        """

    @abstractmethod
    def leaves(self) -> tuple[Condition, ...]:
        """Every leaf condition in the subtree, left to right."""

    def __and__(self, other: "ConditionNode") -> "ConditionNode":
        return And((self, as_node(other)))

    def __or__(self, other: "ConditionNode") -> "ConditionNode":
        return Or((self, as_node(other)))

    def __invert__(self) -> "ConditionNode":
        return Not(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


def as_node(value: "ConditionNode | Condition") -> ConditionNode:
    """Wrap a bare leaf condition in a :class:`Leaf` when needed."""
    if isinstance(value, ConditionNode):
        return value
    if isinstance(value, Condition):
        return Leaf(value)
    raise ConditionError(f"not a condition: {value!r}")


@dataclass(frozen=True)
class Leaf(ConditionNode):
    """A single attribute / temporal / spatial / confidence condition."""

    condition: Condition

    def evaluate(self, binding: Binding) -> bool:
        return self.condition.evaluate(binding)

    @property
    def roles(self) -> frozenset[str]:
        return self.condition.roles

    def describe(self) -> str:
        return self.condition.describe()

    def nnf(self, negate: bool = False) -> ConditionNode:
        return Not(self) if negate else self

    def leaves(self) -> tuple[Condition, ...]:
        return (self.condition,)


@dataclass(frozen=True)
class And(ConditionNode):
    """Conjunction: every child must hold (``OP_L = AND``)."""

    children: tuple[ConditionNode, ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise ConditionError("AND needs at least one child")
        object.__setattr__(
            self, "children", tuple(as_node(c) for c in self.children)
        )

    def evaluate(self, binding: Binding) -> bool:
        return LogicalOp.AND.apply(
            *(child.evaluate(binding) for child in self.children)
        )

    @property
    def roles(self) -> frozenset[str]:
        return frozenset().union(*(child.roles for child in self.children))

    def describe(self) -> str:
        return "(" + " AND ".join(child.describe() for child in self.children) + ")"

    def nnf(self, negate: bool = False) -> ConditionNode:
        children = tuple(child.nnf(negate) for child in self.children)
        return Or(children) if negate else And(children)

    def leaves(self) -> tuple[Condition, ...]:
        return tuple(
            leaf for child in self.children for leaf in child.leaves()
        )


@dataclass(frozen=True)
class Or(ConditionNode):
    """Disjunction: at least one child must hold (``OP_L = OR``)."""

    children: tuple[ConditionNode, ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise ConditionError("OR needs at least one child")
        object.__setattr__(
            self, "children", tuple(as_node(c) for c in self.children)
        )

    def evaluate(self, binding: Binding) -> bool:
        return LogicalOp.OR.apply(
            *(child.evaluate(binding) for child in self.children)
        )

    @property
    def roles(self) -> frozenset[str]:
        return frozenset().union(*(child.roles for child in self.children))

    def describe(self) -> str:
        return "(" + " OR ".join(child.describe() for child in self.children) + ")"

    def nnf(self, negate: bool = False) -> ConditionNode:
        children = tuple(child.nnf(negate) for child in self.children)
        return And(children) if negate else Or(children)

    def leaves(self) -> tuple[Condition, ...]:
        return tuple(
            leaf for child in self.children for leaf in child.leaves()
        )


@dataclass(frozen=True)
class Not(ConditionNode):
    """Negation of a subtree (``OP_L = NOT``)."""

    child: ConditionNode

    def __post_init__(self) -> None:
        object.__setattr__(self, "child", as_node(self.child))

    def evaluate(self, binding: Binding) -> bool:
        return LogicalOp.NOT.apply(self.child.evaluate(binding))

    @property
    def roles(self) -> frozenset[str]:
        return self.child.roles

    def describe(self) -> str:
        return f"NOT {self.child.describe()}"

    def nnf(self, negate: bool = False) -> ConditionNode:
        return self.child.nnf(not negate)

    def leaves(self) -> tuple[Condition, ...]:
        return self.child.leaves()


def all_of(*conditions: "ConditionNode | Condition") -> ConditionNode:
    """Conjunction of conditions; a single operand passes through."""
    nodes = tuple(as_node(c) for c in conditions)
    return nodes[0] if len(nodes) == 1 else And(nodes)
