"""Composite event conditions: logical trees over leaf conditions (Eq. 4.5).

Equation 4.5 forms an event's full condition by combining attribute,
temporal and spatial conditions with the logical operators ``OP_L``
(AND, OR, NOT)::

    {Eid, (g_v ... OP_L ...) OP_L (g_t ... OP_L ...) OP_L (g_s ...)}

This module provides the condition tree — :class:`Leaf`, :class:`And`,
:class:`Or`, :class:`Not` — and the convenience constructor
:func:`all_of`.  A tree is data: :func:`repro.detect.compiler.compile_condition`
gives it its meaning, one ``binding -> bool`` closure, and the test
suite's reference semantics (``tests/reference``) states the same
meaning as a function over the tree.  Trees are immutable and hashable
so specifications can be deduplicated and used as dictionary keys.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.conditions import Condition
from repro.core.errors import ConditionError

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

    @property
    @abstractmethod
    def roles(self) -> frozenset[str]:
        """All role names referenced anywhere in the subtree."""

    def __and__(self, other: "ConditionNode") -> "ConditionNode":
        return And((self, as_node(other)))

    def __or__(self, other: "ConditionNode") -> "ConditionNode":
        return Or((self, as_node(other)))

    def __invert__(self) -> "ConditionNode":
        return Not(self)


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

    @property
    def roles(self) -> frozenset[str]:
        return self.condition.roles


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

    @property
    def roles(self) -> frozenset[str]:
        return frozenset().union(*(child.roles for child in self.children))


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

    @property
    def roles(self) -> frozenset[str]:
        return frozenset().union(*(child.roles for child in self.children))


@dataclass(frozen=True)
class Not(ConditionNode):
    """Negation of a subtree (``OP_L = NOT``)."""

    child: ConditionNode

    def __post_init__(self) -> None:
        object.__setattr__(self, "child", as_node(self.child))

    @property
    def roles(self) -> frozenset[str]:
        return self.child.roles


def all_of(*conditions: "ConditionNode | Condition") -> ConditionNode:
    """Conjunction of conditions; a single operand passes through."""
    nodes = tuple(as_node(c) for c in conditions)
    return nodes[0] if len(nodes) == 1 else And(nodes)
