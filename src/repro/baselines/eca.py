"""Baseline: the classic Event-Condition-Action model (paper ref [2]).

McCarthy & Dayal's ECA model, as characterized in Section 2: "the event
is generated by a single event source ... at a point in time" — no
composition, no intervals, no spatial constraints.  The engine fires a
rule whenever a single input entity satisfies the rule's *condition*
(a predicate over that one entity's attributes) and returns the firing.

The baseline-comparison benchmark (E8) runs this engine on workloads
whose target events need temporal or spatial composition; the expressiveness
gap shows up as missed detections (it can only approximate a composite
event by firing on one of its constituents).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.entity import Entity, numeric_attribute
from repro.core.errors import BindingError, ConditionError
from repro.core.operators import RelationalOp
from repro.core.time_model import TimePoint

__all__ = ["EcaTrigger", "EcaRule", "EcaEngine"]


@dataclass(frozen=True)
class EcaTrigger:
    """One rule firing: the event (entity) that satisfied the condition.

    The occurrence time is the *detection* point — ECA knows only time
    points.
    """

    entity: Entity
    time: TimePoint


@dataclass
class EcaRule:
    """Event-Condition-Action rule over single entities.

    Args:
        name: Rule identifier.
        attribute: Entity attribute the condition reads.
        op: Relational comparison.
        constant: Comparison constant.
    """

    name: str
    attribute: str
    op: RelationalOp
    constant: float

    def matches(self, entity: Entity) -> bool:
        """Whether the single-entity condition holds."""
        try:
            value = numeric_attribute(entity, self.attribute)
        except (BindingError, ConditionError):
            return False
        return self.op.apply(value, self.constant)


class EcaEngine:
    """Point-semantics, single-source ECA evaluation.

    Args:
        rules: The rule set.
    """

    def __init__(self, rules: Sequence[EcaRule] = ()):
        self.rules = list(rules)

    def submit(self, entity: Entity, now: int) -> list[EcaTrigger]:
        """Feed one entity; return one trigger per rule whose condition
        holds, in rule order.

        The trigger time is ``now`` — ECA events "occur" when the system
        processes them, which is exactly the limitation interval-based
        models fix.
        """
        return [
            EcaTrigger(entity, TimePoint(now))
            for rule in self.rules
            if rule.matches(entity)
        ]
