"""The reference semantics of the condition language (Definition 4.2,
Eq. 4.2-4.5), written as one function over the condition tree.

:func:`evaluate` judges a condition tree against a binding and
:func:`resolve` turns a temporal or spatial operand into its value.
They read each node's fields and dispatch on its class; they never call
:meth:`~repro.core.conditions.Condition.lower` or
:func:`~repro.detect.compiler.compile_condition`, which are what the
program runs, so a differential against them compares two independent
statements of one semantics.

The semantics are the plainest ones: every child of an ``AND`` or
``OR`` is evaluated in source order (no short-circuit, so the first
raising child propagates), aggregates are looked up by name per call,
and a binding the condition cannot judge raises the error class the
shipped evaluator raises (:class:`~repro.core.errors.BindingError`,
:class:`~repro.core.errors.ConditionError`,
:class:`~repro.core.errors.TemporalError` or
:class:`~repro.core.errors.SpatialError`).
"""

from __future__ import annotations

from repro.core.aggregates import (
    space_aggregate,
    space_measure,
    time_aggregate,
    time_measure,
    value_aggregate,
)
from repro.core.composite import And, ConditionNode, Leaf, Not, Or
from repro.core.conditions import (
    AttributeCondition,
    Binding,
    Condition,
    ConfidenceCondition,
    LocationConst,
    LocationOf,
    SpaceAgg,
    SpaceExpr,
    SpatialCondition,
    SpatialMeasureCondition,
    TemporalCondition,
    TemporalMeasureCondition,
    TimeAgg,
    TimeConst,
    TimeExpr,
    TimeOf,
    entities_for,
)
from repro.core.entity import confidence_of, numeric_attribute
from repro.core.errors import ConditionError
from repro.core.space_model import SpatialEntity, spatial_relation
from repro.core.time_model import TemporalEntity, TimeInterval, temporal_relation

__all__ = ["evaluate", "resolve"]


def evaluate(node: ConditionNode | Condition, binding: Binding) -> bool:
    """Whether the condition tree ``node`` holds under ``binding``."""
    if isinstance(node, Leaf):
        return evaluate(node.condition, binding)
    if isinstance(node, And):
        return all([evaluate(child, binding) for child in node.children])
    if isinstance(node, Or):
        return any([evaluate(child, binding) for child in node.children])
    if isinstance(node, Not):
        return not evaluate(node.child, binding)
    if isinstance(node, AttributeCondition):
        values = [
            numeric_attribute(entity, term.attribute)
            for term in node.terms
            for entity in entities_for(term.role, binding)
        ]
        return node.op.apply(value_aggregate(node.aggregate)(values), node.constant)
    if isinstance(node, TemporalCondition):
        relation = temporal_relation(
            resolve(node.lhs, binding), resolve(node.rhs, binding)
        )
        return relation in node.op.admits
    if isinstance(node, TemporalMeasureCondition):
        times = _times(node.arg_roles, binding)
        return node.op.apply(time_measure(node.measure)(times), node.constant)
    if isinstance(node, SpatialCondition):
        relation = spatial_relation(
            resolve(node.lhs, binding), resolve(node.rhs, binding)
        )
        return relation in node.op.admits
    if isinstance(node, SpatialMeasureCondition):
        locations = _locations(node.arg_roles, binding)
        return node.op.apply(space_measure(node.measure)(locations), node.constant)
    if isinstance(node, ConfidenceCondition):
        rho = min(confidence_of(e) for e in entities_for(node.role, binding))
        return node.op.apply(rho, node.constant)
    raise ConditionError(f"no reference semantics for {node!r}")


def resolve(
    expr: TimeExpr | SpaceExpr, binding: Binding
) -> TemporalEntity | SpatialEntity:
    """The time or location a temporal or spatial operand denotes under
    ``binding``."""
    if isinstance(expr, TimeOf):
        times = _times((expr.role,), binding)
        when = times[0] if len(times) == 1 else time_aggregate("span")(times)
        if expr.offset:
            when = (
                when.shift(expr.offset)
                if isinstance(when, TimeInterval)
                else when + expr.offset
            )
        return when
    if isinstance(expr, (TimeConst, LocationConst)):
        return expr.value
    if isinstance(expr, TimeAgg):
        return time_aggregate(expr.aggregate)(_times(expr.arg_roles, binding))
    if isinstance(expr, LocationOf):
        locations = _locations((expr.role,), binding)
        if len(locations) == 1:
            return locations[0]
        return space_aggregate("hull")(locations)
    if isinstance(expr, SpaceAgg):
        return space_aggregate(expr.aggregate)(
            _locations(expr.arg_roles, binding)
        )
    raise ConditionError(f"no reference semantics for {expr!r}")


def _times(roles: tuple[str, ...], binding: Binding) -> list[TemporalEntity]:
    return [
        entity.occurrence_time
        for role in roles
        for entity in entities_for(role, binding)
    ]


def _locations(roles: tuple[str, ...], binding: Binding) -> list[SpatialEntity]:
    return [
        entity.occurrence_location
        for role in roles
        for entity in entities_for(role, binding)
    ]
