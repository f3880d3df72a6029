"""Condition-tree compilation: flat, pre-bound evaluators.

PR 1 made binding *enumeration* plan-driven (column masks reject
candidates); this module removes the remaining per-binding
interpretation overhead.  :func:`compile_condition` lowers a
specification's composite condition tree (Eq. 4.5) into a flat,
closure-based evaluator:

* every leaf becomes a pre-bound callable — attribute getters,
  aggregation functions and comparison operators are resolved once at
  spec-install time instead of once per binding
  (:meth:`~repro.core.conditions.Condition.lower`);
* conjunctions are flattened into short-circuiting lists ordered
  cheapest-first by each leaf's static
  :attr:`~repro.core.conditions.Condition.COST` rank.

The closures are the *judge*: whatever the planner's masks let through
and a decisive plan does not prove is decided here, one binding at a
time, by the same scalar arithmetic the interpreted tree uses.

Semantics versus the interpreted tree (``ConditionNode.evaluate``,
the ``use_planner=False`` differential baseline):

* a compiled evaluator returns ``True`` exactly when the interpreted
  tree returns ``True`` — match sets are always identical (verified per
  scenario by the PR 2 conformance goldens);
* when the compiled evaluator raises, the interpreted tree raises the
  same exception class on the same binding;
* the single permitted divergence: a short-circuiting conjunction may
  return ``False`` where the interpreted (non-short-circuiting) tree
  raises, because a cheap conjunct disproved the binding before an
  expensive erroring conjunct ran.  The engine treats both outcomes as
  a non-match, so this only moves the ``evaluation_errors`` tally.

Short-circuiting with reordering is only sound where ``False`` and
"raise" are interchangeable outcomes.  That holds at the condition root
(the engine maps both to a non-match) and recursively through ``AND``
children, but *not* under ``OR`` or ``NOT`` (a swallowed error could
flip the overall result to ``True``).  The compiler therefore tracks a
``lenient`` flag: conjunctions in lenient positions flatten, reorder and
short-circuit; everything else compiles to exact-order evaluators whose
observable behavior is identical to the interpreter's.
"""

from __future__ import annotations

from repro.core.composite import And, ConditionNode, Leaf, Not, Or
from repro.core.conditions import Binding, Condition, LoweredPredicate
from repro.core.errors import (
    BindingError,
    ConditionError,
    SpatialError,
    TemporalError,
)

__all__ = ["compile_condition"]

#: Error classes the engine treats as "binding is a non-match".
EVALUATION_ERRORS = (BindingError, ConditionError, TemporalError, SpatialError)


def _flatten_and(node: And) -> list[ConditionNode]:
    """Conjuncts of nested ``AND`` nodes, in left-to-right source order."""
    out: list[ConditionNode] = []
    for child in node.children:
        if isinstance(child, And):
            out.extend(_flatten_and(child))
        else:
            out.append(child)
    return out


def _compile(node: ConditionNode, lenient: bool) -> tuple[LoweredPredicate, float]:
    if isinstance(node, Leaf):
        return node.condition.lower(), float(node.condition.COST)

    if isinstance(node, Not):
        child_fn, cost = _compile(node.child, False)

        def run_not(binding: Binding) -> bool:
            return not child_fn(binding)

        return run_not, cost

    if isinstance(node, Or):
        compiled = [_compile(child, False) for child in node.children]
        fns = tuple(fn for fn, _ in compiled)

        # Mirrors the interpreter exactly: every child evaluates in
        # source order (no short-circuit), so the first raising child
        # propagates regardless of earlier ``True`` children.
        def run_or(binding: Binding) -> bool:
            result = False
            for fn in fns:
                if fn(binding):
                    result = True
            return result

        return run_or, sum(cost for _, cost in compiled)

    if isinstance(node, And):
        conjuncts = _flatten_and(node)
        compiled = [_compile(child, lenient) for child in conjuncts]
        total = sum(cost for _, cost in compiled)

        if not lenient:
            strict_fns = tuple(fn for fn, _ in compiled)

            def run_and_strict(binding: Binding) -> bool:
                result = True
                for fn in strict_fns:
                    if not fn(binding):
                        result = False
                return result

            return run_and_strict, total

        # Lenient position: evaluate cheapest-first and stop at the
        # first False.  Evaluation errors are deferred so that, when no
        # conjunct disproves the binding, the raised error is the same
        # one (same source-order conjunct, same class) the interpreter
        # raises.
        order = sorted(
            range(len(compiled)), key=lambda i: (compiled[i][1], i)
        )
        ordered = tuple((i, compiled[i][0]) for i in order)
        sentinel = len(compiled)

        def run_and(binding: Binding) -> bool:
            first_error: BaseException | None = None
            first_index = sentinel
            for index, fn in ordered:
                try:
                    if not fn(binding):
                        return False
                except EVALUATION_ERRORS as exc:
                    if index < first_index:
                        first_error, first_index = exc, index
            if first_error is not None:
                raise first_error
            return True

        return run_and, total

    if isinstance(node, ConditionNode):  # user-defined node type
        return node.evaluate, 10.0

    raise ConditionError(f"cannot compile non-condition node {node!r}")


def compile_condition(node: ConditionNode | Condition) -> LoweredPredicate:
    """Compile a condition tree into one flat evaluator closure; call it
    as ``fn(binding)``.

    Accepts a bare leaf :class:`~repro.core.conditions.Condition` as a
    convenience (mirroring :func:`repro.core.composite.as_node`).
    """
    if isinstance(node, Condition):
        node = Leaf(node)
    return _compile(node, lenient=True)[0]
