"""The four operator families of Definition 4.2.

Event conditions are specified with three families of constraint
operators plus logical connectives:

* **relational operators** ``OP_R`` ("Greater, Equal, Less") constrain
  attribute aggregates against numeric constants (Eq. 4.2);
* **temporal operators** ``OP_T`` ("Before, After, During, Begin, End")
  constrain occurrence times (Eq. 4.3);
* **spatial operators** ``OP_S`` ("Inside, Outside, Joint") constrain
  occurrence locations (Eq. 4.4);
* **logical operators** ``OP_L`` ("AND, OR, NOT") combine conditions
  into composite event conditions (Eq. 4.5); they are the node classes
  of :mod:`repro.core.composite`.

Temporal and spatial operators are *sets of admissible relations*: the
relation between two entities is computed exactly once (by
:func:`~repro.core.time_model.temporal_relation` /
:func:`~repro.core.space_model.spatial_relation`) and the operator then
tests membership.  This keeps operator semantics declarative and makes
the admissible sets inspectable — the baseline comparison benchmarks
rely on that to show which relations each legacy model cannot express.
"""

from __future__ import annotations

import enum
import math
import operator
from typing import Callable

from repro.core.errors import ConditionError
from repro.core.space_model import SpatialRelation
from repro.core.time_model import TemporalRelation

__all__ = ["RelationalOp", "TemporalOp", "SpatialOp"]

_R = TemporalRelation
_S = SpatialRelation


class RelationalOp(enum.Enum):
    """``OP_R`` — numeric comparison of an aggregate against a constant."""

    GT = ">"
    GE = ">="
    LT = "<"
    LE = "<="
    EQ = "=="
    NE = "!="

    def apply(self, lhs: float, rhs: float) -> bool:
        """Evaluate ``lhs OP rhs`` with float-tolerant equality."""
        if self in (RelationalOp.EQ, RelationalOp.NE):
            equal = math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)
            return equal if self is RelationalOp.EQ else not equal
        return _RELATIONAL_FUNCS[self](lhs, rhs)

    def resolve(self) -> Callable[[float, float], bool]:
        """A plain comparison callable specialized for this operator.

        Condition lowering (:meth:`repro.core.conditions.Condition.lower`)
        resolves the operator once at compile time so the hot path skips
        the per-evaluation enum dispatch; the returned callable computes
        exactly what :meth:`apply` computes.
        """
        if self is RelationalOp.EQ:
            return _close_eq
        if self is RelationalOp.NE:
            return _close_ne
        return _RELATIONAL_FUNCS[self]

    @classmethod
    def from_symbol(cls, symbol: str) -> "RelationalOp":
        """Look up an operator by its source symbol (used by the DSL)."""
        for op in cls:
            if op.value == symbol:
                return op
        raise ConditionError(f"unknown relational operator {symbol!r}")


def _close_eq(lhs: float, rhs: float) -> bool:
    return math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)


def _close_ne(lhs: float, rhs: float) -> bool:
    return not math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)


_RELATIONAL_FUNCS: dict[RelationalOp, Callable[[float, float], bool]] = {
    RelationalOp.GT: operator.gt,
    RelationalOp.GE: operator.ge,
    RelationalOp.LT: operator.lt,
    RelationalOp.LE: operator.le,
}


class TemporalOp(enum.Enum):
    """``OP_T`` — constraints between (estimated) occurrence times.

    Strict operators mirror the point/point, point/interval and Allen
    interval relations one-to-one.  Two convenience operators widen the
    admissible sets for common conditions: ``WITHIN`` holds when the
    first operand falls anywhere inside the second (boundaries included)
    and ``INTERSECTS`` when the operands share at least one tick.
    """

    BEFORE = "before"
    AFTER = "after"
    SIMULTANEOUS = "simultaneous"
    BEGINS = "begins"        # the paper's "Begin"
    BEGUN_BY = "begun_by"
    ENDS = "ends"            # the paper's "End"
    ENDED_BY = "ended_by"
    DURING = "during"
    CONTAINS = "contains"
    MEETS = "meets"
    MET_BY = "met_by"
    OVERLAPS = "overlaps"
    OVERLAPPED_BY = "overlapped_by"
    STARTS = "starts"
    STARTED_BY = "started_by"
    FINISHES = "finishes"
    FINISHED_BY = "finished_by"
    EQUALS = "equals"
    WITHIN = "within"
    INTERSECTS = "intersects"

    @property
    def admits(self) -> frozenset[TemporalRelation]:
        """The temporal relations under which this operator holds."""
        return _TEMPORAL_ADMITS[self]


_TEMPORAL_ADMITS: dict[TemporalOp, frozenset[TemporalRelation]] = {
    TemporalOp.BEFORE: frozenset({_R.BEFORE}),
    TemporalOp.AFTER: frozenset({_R.AFTER}),
    TemporalOp.SIMULTANEOUS: frozenset({_R.SIMULTANEOUS, _R.EQUALS}),
    TemporalOp.BEGINS: frozenset({_R.BEGINS}),
    TemporalOp.BEGUN_BY: frozenset({_R.BEGUN_BY}),
    TemporalOp.ENDS: frozenset({_R.ENDS}),
    TemporalOp.ENDED_BY: frozenset({_R.ENDED_BY}),
    TemporalOp.DURING: frozenset({_R.DURING}),
    TemporalOp.CONTAINS: frozenset({_R.CONTAINS}),
    TemporalOp.MEETS: frozenset({_R.MEETS}),
    TemporalOp.MET_BY: frozenset({_R.MET_BY}),
    TemporalOp.OVERLAPS: frozenset({_R.OVERLAPS}),
    TemporalOp.OVERLAPPED_BY: frozenset({_R.OVERLAPPED_BY}),
    TemporalOp.STARTS: frozenset({_R.STARTS}),
    TemporalOp.STARTED_BY: frozenset({_R.STARTED_BY}),
    TemporalOp.FINISHES: frozenset({_R.FINISHES}),
    TemporalOp.FINISHED_BY: frozenset({_R.FINISHED_BY}),
    TemporalOp.EQUALS: frozenset({_R.EQUALS, _R.SIMULTANEOUS}),
    TemporalOp.WITHIN: frozenset(
        {_R.DURING, _R.STARTS, _R.FINISHES, _R.BEGINS, _R.ENDS, _R.EQUALS,
         _R.SIMULTANEOUS}
    ),
    TemporalOp.INTERSECTS: frozenset(
        set(TemporalRelation) - {_R.BEFORE, _R.AFTER}
    ),
}


class SpatialOp(enum.Enum):
    """``OP_S`` — constraints between (estimated) occurrence locations.

    ``INSIDE`` / ``OUTSIDE`` follow the paper's point/field examples but
    extend naturally to field/field full containment.  ``JOINT`` holds
    whenever the operands share any location (including containment and
    equality); ``DISJOINT`` is its complement.
    """

    EQUAL_TO = "equal_to"
    INSIDE = "inside"
    OUTSIDE = "outside"
    CONTAINS = "contains"
    JOINT = "joint"
    DISJOINT = "disjoint"

    @property
    def admits(self) -> frozenset[SpatialRelation]:
        """The spatial relations under which this operator holds."""
        return _SPATIAL_ADMITS[self]


_SPATIAL_ADMITS: dict[SpatialOp, frozenset[SpatialRelation]] = {
    SpatialOp.EQUAL_TO: frozenset({_S.EQUAL_TO}),
    SpatialOp.INSIDE: frozenset({_S.INSIDE, _S.EQUAL_TO}),
    SpatialOp.OUTSIDE: frozenset({_S.OUTSIDE, _S.DISJOINT, _S.DISTINCT}),
    SpatialOp.CONTAINS: frozenset({_S.CONTAINS, _S.EQUAL_TO}),
    SpatialOp.JOINT: frozenset(
        {_S.JOINT, _S.INSIDE, _S.CONTAINS, _S.EQUAL_TO}
    ),
    SpatialOp.DISJOINT: frozenset({_S.DISJOINT, _S.OUTSIDE, _S.DISTINCT}),
}

