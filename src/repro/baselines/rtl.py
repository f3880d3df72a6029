"""Baseline: RTL-style point-based timing constraint monitoring (refs
[11][12]).

Mok et al.'s Real-Time Logic expresses timing constraints over the
*occurrence function* ``@(E, i)`` — the time point of the i-th instance
of event E — as inequalities of the form::

    @(E1, i) + c  <=  @(E2, j)

The :class:`RtlMonitor` ingests timestamped event instances and checks
each registered constraint as soon as both occurrences it names are
known, reporting satisfactions and violations.  As Section 2 notes,
"since interval-based events are not supported in [the] RTL-based event
model, the interval-based temporal relationships such as 'During,
Overlap' are not addressed" — this monitor has no interval type at all.
The E8 comparison (``benchmarks/bench_baseline_comparison.py``) does
not run it: its RTL row writes the same point-deadline check out by
hand, because the monitor names the i-th occurrence of each event and
"a motion within a window after *some* door start" would need one
constraint pair per (door, motion) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ConditionError

__all__ = ["RtlConstraint", "ConstraintOutcome", "RtlMonitor"]


@dataclass(frozen=True)
class RtlConstraint:
    """``@(first, i) + offset <= @(second, j)``.

    Args:
        name: Constraint identifier.
        first: Event name on the left-hand side.
        first_index: Instance index ``i`` (0-based).
        second: Event name on the right-hand side.
        second_index: Instance index ``j`` (0-based).
        offset: The constant ``c`` (may be negative).
    """

    name: str
    first: str
    first_index: int
    second: str
    second_index: int
    offset: int

    def __post_init__(self) -> None:
        if self.first_index < 0 or self.second_index < 0:
            raise ConditionError("instance indices must be >= 0")


@dataclass(frozen=True)
class ConstraintOutcome:
    """Evaluation result once both occurrences are known."""

    constraint: RtlConstraint
    satisfied: bool
    first_time: int
    second_time: int

    @property
    def slack(self) -> int:
        """``second - (first + offset)``; negative means violated."""
        return self.second_time - (
            self.first_time + self.constraint.offset
        )


class RtlMonitor:
    """Online checker for a set of RTL timing constraints."""

    def __init__(self, constraints: list[RtlConstraint] | None = None):
        self.constraints = list(constraints or [])
        self._occurrences: dict[str, list[int]] = {}
        self.outcomes: list[ConstraintOutcome] = []
        self._pending: set[str] = {c.name for c in self.constraints}

    def add_constraint(self, constraint: RtlConstraint) -> None:
        """Register another constraint (checked against history too)."""
        self.constraints.append(constraint)
        self._pending.add(constraint.name)
        self._check(constraint)

    def observe(self, event: str, tick: int) -> list[ConstraintOutcome]:
        """Record the next instance of ``event`` at ``tick``.

        Returns:
            Outcomes newly decidable because of this occurrence.
        """
        history = self._occurrences.setdefault(event, [])
        if history and tick < history[-1]:
            raise ConditionError(
                f"occurrences of {event!r} must be time-ordered"
            )
        history.append(tick)
        decided: list[ConstraintOutcome] = []
        for constraint in self.constraints:
            if constraint.name not in self._pending:
                continue
            outcome = self._check(constraint)
            if outcome is not None:
                decided.append(outcome)
        return decided

    def _check(self, constraint: RtlConstraint) -> ConstraintOutcome | None:
        firsts = self._occurrences.get(constraint.first, [])
        seconds = self._occurrences.get(constraint.second, [])
        if (
            len(firsts) <= constraint.first_index
            or len(seconds) <= constraint.second_index
        ):
            return None
        first_time = firsts[constraint.first_index]
        second_time = seconds[constraint.second_index]
        outcome = ConstraintOutcome(
            constraint,
            satisfied=first_time + constraint.offset <= second_time,
            first_time=first_time,
            second_time=second_time,
        )
        self.outcomes.append(outcome)
        self._pending.discard(constraint.name)
        return outcome

    @property
    def violations(self) -> list[ConstraintOutcome]:
        """All violated outcomes so far."""
        return [o for o in self.outcomes if not o.satisfied]

    @property
    def undecided(self) -> tuple[str, ...]:
        """Names of constraints still waiting for occurrences."""
        return tuple(sorted(self._pending))
