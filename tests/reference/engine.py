"""The naive engine: exhaustive enumeration judged by the reference
semantics, the oracle the planned :class:`DetectionEngine` is compared
against.

:class:`NaiveEngine` keeps the planned engine's windows, dedup store,
cooldown clocks, counters and batch loop (it is a subclass), and
replaces what the planner and the compiler do: every arrival enumerates
the full nested product of its spec's role windows, in ``spec.roles``
order and window arrival order, and judges each new binding with
:func:`tests.reference.evaluate`.  It builds no
:class:`~repro.detect.planner.EvaluationPlan` and no compiled closure,
so it prunes nothing (``stats.candidates_pruned`` stays 0) and proves
nothing (``stats.bindings_proven`` stays 0).

A whole naive system is a :class:`~repro.cps.system.CPSSystem` built
while ``repro.cps.system.DetectionEngine`` names this class, for
example with pytest's ``monkeypatch.setattr``.
"""

from __future__ import annotations

from itertools import product

from repro.core.entity import Entity
from repro.core.errors import (
    BindingError,
    ConditionError,
    ObserverError,
    SpatialError,
    TemporalError,
)
from repro.core.spec import EventSpecification
from repro.detect.engine import DetectionEngine, Match, binding_identity
from repro.detect.role_window import RoleWindow

from tests.reference.conditions import evaluate

__all__ = ["NaiveEngine"]


class NaiveEngine(DetectionEngine):
    """A :class:`DetectionEngine` that enumerates every binding and
    judges it with the reference semantics."""

    def add_spec(self, spec: EventSpecification) -> None:
        """Install a specification with the planned engine's windows (one
        per distinct selector, none for a one-role spec), but no plan and
        no compiled condition."""
        if spec.event_id in self._specs:
            raise ObserverError(f"duplicate specification {spec.event_id!r}")
        self._specs[spec.event_id] = spec
        pools = self._pools[spec.event_id] = {}
        windows = self._windows[spec.event_id] = {}
        if len(spec.roles) > 1 or spec.group_roles:
            for role in spec.roles:
                twin = next(
                    (r for r in windows if spec.selectors[r] == spec.selectors[role]),
                    role,
                )
                if twin == role:
                    windows[role] = RoleWindow(spec.window)
                pools[role] = windows[twin]
        self._seen[spec.event_id] = {}
        self._tallies[spec.event_id] = [0, 0]
        self._identity[spec.event_id] = binding_identity(spec)

    def _evaluate_spec(
        self,
        spec: EventSpecification,
        entity: Entity,
        candidate_roles: tuple[str, ...],
        now: int,
    ) -> list[Match]:
        last = self._last_match.get(spec.event_id)
        if spec.cooldown and last is not None and now - last < spec.cooldown:
            return []
        seen = self._seen[spec.event_id]
        identify = self._identity[spec.event_id]
        pools = self._pools[spec.event_id]
        matches: list[Match] = []
        evaluated = 0
        for target_role in candidate_roles:
            options = []
            for role in spec.roles:
                if role in spec.group_roles:
                    group = tuple(pools[role].entities())
                    options.append((group,) if group else ())
                elif role == target_role:
                    options.append((entity,))
                else:
                    options.append(pools[role].entities())
            for choice in product(*options):
                binding = dict(zip(spec.roles, choice))
                key = identify(binding)
                if key is None or key in seen:
                    continue
                evaluated += 1
                try:
                    holds = evaluate(spec.condition, binding)
                except (BindingError, ConditionError, TemporalError, SpatialError):
                    self.stats.evaluation_errors += 1
                    continue
                if holds:
                    seen[key] = now
                    matches.append(Match(spec, binding, now, key))
                    self._last_match[spec.event_id] = now
                    if spec.cooldown:
                        break  # cooling: the rest of this arrival waits
            if matches and spec.cooldown:
                break
        self._count(spec, evaluated, 0, len(matches))
        return matches
