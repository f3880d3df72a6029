"""Event specifications: what an observer watches for and what it emits.

A specification packages everything an observer (Definition 4.3) needs
to turn input entities into event instances:

* **roles with selectors** — the named entity slots of the condition
  (the ``x``, ``y`` of the paper's examples) and which entities may
  bind them (by kind, region and minimum confidence);
* **a composite condition tree** (Eq. 4.5) over those roles;
* **an output policy** — the aggregation functions used to derive the
  emitted instance's estimated occurrence time ``t_eo``, location
  ``l_eo``, attributes ``V`` and confidence ``rho`` from the satisfied
  binding (Eq. 4.7);
* **a window** — how long (in ticks) an input entity remains eligible
  for new bindings, bounding the detection engine's state.

Specifications are declarative and observer-agnostic: the same spec can
be installed on a sensor mote (over physical observations), a sink node
(over sensor events) or a CCU (over cyber-physical events), which is
exactly the flexibility the paper's layered model calls for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.composite import ConditionNode, as_node
from repro.core.conditions import AttributeTerm, Condition
from repro.core.entity import Entity, confidence_of
from repro.core.errors import SpecificationError
from repro.core.instance import EventInstance, PhysicalObservation
from repro.core.space_model import Field, PointLocation

__all__ = [
    "EntitySelector",
    "OutputAttribute",
    "OutputPolicy",
    "EventSpecification",
]

_OBSERVATION_SIG = object()
"""Routing-table bucket shared by every physical observation."""


@dataclass(frozen=True)
class EntitySelector:
    """Filter deciding which entities may bind a specification role.

    Args:
        kinds: Acceptable entity kinds.  For event instances a kind is
            the instance's ``event_id``; for physical observations it is
            a sensed-quantity name that must appear among the
            observation's attributes.  ``None`` accepts any kind.
        region: When given, the entity's occurrence location must lie
            inside (points) or intersect (fields) this region.
        min_confidence: Least acceptable observer confidence ``rho``.
    """

    kinds: frozenset[str] | None = None
    region: Field | None = None
    min_confidence: float = 0.0

    def __post_init__(self) -> None:
        if self.kinds is not None:
            object.__setattr__(self, "kinds", frozenset(self.kinds))

    def matches(self, entity: Entity) -> bool:
        """Whether the entity satisfies every selector clause."""
        if self.kinds is not None and not self._kind_matches(entity):
            return False
        if confidence_of(entity) < self.min_confidence:
            return False
        if self.region is not None and not self._in_region(entity):
            return False
        return True

    def _kind_matches(self, entity: Entity) -> bool:
        assert self.kinds is not None
        if isinstance(entity, EventInstance):
            return entity.event_id in self.kinds
        if isinstance(entity, PhysicalObservation):
            return any(kind in entity.attributes for kind in self.kinds)
        kind = getattr(entity, "kind", None)
        return kind in self.kinds

    def _in_region(self, entity: Entity) -> bool:
        assert self.region is not None
        location = entity.occurrence_location
        if isinstance(location, PointLocation):
            return self.region.contains_point(location)
        return self.region.intersects(location)

    def residual_check(self, kinds_undecided: bool):
        """Composed check of the clauses a routing signature cannot decide.

        ``EventSpecification`` routes entities by a cheap signature that
        settles the kinds clause of an event instance up front; this
        returns a predicate covering only what remains — ``None`` when
        nothing does, so fully decided selectors cost zero per-entity
        work.
        """
        checks = []
        if kinds_undecided and self.kinds is not None:
            checks.append(self._kind_matches)
        if self.min_confidence > 0.0:
            minimum = self.min_confidence
            checks.append(lambda entity: confidence_of(entity) >= minimum)
        if self.region is not None:
            checks.append(self._in_region)
        if not checks:
            return None
        if len(checks) == 1:
            return checks[0]

        def run(entity: Entity) -> bool:
            return all(check(entity) for check in checks)

        return run


@dataclass(frozen=True)
class OutputAttribute:
    """How one output attribute of the emitted instance is computed.

    ``OutputAttribute("temp", "average", (AttributeTerm("x", "temperature"),))``
    sets ``V["temp"]`` to the average temperature over role ``x``.
    """

    name: str
    aggregate: str
    terms: tuple[AttributeTerm, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise SpecificationError(
                f"output attribute {self.name!r} needs at least one term"
            )


@dataclass(frozen=True)
class OutputPolicy:
    """Aggregation recipe for the emitted instance's 6-tuple (Eq. 4.7).

    Args:
        time: ``g_t`` name for the estimated occurrence time ``t_eo``
            (``"earliest"``, ``"latest"`` or ``"span"`` — ``"span"``
            yields an interval estimate).
        space: ``g_s`` name for the estimated occurrence location
            ``l_eo`` (``"centroid"``, ``"hull"`` or ``"box"`` — the
            latter two yield field estimates).
        attributes: Output attribute recipes.
        confidence: Fusion method for ``rho`` over the bound entities'
            confidences (``"min"``, ``"mean"``, ``"product"`` or
            ``"noisy_or"``).
    """

    time: str = "earliest"
    space: str = "centroid"
    attributes: tuple[OutputAttribute, ...] = ()
    confidence: str = "min"

    _TIME_CHOICES = ("earliest", "latest", "span")
    _SPACE_CHOICES = ("centroid", "hull", "box", "location")
    _CONFIDENCE_CHOICES = ("min", "mean", "product", "noisy_or")

    def __post_init__(self) -> None:
        if self.time not in self._TIME_CHOICES:
            raise SpecificationError(
                f"unknown time policy {self.time!r}; choose from "
                f"{self._TIME_CHOICES}"
            )
        if self.space not in self._SPACE_CHOICES:
            raise SpecificationError(
                f"unknown space policy {self.space!r}; choose from "
                f"{self._SPACE_CHOICES}"
            )
        if self.confidence not in self._CONFIDENCE_CHOICES:
            raise SpecificationError(
                f"unknown confidence policy {self.confidence!r}; choose from "
                f"{self._CONFIDENCE_CHOICES}"
            )


@dataclass(frozen=True)
class EventSpecification:
    """A complete event definition an observer can evaluate.

    Args:
        event_id: The event identifier ``Eid`` instances will carry.
        selectors: Role name -> :class:`EntitySelector`.  Every role the
            condition references must be declared here.
        condition: The composite condition tree (Eq. 4.5).
        window: Ticks an input entity stays eligible for binding; 0
            means only co-arriving entities can bind (single-shot).
        output: Recipe for the emitted instance tuple.
        group_roles: Roles that bind *all* matching entities currently
            in the window as a group (for windowed aggregates such as
            "the average of the last n readings") instead of one entity
            per binding.
        cooldown: Minimum ticks between two matches of this spec at one
            observer; 0 reports every satisfied binding.  Correlated
            inputs (many motes seeing the same fire) otherwise yield a
            quadratic burst of equivalent instances.
    """

    event_id: str
    selectors: Mapping[str, EntitySelector]
    condition: ConditionNode | Condition
    window: int = 0
    output: OutputPolicy = field(default_factory=OutputPolicy)
    group_roles: frozenset[str] = frozenset()
    cooldown: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "condition", as_node(self.condition))
        object.__setattr__(self, "selectors", dict(self.selectors))
        object.__setattr__(self, "group_roles", frozenset(self.group_roles))
        if not self.event_id:
            raise SpecificationError("event_id must be non-empty")
        if not self.selectors:
            raise SpecificationError(
                f"specification {self.event_id!r} declares no roles"
            )
        for name in ("window", "cooldown"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise SpecificationError(
                    f"{name} must be a non-negative int: {value!r}"
                )
        missing = self.condition.roles - set(self.selectors)
        if missing:
            raise SpecificationError(
                f"specification {self.event_id!r} references undeclared "
                f"roles {sorted(missing)}"
            )
        unknown_groups = self.group_roles - set(self.selectors)
        if unknown_groups:
            raise SpecificationError(
                f"group_roles {sorted(unknown_groups)} are not declared roles"
            )
        object.__setattr__(self, "_roles", tuple(sorted(self.selectors)))
        # Lazily built selector routing table: entity signature ->
        # (static_roles, residual_entries); see candidate_roles().
        object.__setattr__(self, "_route_table", {})

    @property
    def roles(self) -> tuple[str, ...]:
        """Declared role names in a stable (sorted) order."""
        return self._roles

    def candidate_roles(self, entity: Entity) -> tuple[str, ...]:
        """Roles whose selector accepts the given entity.

        Routed through a per-spec table keyed by the entity's cheap
        signature — the ``event_id`` of an event instance, one shared
        bucket for physical observations — so clauses decidable from
        the signature alone (kinds) are evaluated once per
        distinct signature instead of once per entity per batch.  Roles
        whose selector needs entity state the signature cannot capture
        run only the undecided residual (region, confidence,
        observation kinds); unknown entity species bypass the table
        entirely.  The result is always identical to the unrouted scan
        (pinned by tests and a micro-benchmark).
        """
        if isinstance(entity, EventInstance):
            sig: object = entity.event_id
        elif isinstance(entity, PhysicalObservation):
            sig = _OBSERVATION_SIG
        else:
            return self._selector_scan(entity)
        table = self._route_table
        route = table.get(sig)
        if route is None:
            route = table[sig] = self._build_route(sig)
        static, residual = route
        if residual is None:
            return static
        return tuple(
            role
            for role, check in residual
            if check is None or check(entity)
        )

    def _selector_scan(self, entity: Entity) -> tuple[str, ...]:
        """The unrouted fallback: every selector checked in full."""
        return tuple(
            role
            for role in self._roles
            if self.selectors[role].matches(entity)
        )

    def _build_route(self, sig: object) -> tuple:
        """Routing entry for one entity signature.

        Returns ``(static_roles, None)`` when every surviving selector
        is fully decided by the signature (the precomputed tuple is then
        returned with zero per-entity work), else ``(None, entries)``
        where ``entries`` pairs each statically admissible role with its
        residual check — only the clauses the signature left undecided —
        or ``None`` when statically accepted.
        """
        entries: list[tuple[str, object]] = []
        for role in self._roles:
            selector = self.selectors[role]
            if sig is _OBSERVATION_SIG:
                check = selector.residual_check(kinds_undecided=True)
            else:
                if selector.kinds is not None and sig not in selector.kinds:
                    continue
                check = selector.residual_check(kinds_undecided=False)
            entries.append((role, check))
        if all(check is None for _, check in entries):
            return (tuple(role for role, _ in entries), None)
        return (None, tuple(entries))
