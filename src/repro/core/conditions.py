"""Event conditions: the leaves of composite event specifications.

Definition 4.2 builds every event from one or more *event conditions* —
constraints in terms of attributes, time and location:

* :class:`AttributeCondition`       — ``g_v[V1..Vn] OP_R C``    (Eq. 4.2)
* :class:`TemporalCondition`        — ``g_t[t1..tn] OP_T Ct``   (Eq. 4.3)
* :class:`SpatialCondition`         — ``g_s[l1..ln] OP_S Cs``   (Eq. 4.4)

plus two *measure* variants that compare a scalar temporal/spatial
aggregate with ``OP_R`` (the paper's condition S1 uses one:
``g_distance(l_x, l_y) < 5``), and a :class:`ConfidenceCondition` over
the instance confidence ``rho``.

Conditions are evaluated against a **binding**: a mapping from entity
*role names* (the ``x`` and ``y`` of the paper's examples) to entities —
physical observations or event instances.  A role may bind a single
entity or a group of entities (aggregates then range over the group),
which is how window-based conditions such as "the average of the last n
readings" are expressed.

Both sides of temporal and spatial conditions are *expressions*: an
entity's time/location (optionally shifted, supporting the paper's
``t_x + 5 Before t_y``), a constant, or an aggregate over several roles.

A condition's semantics is what it **lowers** to (:meth:`Condition.lower`):
a pre-bound ``binding -> bool`` closure, compiled into the specification's
evaluator by :mod:`repro.detect.compiler`, with aggregate and operator
lookups resolved once at specification-install time instead of once per
binding.  The test suite states the same semantics independently, as one
function over the condition tree (``tests/reference``), and checks that
every lowered closure returns the same booleans and raises the same
error classes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

from repro.core.aggregates import (
    space_aggregate,
    space_measure,
    time_aggregate,
    time_measure,
    value_aggregate,
)
from repro.core.entity import Entity, confidence_of, numeric_attribute
from repro.core.errors import BindingError, ConditionError
from repro.core.operators import RelationalOp, SpatialOp, TemporalOp
from repro.core.space_model import SpatialEntity, spatial_relation
from repro.core.time_model import TemporalEntity, TimeInterval, temporal_relation

__all__ = [
    "Binding",
    "LoweredPredicate",
    "Condition",
    "AttributeTerm",
    "TimeExpr",
    "TimeOf",
    "TimeConst",
    "TimeAgg",
    "SpaceExpr",
    "LocationOf",
    "LocationConst",
    "SpaceAgg",
    "AttributeCondition",
    "TemporalCondition",
    "TemporalMeasureCondition",
    "SpatialCondition",
    "SpatialMeasureCondition",
    "ConfidenceCondition",
    "entities_for",
]

Binding = Mapping[str, Union[Entity, Sequence[Entity]]]
"""Evaluation context: role name -> entity or group of entities."""

LoweredPredicate = Callable[[Binding], bool]
"""A lowered condition evaluator: ``binding -> bool``."""


def entities_for(name: str, binding: Binding) -> list[Entity]:
    """The entities bound to a role, always as a list.

    Raises:
        BindingError: If the role is absent or bound to nothing.
    """
    if name not in binding:
        raise BindingError(f"role {name!r} is not bound")
    bound = binding[name]
    entities = list(bound) if isinstance(bound, (list, tuple)) else [bound]
    if not entities:
        raise BindingError(f"role {name!r} is bound to an empty group")
    return entities


class Condition(ABC):
    """Base class of every leaf event condition."""

    #: Relative evaluation cost rank; the compiler orders conjunctions
    #: cheapest-first by this (see :mod:`repro.detect.compiler`).
    COST = 10.0

    @property
    @abstractmethod
    def roles(self) -> frozenset[str]:
        """Role names the condition references."""

    @abstractmethod
    def lower(self) -> LoweredPredicate:
        """Lower to a pre-bound ``binding -> bool`` closure: whether the
        condition holds under the binding."""


# ----------------------------------------------------------------------
# attribute-based event conditions (Eq. 4.2)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AttributeTerm:
    """One ``V_k`` operand: the named attribute of a bound role.

    When the role binds a group, the term contributes the attribute of
    every entity in the group (so ``avg`` over a window works without
    special syntax).
    """

    role: str
    attribute: str


@dataclass(frozen=True)
class AttributeCondition(Condition):
    """``g_v[V1, V2, ..., Vn] OP_R C`` (Eq. 4.2).

    Example — the paper's "the average attribute of physical observation
    x and y is Greater than C"::

        AttributeCondition(
            "average",
            (AttributeTerm("x", "value"), AttributeTerm("y", "value")),
            RelationalOp.GT,
            C,
        )
    """

    aggregate: str
    terms: tuple[AttributeTerm, ...]
    op: RelationalOp
    constant: float

    COST = 2.0

    def __post_init__(self) -> None:
        if not self.terms:
            raise ConditionError("attribute condition needs at least one term")
        value_aggregate(self.aggregate)  # validate the name eagerly

    def lower(self) -> LoweredPredicate:
        aggregate = value_aggregate(self.aggregate)
        compare = self.op.resolve()
        constant = self.constant
        pairs = tuple((term.role, term.attribute) for term in self.terms)

        def run(binding: Binding) -> bool:
            values: list[float] = []
            for role, attribute in pairs:
                for entity in entities_for(role, binding):
                    values.append(numeric_attribute(entity, attribute))
            return compare(aggregate(values), constant)

        return run

    @property
    def roles(self) -> frozenset[str]:
        return frozenset(term.role for term in self.terms)


# ----------------------------------------------------------------------
# temporal expressions and conditions (Eq. 4.3)
# ----------------------------------------------------------------------

class TimeExpr(ABC):
    """A temporal expression: resolves to a point or interval."""

    @abstractmethod
    def lower(self) -> Callable[[Binding], TemporalEntity]:
        """Pre-bound resolver: ``binding -> time``."""

    @property
    @abstractmethod
    def roles(self) -> frozenset[str]: ...


@dataclass(frozen=True)
class TimeOf(TimeExpr):
    """The (estimated) occurrence time of a role, shifted by ``offset``.

    ``TimeOf("x", offset=5)`` renders the paper's ``t_x + 5``.  A role
    bound to a group resolves to the temporal hull of the group.
    """

    role: str
    offset: int = 0

    def lower(self) -> Callable[[Binding], TemporalEntity]:
        role, offset = self.role, self.offset
        span = time_aggregate("span")

        def resolve(binding: Binding) -> TemporalEntity:
            entities = entities_for(role, binding)
            if len(entities) == 1:
                when: TemporalEntity = entities[0].occurrence_time
            else:
                when = span([e.occurrence_time for e in entities])
            if offset:
                when = (
                    when.shift(offset)
                    if isinstance(when, TimeInterval)
                    else when + offset
                )
            return when

        return resolve

    @property
    def roles(self) -> frozenset[str]:
        return frozenset({self.role})


@dataclass(frozen=True)
class TimeConst(TimeExpr):
    """A constant time point or interval ``Ct``."""

    value: TemporalEntity

    def lower(self) -> Callable[[Binding], TemporalEntity]:
        value = self.value
        return lambda binding: value

    @property
    def roles(self) -> frozenset[str]:
        return frozenset()


@dataclass(frozen=True)
class TimeAgg(TimeExpr):
    """``g_t`` over the occurrence times of several roles."""

    aggregate: str
    arg_roles: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.arg_roles:
            raise ConditionError("time aggregate needs at least one role")
        time_aggregate(self.aggregate)

    def lower(self) -> Callable[[Binding], TemporalEntity]:
        aggregate = time_aggregate(self.aggregate)
        arg_roles = self.arg_roles

        def resolve(binding: Binding) -> TemporalEntity:
            times: list[TemporalEntity] = []
            for role in arg_roles:
                times.extend(
                    e.occurrence_time for e in entities_for(role, binding)
                )
            return aggregate(times)

        return resolve

    @property
    def roles(self) -> frozenset[str]:
        return frozenset(self.arg_roles)


@dataclass(frozen=True)
class TemporalCondition(Condition):
    """``g_t[t1, ..., tn] OP_T Ct`` (Eq. 4.3).

    Example — the paper's "every event instance of event x must occur
    AFTER 5 time units Before event y" (``t_x + 5 Before t_y``)::

        TemporalCondition(TimeOf("x", offset=5), TemporalOp.BEFORE, TimeOf("y"))
    """

    lhs: TimeExpr
    op: TemporalOp
    rhs: TimeExpr

    COST = 4.0

    def lower(self) -> LoweredPredicate:
        resolve_lhs = self.lhs.lower()
        resolve_rhs = self.rhs.lower()
        admits = self.op.admits
        # Most operators admit exactly one relation; an identity check
        # skips the per-evaluation frozenset (enum hash) membership.
        only = next(iter(admits)) if len(admits) == 1 else None

        def run(binding: Binding) -> bool:
            relation = temporal_relation(
                resolve_lhs(binding), resolve_rhs(binding)
            )
            if only is not None:
                return relation is only
            return relation in admits

        return run

    @property
    def roles(self) -> frozenset[str]:
        return self.lhs.roles | self.rhs.roles


@dataclass(frozen=True)
class TemporalMeasureCondition(Condition):
    """A scalar temporal measure compared with ``OP_R``.

    Example — "x has persisted for at least 1800 ticks"::

        TemporalMeasureCondition("duration", ("x",), RelationalOp.GE, 1800)
    """

    measure: str
    arg_roles: tuple[str, ...]
    op: RelationalOp
    constant: float

    COST = 3.0

    def __post_init__(self) -> None:
        if not self.arg_roles:
            raise ConditionError("temporal measure needs at least one role")
        time_measure(self.measure)

    def lower(self) -> LoweredPredicate:
        measure = time_measure(self.measure)
        compare = self.op.resolve()
        constant = self.constant
        arg_roles = self.arg_roles

        def run(binding: Binding) -> bool:
            times: list[TemporalEntity] = []
            for role in arg_roles:
                times.extend(
                    e.occurrence_time for e in entities_for(role, binding)
                )
            return compare(measure(times), constant)

        return run

    @property
    def roles(self) -> frozenset[str]:
        return frozenset(self.arg_roles)


# ----------------------------------------------------------------------
# spatial expressions and conditions (Eq. 4.4)
# ----------------------------------------------------------------------

class SpaceExpr(ABC):
    """A spatial expression: resolves to a point or field."""

    @abstractmethod
    def lower(self) -> Callable[[Binding], SpatialEntity]:
        """Pre-bound resolver: ``binding -> location``."""

    @property
    @abstractmethod
    def roles(self) -> frozenset[str]: ...


@dataclass(frozen=True)
class LocationOf(SpaceExpr):
    """The (estimated) occurrence location of a role.

    A role bound to a group resolves to the convex hull of the group's
    locations (degenerating to the single point when appropriate).
    """

    role: str

    def lower(self) -> Callable[[Binding], SpatialEntity]:
        role = self.role
        hull = space_aggregate("hull")

        def resolve(binding: Binding) -> SpatialEntity:
            entities = entities_for(role, binding)
            if len(entities) == 1:
                return entities[0].occurrence_location
            return hull([e.occurrence_location for e in entities])

        return resolve

    @property
    def roles(self) -> frozenset[str]:
        return frozenset({self.role})


@dataclass(frozen=True)
class LocationConst(SpaceExpr):
    """A constant location point or field ``Cs``."""

    value: SpatialEntity

    def lower(self) -> Callable[[Binding], SpatialEntity]:
        value = self.value
        return lambda binding: value

    @property
    def roles(self) -> frozenset[str]:
        return frozenset()


@dataclass(frozen=True)
class SpaceAgg(SpaceExpr):
    """``g_s`` over the occurrence locations of several roles."""

    aggregate: str
    arg_roles: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.arg_roles:
            raise ConditionError("space aggregate needs at least one role")
        space_aggregate(self.aggregate)

    def lower(self) -> Callable[[Binding], SpatialEntity]:
        aggregate = space_aggregate(self.aggregate)
        arg_roles = self.arg_roles

        def resolve(binding: Binding) -> SpatialEntity:
            locations: list[SpatialEntity] = []
            for role in arg_roles:
                locations.extend(
                    e.occurrence_location for e in entities_for(role, binding)
                )
            return aggregate(locations)

        return resolve

    @property
    def roles(self) -> frozenset[str]:
        return frozenset(self.arg_roles)


@dataclass(frozen=True)
class SpatialCondition(Condition):
    """``g_s[l1, ..., ln] OP_S Cs`` (Eq. 4.4).

    Example — the paper's "every event instance of event x must occur
    Inside event y"::

        SpatialCondition(LocationOf("x"), SpatialOp.INSIDE, LocationOf("y"))
    """

    lhs: SpaceExpr
    op: SpatialOp
    rhs: SpaceExpr

    COST = 6.0

    def lower(self) -> LoweredPredicate:
        resolve_lhs = self.lhs.lower()
        resolve_rhs = self.rhs.lower()
        admits = self.op.admits
        only = next(iter(admits)) if len(admits) == 1 else None

        def run(binding: Binding) -> bool:
            relation = spatial_relation(
                resolve_lhs(binding), resolve_rhs(binding)
            )
            if only is not None:
                return relation is only
            return relation in admits

        return run

    @property
    def roles(self) -> frozenset[str]:
        return self.lhs.roles | self.rhs.roles


@dataclass(frozen=True)
class SpatialMeasureCondition(Condition):
    """A scalar spatial measure compared with ``OP_R``.

    Example — the second conjunct of the paper's condition S1,
    ``g_distance(l_x, l_y) < 5``::

        SpatialMeasureCondition("distance", ("x", "y"), RelationalOp.LT, 5.0)
    """

    measure: str
    arg_roles: tuple[str, ...]
    op: RelationalOp
    constant: float

    COST = 5.0

    def __post_init__(self) -> None:
        if not self.arg_roles:
            raise ConditionError("spatial measure needs at least one role")
        space_measure(self.measure)

    def lower(self) -> LoweredPredicate:
        measure = space_measure(self.measure)
        compare = self.op.resolve()
        constant = self.constant
        arg_roles = self.arg_roles

        def run(binding: Binding) -> bool:
            locations: list[SpatialEntity] = []
            for role in arg_roles:
                locations.extend(
                    e.occurrence_location for e in entities_for(role, binding)
                )
            return compare(measure(locations), constant)

        return run

    @property
    def roles(self) -> frozenset[str]:
        return frozenset(self.arg_roles)


# ----------------------------------------------------------------------
# confidence conditions (over rho, Eq. 4.7)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ConfidenceCondition(Condition):
    """Constraint on the observer confidence ``rho`` of a bound role.

    A role bound to a group uses the *minimum* confidence of the group
    (the weakest link).  Useful at higher layers to ignore low-quality
    instances, e.g. ``rho(x) >= 0.8``.
    """

    role: str
    op: RelationalOp
    constant: float

    COST = 1.0

    def lower(self) -> LoweredPredicate:
        role = self.role
        compare = self.op.resolve()
        constant = self.constant

        def run(binding: Binding) -> bool:
            rho = min(confidence_of(e) for e in entities_for(role, binding))
            return compare(rho, constant)

        return run

    @property
    def roles(self) -> frozenset[str]:
        return frozenset({self.role})
