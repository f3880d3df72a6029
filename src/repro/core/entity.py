"""Uniform access to CPS entities (observations and event instances).

The paper repeatedly notes that "an entity in CPS can be a physical
observation or an event instance" — event conditions must evaluate over
either interchangeably.  This module defines the :class:`Entity`
protocol both satisfy and the accessor functions condition evaluation
uses, so the rest of the library never type-switches on entity classes.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.core.errors import BindingError
from repro.core.event import Event
from repro.core.instance import EventInstance, PhysicalObservation
from repro.core.space_model import SpatialEntity
from repro.core.time_model import TemporalEntity

__all__ = [
    "Entity",
    "occurrence_time",
    "occurrence_location",
    "attribute_value",
    "confidence_of",
    "numeric_attribute",
    "entity_key",
]


@runtime_checkable
class Entity(Protocol):
    """Anything a condition can bind: observation, instance or event."""

    @property
    def occurrence_time(self) -> TemporalEntity: ...

    @property
    def occurrence_location(self) -> SpatialEntity: ...

    attributes: object


def occurrence_time(entity: Entity) -> TemporalEntity:
    """The entity's (estimated) occurrence time.

    For observations this is the sampling time ``t_o``; for instances
    the estimated occurrence time ``t_eo``; for events the true ``t_o``.
    """
    return entity.occurrence_time


def occurrence_location(entity: Entity) -> SpatialEntity:
    """The entity's (estimated) occurrence location (``l_o`` / ``l_eo``)."""
    return entity.occurrence_location


def attribute_value(entity: Entity, name: str, default: object = None) -> object:
    """Value of the named attribute from the entity's ``V`` set."""
    return entity.attributes.get(name, default)


def numeric_attribute(entity: Entity, name: str) -> float:
    """The named attribute as a float, for relational comparisons.

    Raises:
        BindingError: If the attribute is missing or non-numeric.
    """
    value = entity.attributes.get(name)
    if value is None:
        raise BindingError(f"entity {entity_key(entity)!r} has no attribute {name!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BindingError(
            f"attribute {name!r} of {entity_key(entity)!r} is not numeric: {value!r}"
        )
    return float(value)


def confidence_of(entity: Entity) -> float:
    """The observer confidence ``rho``; 1.0 for raw observations/events."""
    return getattr(entity, "confidence", 1.0)


def entity_key(entity: Entity) -> object:
    """A stable identifying key for provenance tracking."""
    if isinstance(entity, (PhysicalObservation, EventInstance)):
        return entity.key
    if isinstance(entity, Event):
        return (entity.kind, entity.event_id)
    return id(entity)
