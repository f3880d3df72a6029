"""Spatio-temporal events: Definition 4.1 and the layer/class taxonomy.

A *spatio-temporal event* (Definition 4.1) is an occurrence of interest
described by attributes, time and location:

.. math::  E_{id} \\; \\{ t^o_{E_{id}},\\; l^o_{E_{id}},\\; V_{E_{id}} \\}

where ``E`` is the event type identifier, ``id`` the event ID, ``t^o``
the occurrence time, ``l^o`` the occurrence location and ``V`` the set
of occurrence attributes.

Events classify along two independent axes (Section 4.2):

* **temporal class** — :attr:`TemporalClass.PUNCTUAL` when the
  occurrence time is a :class:`~repro.core.time_model.TimePoint`,
  :attr:`TemporalClass.INTERVAL` when it is a
  :class:`~repro.core.time_model.TimeInterval`;
* **spatial class** — :attr:`SpatialClass.POINT` when the occurrence
  location is a :class:`~repro.core.space_model.PointLocation`,
  :attr:`SpatialClass.FIELD` when it is a
  :class:`~repro.core.space_model.Field` (a field event "is made of at
  least 2 or more point events").

Events also belong to a **layer** of the hierarchical event model
(Figure 2): physical events live in the physical world; observations,
sensor events, cyber-physical events and cyber events are produced by
successive observer levels (sensor, sensor mote, sink node, CCU).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.core.errors import ReproError
from repro.core.space_model import Field, PointLocation, SpatialEntity
from repro.core.time_model import TemporalEntity, TimeInterval, TimePoint

__all__ = [
    "TemporalClass",
    "SpatialClass",
    "EventLayer",
    "Event",
    "PhysicalEvent",
    "temporal_class_of",
    "spatial_class_of",
    "freeze_attributes",
]


class TemporalClass(enum.Enum):
    """Punctual vs interval events (Section 4.2, "Temporal Event")."""

    PUNCTUAL = "punctual"
    INTERVAL = "interval"


class SpatialClass(enum.Enum):
    """Point vs field events (Section 4.2, "Spatial Event")."""

    POINT = "point"
    FIELD = "field"


class EventLayer(enum.IntEnum):
    """The five layers of the CPS event model hierarchy (Figure 2).

    Ordered bottom-up; comparisons reflect the hierarchy (a sink node's
    output layer is *higher* than a mote's).
    """

    PHYSICAL = 0
    OBSERVATION = 1
    SENSOR = 2
    CYBER_PHYSICAL = 3
    CYBER = 4

    @property
    def observer_description(self) -> str:
        """Which hardware level produces entities of this layer."""
        return _LAYER_OBSERVERS[self]


_LAYER_OBSERVERS = {
    EventLayer.PHYSICAL: "the physical world itself",
    EventLayer.OBSERVATION: "sensors installed on sensor motes",
    EventLayer.SENSOR: "sensor motes (first-level observers)",
    EventLayer.CYBER_PHYSICAL: "WSN sink nodes (second-level observers)",
    EventLayer.CYBER: "CPS control units (highest-level observers)",
}


def temporal_class_of(when: TemporalEntity) -> TemporalClass:
    """Classify an occurrence time as punctual or interval."""
    if isinstance(when, TimePoint):
        return TemporalClass.PUNCTUAL
    if isinstance(when, TimeInterval):
        return TemporalClass.INTERVAL
    raise ReproError(f"not a temporal entity: {when!r}")


def spatial_class_of(where: SpatialEntity) -> SpatialClass:
    """Classify an occurrence location as point or field."""
    if isinstance(where, PointLocation):
        return SpatialClass.POINT
    if isinstance(where, Field):
        return SpatialClass.FIELD
    raise ReproError(f"not a spatial entity: {where!r}")


_NO_ATTRIBUTES: Mapping[str, object] = MappingProxyType({})


def freeze_attributes(attributes: Mapping[str, object] | None) -> Mapping[str, object]:
    """Read-only view of an attribute mapping (``V`` in the paper); every
    empty ``V`` is one shared mapping."""
    return MappingProxyType(dict(attributes)) if attributes else _NO_ATTRIBUTES


@dataclass(frozen=True)
class Event:
    """A generic spatio-temporal event ``Eid {t_o, l_o, V}`` (Eq. 4.1).

    Args:
        kind: The event *type* identifier ``E`` (e.g. ``"fire"``).
        event_id: The event ID ``id`` distinguishing occurrences of the
            same kind.
        occurrence_time: ``t_o`` — a time point (punctual event) or
            interval (interval event).
        occurrence_location: ``l_o`` — a location point (point event) or
            field (field event).
        attributes: ``V`` — the occurrence attribute set.
    """

    kind: str
    event_id: str
    occurrence_time: TemporalEntity
    occurrence_location: SpatialEntity
    attributes: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", freeze_attributes(self.attributes))

    @property
    def temporal_class(self) -> TemporalClass:
        """Whether this is a punctual or an interval event."""
        return temporal_class_of(self.occurrence_time)

    @property
    def spatial_class(self) -> SpatialClass:
        """Whether this is a point or a field event."""
        return spatial_class_of(self.occurrence_location)

    @property
    def layer(self) -> EventLayer:
        """Model layer; generic events default to the physical layer."""
        return EventLayer.PHYSICAL

    def attribute(self, name: str, default: object = None) -> object:
        """Value of one occurrence attribute (``V[name]``)."""
        return self.attributes.get(name, default)

    def describe(self) -> str:
        """One-line human-readable rendering of the event tuple."""
        return (
            f"{self.kind}#{self.event_id} "
            f"{{t_o={self.occurrence_time!r}, l_o={self.occurrence_location!r}, "
            f"V={dict(self.attributes)!r}}}"
        )


_physical_ids = itertools.count(1)


@dataclass(frozen=True)
class PhysicalEvent(Event):
    """A physical event ``P_id {t_o, l_o, V}`` (Eq. 5.1).

    Physical events "represent real occurrences in the physical world"
    and reside at the physical event layer; the simulator's ground-truth
    extractor produces them so detection accuracy can be scored against
    reality.
    """

    @property
    def layer(self) -> EventLayer:
        return EventLayer.PHYSICAL

    @staticmethod
    def fresh_id() -> str:
        """Process-unique physical event identifier (``P1``, ``P2``...)."""
        return f"P{next(_physical_ids)}"
