"""Observers, physical observations and event instances (Defs 4.3, 4.4).

The paper separates an *event* (an occurrence in the world, Eq. 4.1)
from an *event instance* (the record an observer produces when its event
conditions evaluate true, Eq. 4.6).  An instance is named by the 3-tuple

.. math:: E(OB_{id}, E_{id}, i)

— the observer, the event identifier and a per-observer sequence number —
and carries the six properties of Eq. 4.7:

* ``t_g`` / ``l_g``: when/where the **observer generated** the instance;
* ``t_eo`` / ``l_eo``: the **estimated occurrence** time/location of the
  underlying event, from the observer's point of view;
* ``V``: the estimated occurrence attributes;
* ``rho``: the observer's confidence in the instance.

Keeping ``t_eo`` / ``l_eo`` distinct from ``t_g`` / ``l_g`` is what lets
the model "keep the information regarding the original physical event
intact" while instances climb the hierarchy, and it is what the Event
Detection Latency analysis (EDL = ``t_g - t_eo``) is built on.

:class:`PhysicalObservation` (Eq. 5.2) is the layer-0 entity: the raw
snapshot ``O(MT_id, SR_id, i) {t_o, l_o, V}`` a sensor takes of the
physical world.  Observations are *not* produced by observers (a bare
sensor "is not capable of processing this captured data based on the
event conditions, so it is not considered an observer" — Def. 4.3).

Layer-specific aliases :class:`SensorEventInstance` (Eq. 5.3),
:class:`CyberPhysicalEventInstance` (Eq. 5.4) and
:class:`CyberEventInstance` (Eq. 5.5) tag instances with the hierarchy
level that produced them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.construction import slot_init
from repro.core.errors import ObserverError
from repro.core.event import (
    EventLayer,
    SpatialClass,
    TemporalClass,
    freeze_attributes,
    spatial_class_of,
    temporal_class_of,
)
from repro.core.space_model import PointLocation, SpatialEntity
from repro.core.time_model import TemporalEntity, TimeInterval, TimePoint

__all__ = [
    "ObserverKind",
    "ObserverId",
    "PhysicalObservation",
    "EventInstance",
    "SensorEventInstance",
    "CyberPhysicalEventInstance",
    "CyberEventInstance",
    "INSTANCE_LAYERS",
]


class ObserverKind(enum.Enum):
    """The kinds of observers the architecture defines (Section 3)."""

    SENSOR_MOTE = "mote"
    SINK_NODE = "sink"
    DISPATCH_NODE = "dispatch"
    CCU = "ccu"
    HUMAN = "human"


@dataclass(frozen=True, order=True)
class ObserverId:
    """Identifier ``OB_id`` of an observer (Definition 4.3).

    Its canonical text ``kind:name`` (its ``repr``) names it inside every
    instance key and trace row, so text and hash are computed once, here;
    equality and order stay the generated ``(kind, name)`` comparisons.
    A name may not contain ``:``, so the text splits one way only.
    """

    kind: ObserverKind
    name: str

    def __post_init__(self) -> None:
        if ":" in self.name:
            raise ObserverError(f"observer name {self.name!r} contains ':'")
        object.__setattr__(self, "_hash", hash((self.kind, self.name)))
        object.__setattr__(self, "_text", f"{self.kind.value}:{self.name}")

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return self._text


@slot_init
@dataclass(frozen=True, slots=True)
class PhysicalObservation:
    """A physical observation ``O(MT_id, SR_id, i) {t_o, l_o, V}`` (Eq. 5.2).

    The snapshot sensor ``sensor_id`` (installed on mote ``mote_id``)
    takes of the physical world at sampling time ``t_o``; ``l_o`` is the
    sensing location (the mote position for in-situ sensors) and ``V``
    holds the sampled attribute(s).

    Args:
        mote_id: Name of the mote carrying the sensor (``MT_id``).
        sensor_id: Name of the sensor on that mote (``SR_id``).
        seq: Observation sequence number ``i`` (per sensor).
        time: Sampling timestamp ``t_o``.
        location: Sampling spacestamp ``l_o``.
        attributes: Sampled values ``V`` keyed by phenomenon name.
    """

    mote_id: str
    sensor_id: str
    seq: int
    time: TimePoint
    location: PointLocation
    attributes: Mapping[str, object] = field(default_factory=dict)
    key: tuple[str, str, int] = field(init=False, repr=False, compare=False)
    """The identifying 3-tuple ``(MT_id, SR_id, i)``, built once."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", freeze_attributes(self.attributes))
        object.__setattr__(self, "key", (self.mote_id, self.sensor_id, self.seq))

    @property
    def occurrence_time(self) -> TimePoint:
        """Uniform entity accessor: an observation's time is ``t_o``."""
        return self.time

    @property
    def occurrence_location(self) -> PointLocation:
        """Uniform entity accessor: an observation's location is ``l_o``."""
        return self.location

    @property
    def confidence(self) -> float:
        """Raw observations carry no observer judgement; confidence 1."""
        return 1.0

    def __repr__(self) -> str:
        return f"O({self.mote_id},{self.sensor_id},{self.seq})@{self.time!r}"


INSTANCE_LAYERS = (
    EventLayer.SENSOR,
    EventLayer.CYBER_PHYSICAL,
    EventLayer.CYBER,
)
"""Layers at which observers emit event instances (Figure 2)."""


@slot_init
@dataclass(frozen=True, slots=True)
class EventInstance:
    """An event instance ``E(OB_id, E_id, i)`` with its 6-tuple (Eq. 4.7).

    Args:
        observer: The observer that evaluated the event conditions.
        event_id: The event (type) identifier ``E_id`` the conditions
            belong to.
        seq: Sequence number ``i`` of this instance at this observer.
        generated_time: ``t_g`` — when the observer generated it.
        generated_location: ``l_g`` — where the observer was.
        estimated_time: ``t_eo`` — estimated occurrence time of the
            underlying event (point or interval).
        estimated_location: ``l_eo`` — estimated occurrence location
            (point or field).
        attributes: ``V`` — estimated occurrence attributes.
        confidence: ``rho`` in ``[0, 1]``.
        layer: Which hierarchy layer this instance belongs to.
        sources: Keys of the entities the observer evaluated (provenance;
            keeps the original physical event traceable up the stack;
            an instance among them is named by its observer's text).
    """

    observer: ObserverId
    event_id: str
    seq: int
    generated_time: TimePoint
    generated_location: PointLocation
    estimated_time: TemporalEntity
    estimated_location: SpatialEntity
    attributes: Mapping[str, object] = field(default_factory=dict)
    confidence: float = 1.0
    layer: EventLayer = EventLayer.SENSOR
    sources: tuple = ()
    key: tuple[str, str, int] = field(init=False, repr=False, compare=False)
    """The identifying 3-tuple ``(str(OB_id), E_id, i)`` (Eq. 4.6), built
    once: strings and ints only, so the cyclic collector stops tracking it."""

    def __post_init__(self) -> None:
        if not isinstance(self.observer, ObserverId):
            raise ObserverError(f"observer {self.observer!r} is not an ObserverId")
        if not isinstance(self.event_id, str):
            raise ObserverError(f"event id {self.event_id!r} is not a str")
        if type(self.seq) is not int or self.seq < 0:
            raise ObserverError(f"seq must be an int >= 0, got {self.seq!r}")
        if not isinstance(self.generated_time, TimePoint):
            raise ObserverError(
                f"generated time t_g {self.generated_time!r} is not a TimePoint"
            )
        object.__setattr__(self, "attributes", freeze_attributes(self.attributes))
        object.__setattr__(self, "key", (self.observer._text, self.event_id, self.seq))
        if not 0.0 <= self.confidence <= 1.0:
            raise ObserverError(
                f"confidence rho must be in [0, 1], got {self.confidence}"
            )
        if self.layer not in INSTANCE_LAYERS:
            raise ObserverError(
                f"event instances exist only at layers {INSTANCE_LAYERS}, "
                f"got {self.layer!r}"
            )

    @property
    def occurrence_time(self) -> TemporalEntity:
        """Uniform entity accessor: an instance's time is ``t_eo``."""
        return self.estimated_time

    @property
    def occurrence_location(self) -> SpatialEntity:
        """Uniform entity accessor: an instance's location is ``l_eo``."""
        return self.estimated_location

    @property
    def temporal_class(self) -> TemporalClass:
        """Punctual or interval, judged on the estimated occurrence."""
        return temporal_class_of(self.estimated_time)

    @property
    def spatial_class(self) -> SpatialClass:
        """Point or field, judged on the estimated occurrence."""
        return spatial_class_of(self.estimated_location)

    @property
    def detection_latency(self) -> int:
        """Event Detection Latency: ticks from occurrence to generation.

        For interval estimates the latency is measured from the interval
        start (the earliest instant the event existed).  This is the
        quantity the paper's future-work EDL analysis studies.
        """
        occurred = (
            self.estimated_time.start
            if isinstance(self.estimated_time, TimeInterval)
            else self.estimated_time
        )
        return self.generated_time - occurred

    def attribute(self, name: str, default: object = None) -> object:
        """Value of one estimated occurrence attribute."""
        return self.attributes.get(name, default)

    def describe(self) -> str:
        """One-line rendering mirroring Eq. 4.7."""
        return (
            f"E({self.observer!r},{self.event_id},{self.seq}) "
            f"{{t_g={self.generated_time!r}, l_g={self.generated_location!r}, "
            f"t_eo={self.estimated_time!r}, l_eo={self.estimated_location!r}, "
            f"V={dict(self.attributes)!r}, rho={self.confidence:.3f}}}"
        )

    def __repr__(self) -> str:
        return f"E({self.observer!r},{self.event_id},{self.seq})"


@slot_init
@dataclass(frozen=True, slots=True)
class SensorEventInstance(EventInstance):
    """A sensor event ``S(MT_id, S_id, i)`` (Eq. 5.3).

    Emitted by a sensor mote — the first-level observer — from one or
    more physical observations.
    """

    layer: EventLayer = EventLayer.SENSOR


@slot_init
@dataclass(frozen=True, slots=True)
class CyberPhysicalEventInstance(EventInstance):
    """A cyber-physical event ``CP(MT_id, CP_id, i)`` (Eq. 5.4).

    Emitted by a WSN sink node — the second-level observer — from sensor
    event instances collected over its sensor network.
    """

    layer: EventLayer = EventLayer.CYBER_PHYSICAL


@slot_init
@dataclass(frozen=True, slots=True)
class CyberEventInstance(EventInstance):
    """A cyber event ``E(CCU_id, E_id, i)`` (Eq. 5.5).

    Emitted by a CPS control unit — the highest-level observer — from
    cyber-physical event instances and other CCUs' cyber events.
    """

    layer: EventLayer = EventLayer.CYBER
