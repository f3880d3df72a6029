"""The output side: match in, event instance (Eq. 4.7) out.

An observer's output is one :class:`InstanceLog`: its emitted instances
kept as rows across columns, in the style of
:class:`~repro.detect.role_window.RoleWindow` on the way in.  Row ``i``
is

* ``key`` — the instance key ``(str(OB_id), E_id, i)`` of Eq. 4.6; the
  observer, its location ``l_g``, the layer and the instance class are
  the log's own;
* ``tick`` — ``t_g`` as an int;
* ``t_eo`` — an int tick when the writer estimated a
  :class:`~repro.core.time_model.TimePoint`, else the temporal object
  (an appended instance's own ``t_eo``);
* ``x`` / ``y`` — a centroid ``l_eo`` the writer computed, or ``NaN``
  with the location object in ``places`` (a bound entity's own location,
  a field, an appended instance's estimate);
* ``V``, ``rho`` and ``sources``.

There is one writer and one materializer.  The compiled emitter
(:func:`_compile_emitter`) turns a :class:`~repro.detect.engine.Match`
into the fields of one row, and :meth:`InstanceLog.write` appends them
without building an object, live and in replay; a ``locate(match)``
hook (a sink's trilateration) fills the row's ``x`` / ``y``.
:func:`build_instance`, ``log[i]``, slices and iteration build the
:class:`~repro.core.instance.EventInstance` from those fields, so two
reads of a row are equal, distinct objects; a live component reads its
new row back to distribute it.  :meth:`InstanceLog.append` turns a
finished instance into a row (the mote's interval tracker, which has no
match).  Keys, trace rows and per-layer counts read the columns.

The row writer keeps every check the object path makes: the fusion
rule's ``[0, 1]`` range and the finiteness of a computed centroid per
row, the observer id and layer once per log.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from types import MappingProxyType

from repro.core.aggregates import (
    _end_of,
    _point_of,
    _start_of,
    space_aggregate,
    time_aggregate,
    value_aggregate,
)
from repro.core.entity import confidence_of, entity_key, numeric_attribute
from repro.core.errors import ObserverError, SpatialError
from repro.core.event import EventLayer, freeze_attributes
from repro.core.instance import INSTANCE_LAYERS, EventInstance, ObserverId
from repro.core.space_model import PointLocation
from repro.core.spec import EventSpecification
from repro.core.time_model import EPOCH, TimeInterval, TimePoint
from repro.detect.confidence import fusion_rule
from repro.sim.trace import TraceRecord

__all__ = ["build_instance", "InstanceLog", "LogView"]

_NAN = math.nan


def _compile_emitter(spec: EventSpecification):
    """Lower ``spec.output`` into one closure ``match -> row``, the row
    being ``(t_eo, x, y, place, V, rho, sources)`` as the module
    docstring lays out (``t_eo`` still an object).  Aggregates, fusion
    rule and recipes are resolved by name here, once, and a binding of
    one or two entities takes ``earliest`` / ``latest`` / ``centroid`` as
    the aggregates' arithmetic written out."""
    policy = spec.output
    recipes = [
        (r.name, value_aggregate(r.aggregate), [(t.role, t.attribute) for t in r.terms])
        for r in policy.attributes
    ]
    no_attributes = freeze_attributes(None)
    fused = fusion_rule(policy.confidence)
    time_of = time_aggregate(policy.time)
    earliest, span = policy.time == "earliest", policy.time == "span"
    edge = _start_of if earliest else _end_of
    # "location" is the identity aggregate; over several entities it
    # degrades to their centroid.
    identity = policy.space == "location"
    place_of = space_aggregate("centroid" if identity else policy.space)
    centroid = policy.space in ("location", "centroid")
    isfinite = math.isfinite

    def emit(match):
        entities = match.entities()
        count = len(entities)
        attributes = no_attributes
        if recipes:
            attributes = {}
            for name, aggregate, terms in recipes:
                values: list[float] = []
                for role, attribute in terms:
                    bound = match.binding.get(role)
                    if bound is None:
                        raise ObserverError(
                            f"output attribute {name!r} references unbound "
                            f"role {role!r}"
                        )
                    group = bound if isinstance(bound, tuple) else (bound,)
                    values.extend([numeric_attribute(e, attribute) for e in group])
                attributes[name] = aggregate(values)
            attributes = MappingProxyType(attributes)
        rho = fused([confidence_of(e) for e in entities])
        place = entities[0].occurrence_location
        x = y = _NAN
        if identity and count == 1:
            pass  # the one entity's own location
        elif count > 2 or not centroid:
            place = place_of([e.occurrence_location for e in entities])
        else:
            # centroid_of_points' sums, term by term: the same floats,
            # and PointLocation's refusal of a non-finite result.
            p = place if type(place) is PointLocation else _point_of(place)
            if count == 2:
                q = entities[1].occurrence_location
                if type(q) is not PointLocation:
                    q = _point_of(q)
                x, y = (0 + p.x + q.x) / 2, (0 + p.y + q.y) / 2
            else:
                x, y = (0 + p.x) / 1, (0 + p.y) / 1
            if not (isfinite(x) and isfinite(y)):
                raise SpatialError(f"non-finite coordinate ({x}, {y})")
            place = None
        if count > 2 or span:
            when = time_of([e.occurrence_time for e in entities])
        else:
            when = entities[0].occurrence_time
            if type(when) is not TimePoint:
                when = edge(when)
            if count == 2:
                other = entities[1].occurrence_time
                if type(other) is not TimePoint:
                    other = edge(other)
                # Like min() / max(): of two equal operands, the first.
                if other < when if earliest else other > when:
                    when = other
        if not 0.0 <= rho <= 1.0:
            raise ObserverError(f"confidence rho must be in [0, 1], got {rho}")
        if count == 2:
            sources = (entity_key(entities[0]), entity_key(entities[1]))
        else:
            sources = tuple([entity_key(e) for e in entities])
        return when, x, y, place, attributes, rho, sources

    return emit


def _emitter_of(spec: EventSpecification):
    """The spec's row emitter, lowered on first use and cached on the
    (immutable) specification."""
    try:
        return spec._emitter
    except AttributeError:
        emit = _compile_emitter(spec)
        object.__setattr__(spec, "_emitter", emit)
        return emit


def _materialize(
    cls, observer, event_id, seq, generated_time, generated_location, layer,
    when, x, y, place, attributes, rho, sources,
) -> EventInstance:
    """The instance of one row: the only place rows become objects.
    Positional, in field order: matching eleven keywords costs a
    microsecond per instance.  ``when`` is the ``t_eo`` object (a row's
    int tick is read back as a point first).  A NaN ``x`` means
    ``place`` holds ``l_eo``, whatever it is (``None`` included)."""
    return cls(
        observer, event_id, seq, generated_time, generated_location, when,
        PointLocation(x, y) if x == x else place,
        attributes, rho, layer, sources,
    )


def build_instance(
    match,
    observer: ObserverId,
    seq: int,
    generated_time: TimePoint,
    generated_location: PointLocation,
    layer: EventLayer,
    instance_cls: type[EventInstance] = EventInstance,
) -> EventInstance:
    """Materialize the observer's output instance from a match.

    Applies the specification's :class:`~repro.core.spec.OutputPolicy`:
    ``t_eo`` from the policy's time aggregate over the bound entities,
    ``l_eo`` from its space aggregate, output attributes from their
    recipes, and ``rho`` by fusing the inputs' confidences.

    Args:
        match: The satisfied binding.
        observer: Identity of the emitting observer (``OB_id``).
        seq: Instance sequence number ``i`` at this observer.
        generated_time: ``t_g`` (the observer's current time).
        generated_location: ``l_g`` (the observer's position).
        layer: Hierarchy layer of the emitted instance.
        instance_cls: Concrete instance class
            (:class:`~repro.core.instance.SensorEventInstance`, ...).
    """
    spec = match.spec
    return _materialize(
        instance_cls, observer, spec.event_id, seq, generated_time,
        generated_location, layer, *_emitter_of(spec)(match),
    )


def _latency(tick: int, when) -> int:
    """:attr:`EventInstance.detection_latency` of a row."""
    if isinstance(when, int):
        return tick - when
    if type(when) is TimePoint:
        return tick - when.tick
    occurred = when.start if isinstance(when, TimeInterval) else when
    return TimePoint(tick) - occurred


class _Rows(Sequence):
    """Read access shared by the log and its views: indexing and
    iteration materialize, a slice is a list of instances, and equality
    is the equality of the materialized sequences."""

    __slots__ = ()

    def _span(self) -> range:
        raise NotImplementedError

    def _instance(self, i: int) -> EventInstance:
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self._span())

    def __getitem__(self, index):
        rows = self._span()[index]
        if isinstance(rows, range):
            return [self._instance(i) for i in rows]
        return self._instance(rows)

    def __iter__(self):
        instance = self._instance
        for i in self._span():
            yield instance(i)

    def __eq__(self, other) -> bool:
        if isinstance(other, (_Rows, list, tuple)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class LogView(_Rows):
    """Rows ``[start, stop)`` of an :class:`InstanceLog`, materialized
    only when read: what a replay's delivery step returns."""

    __slots__ = ("_log", "_rows")

    def __init__(self, log: "InstanceLog", start: int, stop: int):
        self._log = log
        self._rows = range(start, stop)

    def _span(self) -> range:
        return self._rows

    def _instance(self, i: int) -> EventInstance:
        return self._log._instance(i)


class InstanceLog(_Rows):
    """One observer's emitted instances, as rows across columns.

    Owns the emission sequence too: the per-event counters ``i`` of
    Eq. 4.6 (:meth:`next_seq`) and, for the instances its rows
    materialize as, one ``t_g`` object per tick and one point ``t_eo``
    object per run of equal ones.  A row keeps its instance's key
    ``(str(OB_id), E_id, i)``, and every instance read from the row
    carries that one tuple.

    Args:
        observer_id: ``OB_id`` of every row.
        location: ``l_g`` of every row.
        layer: Hierarchy layer of every row.
        instance_cls: Class rows materialize as.
    """

    def __init__(
        self,
        observer_id: ObserverId,
        location: PointLocation,
        layer: EventLayer,
        instance_cls: type[EventInstance],
    ):
        if not isinstance(observer_id, ObserverId):
            raise ObserverError(f"observer {observer_id!r} is not an ObserverId")
        if layer not in INSTANCE_LAYERS:
            raise ObserverError(
                f"event instances exist only at layers {INSTANCE_LAYERS}, "
                f"got {layer!r}"
            )
        self.observer_id = observer_id
        self.location = location
        self.layer = layer
        self.instance_cls = instance_cls
        self.counters: dict[str, int] = {}
        self._stamp = self._when = EPOCH
        self._keys: list[tuple[str, str, int]] = []
        self._ticks: list[int] = []
        self._times: list = []
        self._x = array("d")
        self._y = array("d")
        self._places: list = []
        self._attributes: list = []
        self._rhos: list = []
        self._sources: list[tuple] = []

    @classmethod
    def of(cls, observer) -> "InstanceLog":
        """The log of anything with ``observer_id``, ``location``,
        ``layer`` and ``instance_cls``: a live component or a replay's
        profile."""
        return cls(
            observer.observer_id, observer.location, observer.layer,
            observer.instance_cls,
        )

    def _span(self) -> range:
        return range(len(self._keys))

    def __len__(self) -> int:
        return len(self._keys)

    # -- writing -------------------------------------------------------

    def next_seq(self, event_id: str) -> int:
        """Next instance sequence number ``i`` for an event id."""
        seq = self.counters.get(event_id, 0)
        self.counters[event_id] = seq + 1
        return seq

    def write(self, match, locate=None) -> None:
        """Append the row of one match, generated at the match's tick,
        without building an instance.  A point ``locate(match)`` returns
        is the row's ``l_eo``; ``None`` keeps the output policy's."""
        spec = match.spec
        when, x, y, place, attributes, rho, sources = _emitter_of(spec)(match)
        if locate is not None:
            estimate = locate(match)
            if estimate is not None:
                x, y, place = estimate.x, estimate.y, None
        event_id = spec.event_id
        counters = self.counters
        seq = counters.get(event_id, 0)
        counters[event_id] = seq + 1
        self._keys.append((self.observer_id._text, event_id, seq))
        self._ticks.append(match.tick)
        self._times.append(when.tick if type(when) is TimePoint else when)
        self._x.append(x)
        self._y.append(y)
        self._places.append(place)
        self._attributes.append(attributes)
        self._rhos.append(rho)
        self._sources.append(sources)

    def append(self, instance: EventInstance) -> None:
        """Append a finished instance as a row.  It must be this log's
        observer's: its class, observer, layer and ``l_g``."""
        observer, location = instance.observer, instance.generated_location
        if (
            type(instance) is not self.instance_cls
            or (observer is not self.observer_id and observer != self.observer_id)
            or instance.layer is not self.layer
            or (location is not self.location and location != self.location)
        ):
            raise ObserverError(
                f"{instance!r} ({type(instance).__name__} at layer "
                f"{instance.layer.name}) was not generated by this log's "
                f"observer {self.observer_id!r}"
            )
        self._keys.append(instance.key)
        self._ticks.append(instance.generated_time.tick)
        self._times.append(instance.estimated_time)
        self._x.append(_NAN)
        self._y.append(_NAN)
        self._places.append(instance.estimated_location)
        self._attributes.append(instance.attributes)
        self._rhos.append(instance.confidence)
        self._sources.append(instance.sources)

    # -- reading -------------------------------------------------------

    def _row(
        self, key, tick, when, x, y, place, attributes, rho, sources
    ) -> EventInstance:
        stamp = self._stamp
        if stamp.tick != tick:
            stamp = self._stamp = TimePoint(tick)
        if type(when) is int:
            # Runs of rows share a point t_eo (a sink's burst of matches
            # of one earliest event): read them as one object too.
            if self._when.tick != when:
                self._when = TimePoint(when)
            when = self._when
        instance = _materialize(
            self.instance_cls, self.observer_id, key[1], key[2], stamp,
            self.location, self.layer, when, x, y, place, attributes, rho,
            sources,
        )
        object.__setattr__(instance, "key", key)  # equal; now shared
        return instance

    def _instance(self, i: int) -> EventInstance:
        return self._row(
            self._keys[i], self._ticks[i], self._times[i], self._x[i],
            self._y[i], self._places[i], self._attributes[i], self._rhos[i],
            self._sources[i],
        )

    def __iter__(self):
        return map(self._row, *self._columns())

    def since(self, start: int) -> LogView:
        """The rows appended from row ``start`` on, unmaterialized."""
        return LogView(self, start, len(self))

    def keys(self) -> list[tuple[str, str, int]]:
        """Every row's instance key ``(str(OB_id), E_id, i)``."""
        return list(self._keys)

    def payload(self, i: int) -> dict[str, object]:
        """Row ``i``'s ``instance.emit`` trace payload, as a live
        observer traces it and :meth:`trace_rows` renders it."""
        key = self._keys[i]
        return {
            "event_id": key[1],
            "seq": key[2],
            "layer": self.layer.name,
            "edl": _latency(self._ticks[i], self._times[i]),
            "rho": self._rhos[i],
        }

    def trace_rows(self, source: str) -> list[TraceRecord]:
        """Every row's ``instance.emit`` trace row, attributed to
        ``source``: the rows a live observer traced as it wrote them."""
        return [
            TraceRecord(tick, "instance.emit", source, self.payload(i))
            for i, tick in enumerate(self._ticks)
        ]

    # -- rewinding -----------------------------------------------------

    def truncate(self, count: int) -> None:
        """Keep the first ``count`` rows (a checkpoint's count)."""
        for column in self._columns():
            del column[count:]

    def clear(self) -> None:
        """Drop every row (the counters stay)."""
        self.truncate(0)

    def _columns(self) -> tuple:
        """Every column, in :meth:`_row`'s argument order."""
        return (
            self._keys, self._ticks, self._times, self._x, self._y,
            self._places, self._attributes, self._rhos, self._sources,
        )
