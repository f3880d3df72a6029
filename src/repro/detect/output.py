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
hook (a sink's trilateration) fills the row's ``x`` / ``y``.  The
emitter is lowered to the spec's shape: a one- or two-role spec (every
registered pair, gate and mote spec) reads its entities by role and
fuses, times and locates them in straight-line code, and a spec without
a group role keeps the engine's binding identity (``match.key``) as the
row's ``sources``, so the dedup map and the log hold one tuple.
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
from repro.detect.confidence import fusion_rule, outside_unit_interval
from repro.sim.trace import TraceRecord

__all__ = ["build_instance", "InstanceLog"]

_NAN = math.nan


def _compile_emitter(spec: EventSpecification):
    """Lower ``spec.output`` into one closure ``match -> row``, the row
    being ``(t_eo, x, y, place, V, rho, sources)`` as the module
    docstring lays out (``t_eo`` still an object).

    Aggregates, fusion rule and recipes are resolved by name here, once,
    and so is the match's shape.  A spec without a group role binds
    exactly ``len(spec.roles)`` entities, which the closure fetches by
    role from ``match.binding``; with one or two roles it computes the
    fusion rule, ``earliest`` / ``latest`` and the centroid as
    straight-line arithmetic over that count: ``float()`` and the range
    check on each confidence, then the rule and its clamp, the same
    floats as :func:`~repro.detect.confidence.fusion_rule` and the
    aggregates, and the same error classes in the same order.  Its
    ``sources`` are ``match.key``, the binding identity the engine
    deduplicated on, which for such a spec is the tuple of the entities'
    provenance keys in role order; a hand-built match without one gets
    it computed.  Three roles or more, and any spec with a group role,
    go through the aggregates over :meth:`Match.entities
    <repro.detect.engine.Match.entities>`' order, and a group role's
    ``sources`` are always the flat provenance tuple."""
    policy = spec.output
    roles = spec.roles
    recipes = [
        (r.name, value_aggregate(r.aggregate), [(t.role, t.attribute) for t in r.terms])
        for r in policy.attributes
    ]
    no_attributes = freeze_attributes(None)
    method = policy.confidence
    fused = fusion_rule(method)
    time_of = time_aggregate(policy.time)
    earliest, span = policy.time == "earliest", policy.time == "span"
    edge = _start_of if earliest else _end_of
    # "location" is the identity aggregate; over several entities it
    # degrades to their centroid.
    identity = policy.space == "location"
    place_of = space_aggregate("centroid" if identity else policy.space)
    centroid = policy.space in ("location", "centroid")
    isfinite = math.isfinite

    def attributes_of(binding):
        attributes = {}
        for name, aggregate, terms in recipes:
            values: list[float] = []
            for role, attribute in terms:
                bound = binding.get(role)
                if bound is None:
                    raise ObserverError(
                        f"output attribute {name!r} references unbound "
                        f"role {role!r}"
                    )
                group = bound if isinstance(bound, tuple) else (bound,)
                values.extend([numeric_attribute(e, attribute) for e in group])
            attributes[name] = aggregate(values)
        return MappingProxyType(attributes)

    if spec.group_roles or len(roles) > 2:
        grouped = bool(spec.group_roles)

        def emit(match):
            binding = match.binding
            if grouped:
                entities = match.entities()
            else:
                entities = [binding[role] for role in roles]
            attributes = attributes_of(binding) if recipes else no_attributes
            rho = fused([confidence_of(e) for e in entities])
            if identity and len(entities) == 1:
                place = entities[0].occurrence_location
            else:
                place = place_of([e.occurrence_location for e in entities])
            when = time_of([e.occurrence_time for e in entities])
            if not 0.0 <= rho <= 1.0:
                raise ObserverError(f"confidence rho must be in [0, 1], got {rho}")
            sources = None if grouped else match.key
            if sources is None:
                sources = tuple([entity_key(e) for e in entities])
            return when, _NAN, _NAN, place, attributes, rho, sources

        return emit

    if len(roles) == 1:
        (role,) = roles
        noisy_or = method == "noisy_or"

        def emit(match):
            binding = match.binding
            a = binding[role]
            attributes = attributes_of(binding) if recipes else no_attributes
            rho = float(getattr(a, "confidence", 1.0))
            if not 0.0 <= rho <= 1.0:
                raise outside_unit_interval((rho,))
            if noisy_or:
                rho = 1.0 - (1.0 - rho)  # not rho itself in floats
            if not 0.0 < rho <= 1.0:
                rho = min(1.0, max(0.0, rho))
            place = a.occurrence_location
            x = y = _NAN
            if identity:
                pass  # the one entity's own location
            elif centroid:
                # centroid_of_points' sum, from its int 0: -0.0 reads 0.0.
                p = place if type(place) is PointLocation else _point_of(place)
                x, y = 0 + p.x, 0 + p.y
                if not (isfinite(x) and isfinite(y)):
                    raise SpatialError(f"non-finite coordinate ({x}, {y})")
                place = None
            else:
                place = place_of([place])
            when = a.occurrence_time
            if span:
                when = time_of([when])
            elif type(when) is not TimePoint:
                when = edge(when)
            if not 0.0 <= rho <= 1.0:
                raise ObserverError(f"confidence rho must be in [0, 1], got {rho}")
            sources = match.key
            if sources is None:
                sources = (entity_key(a),)
            return when, x, y, place, attributes, rho, sources

        return emit

    first, second = roles
    mean, least, product = method == "mean", method == "min", method == "product"

    def emit(match):
        binding = match.binding
        a = binding[first]
        b = binding[second]
        attributes = attributes_of(binding) if recipes else no_attributes
        ra = float(getattr(a, "confidence", 1.0))
        rb = float(getattr(b, "confidence", 1.0))
        if not (0.0 <= ra <= 1.0 and 0.0 <= rb <= 1.0):
            raise outside_unit_interval((ra, rb))
        # The four rules over two values, then fusion_rule's clamp, which
        # also reads a -0.0 (0.0 >= -0.0 passes the check) as 0.0.
        if mean:
            rho = (ra + rb) / 2
        elif least:
            rho = rb if rb < ra else ra  # like min(): of equals, the first
        elif product:
            rho = ra * rb
        else:
            rho = 1.0 - (1.0 - ra) * (1.0 - rb)
        if not 0.0 < rho <= 1.0:
            rho = min(1.0, max(0.0, rho))
        x = y = _NAN
        if centroid:
            # centroid_of_points' sums, term by term: the same floats,
            # and PointLocation's refusal of a non-finite result.
            p = a.occurrence_location
            if type(p) is not PointLocation:
                p = _point_of(p)
            q = b.occurrence_location
            if type(q) is not PointLocation:
                q = _point_of(q)
            x, y = (0 + p.x + q.x) / 2, (0 + p.y + q.y) / 2
            if not (isfinite(x) and isfinite(y)):
                raise SpatialError(f"non-finite coordinate ({x}, {y})")
            place = None
        else:
            place = place_of([a.occurrence_location, b.occurrence_location])
        when, other = a.occurrence_time, b.occurrence_time
        if span:
            when = time_of([when, other])
        else:
            if type(when) is not TimePoint:
                when = edge(when)
            if type(other) is not TimePoint:
                other = edge(other)
            # Like min() / max(): of two equal operands, the first.  Two
            # points order by tick, which is TimePoint's own order.
            if type(when) is TimePoint and type(other) is TimePoint:
                t, u = when.tick, other.tick
                if u < t if earliest else u > t:
                    when = other
            elif other < when if earliest else other > when:
                when = other
        if not 0.0 <= rho <= 1.0:
            raise ObserverError(f"confidence rho must be in [0, 1], got {rho}")
        sources = match.key
        if sources is None:
            sources = (entity_key(a), entity_key(b))
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


class InstanceLog(Sequence):
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

    def __getitem__(self, index):
        """Row ``index`` as an instance; a slice is a list of them."""
        if isinstance(index, slice):
            return [self._instance(i) for i in range(len(self))[index]]
        return self._instance(range(len(self))[index])

    def __iter__(self):
        return map(self._row, *self._columns())

    def __eq__(self, other) -> bool:
        """Equal to a log, list or tuple of equal instances."""
        if isinstance(other, (InstanceLog, list, tuple)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"InstanceLog({list(self)!r})"

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
