"""The compiled emitter against a plain by-name reference.

:func:`repro.detect.output.build_instance` lowers an
:class:`~repro.core.spec.OutputPolicy` once per specification into a
closure that writes one- and two-entity bindings out as straight-line
arithmetic.  ``reference_instance`` below is the interpreter it
replaced — every aggregate looked up by name on every call, no shape
knowledge — kept here as the oracle: for any policy and any binding
shape the emitter must return an instance equal field for field
(floats by ``==``), or raise the same exception class.
"""

from dataclasses import dataclass, fields

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregates import space_aggregate, time_aggregate, value_aggregate
from repro.core.conditions import AttributeTerm, ConfidenceCondition
from repro.core.entity import confidence_of, entity_key, numeric_attribute
from repro.core.errors import ObserverError, SpatialError
from repro.core.event import EventLayer
from repro.core.instance import (
    CyberPhysicalEventInstance,
    EventInstance,
    ObserverId,
    ObserverKind,
    PhysicalObservation,
    SensorEventInstance,
)
from repro.core.operators import RelationalOp
from repro.core.space_model import BoundingBox, Circle, PointLocation
from repro.core.spec import (
    EntitySelector,
    EventSpecification,
    OutputAttribute,
    OutputPolicy,
)
from repro.core.time_model import TimeInterval, TimePoint
from repro.detect.confidence import fuse
from repro.detect.engine import Match
from repro.detect.output import InstanceLog, build_instance
from repro.stream import ObserverProfile

pytestmark = pytest.mark.filterwarnings("error")

SINK = ObserverId(ObserverKind.SINK_NODE, "SK")
MOTE = ObserverId(ObserverKind.SENSOR_MOTE, "MT")


def reference_instance(
    match, observer, seq, generated_time, generated_location, layer, instance_cls
):
    """``build_instance`` as it was before the output side was lowered."""
    spec = match.spec
    entities = match.entities()
    policy = spec.output

    attributes = {}
    for recipe in policy.attributes:
        values = []
        for term in recipe.terms:
            bound = match.binding.get(term.role)
            if bound is None:
                raise ObserverError(f"unbound role {term.role!r}")
            group = bound if isinstance(bound, tuple) else (bound,)
            values.extend(numeric_attribute(e, term.attribute) for e in group)
        attributes[recipe.name] = value_aggregate(recipe.aggregate)(values)

    rho = fuse(policy.confidence, [confidence_of(e) for e in entities])
    space = policy.space
    if space == "location" and len(entities) > 1:
        space = "centroid"
    if space == "location":
        estimated_location = entities[0].occurrence_location
    else:
        estimated_location = space_aggregate(space)(
            [e.occurrence_location for e in entities]
        )
    return instance_cls(
        observer=observer,
        event_id=spec.event_id,
        seq=seq,
        generated_time=generated_time,
        generated_location=generated_location,
        estimated_time=time_aggregate(policy.time)(
            [e.occurrence_time for e in entities]
        ),
        estimated_location=estimated_location,
        attributes=attributes,
        confidence=rho,
        layer=layer,
        sources=tuple(entity_key(e) for e in entities),
    )


@dataclass(frozen=True)
class Probe:
    """An entity of no known species: it can carry what the two real
    ones refuse at construction (a confidence outside ``[0, 1]``)."""

    occurrence_time: object
    occurrence_location: object
    attributes: dict
    confidence: float


coordinates = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from(
    [0.0, -0.0, 1e-300, 0.1, 0.2, 0.3]
)
points = st.builds(PointLocation, coordinates, coordinates)
locations = (
    points
    | st.builds(Circle, points, st.floats(0.5, 50.0))
    | st.builds(
        lambda p, w, h: BoundingBox(p.x, p.y, p.x + w, p.y + h),
        points,
        st.floats(0.5, 50.0),
        st.floats(0.5, 50.0),
    )
)
ticks = st.integers(0, 200)
closed_times = st.builds(TimePoint, ticks) | st.builds(
    lambda start, length: TimeInterval(TimePoint(start), TimePoint(start + length)),
    ticks,
    st.integers(0, 30),
)
# The failing inputs (an open interval, a missing attribute, an unbound
# role, a confidence out of range) are each drawn about one time in
# eight, so about half the examples still reach the arithmetic.
rarely = st.integers(0, 7).map(lambda n: n == 0)
times = rarely.flatmap(
    lambda rare: st.builds(lambda start: TimeInterval(TimePoint(start), None), ticks)
    if rare
    else closed_times
)
# "w" is the attribute an entity may lack; a recipe over it then fails.
attribute_sets = st.fixed_dictionaries(
    {"v": st.floats(-100.0, 100.0) | st.integers(-5, 5)},
    optional={"w": st.floats(-100.0, 100.0)},
)
confidences = rarely.flatmap(
    lambda rare: st.sampled_from([1.5, -0.25]) if rare else st.floats(0.0, 1.0)
)


@st.composite
def entities(draw, index):
    species = draw(st.sampled_from(["observation", "instance", "probe"]))
    if species == "observation":
        return PhysicalObservation(
            f"MT{index}", "SR", index, draw(st.builds(TimePoint, ticks)),
            draw(locations), draw(attribute_sets),
        )
    if species == "instance":
        return SensorEventInstance(
            MOTE, "reading", index, TimePoint(300), PointLocation(0.0, 0.0),
            draw(times), draw(locations), draw(attribute_sets),
            draw(st.floats(0.0, 1.0)),
        )
    return Probe(
        draw(times), draw(locations), draw(attribute_sets), draw(confidences)
    )


@st.composite
def policies(draw, roles):
    recipes = []
    for i in range(draw(st.integers(0, 2))):
        terms = tuple(
            AttributeTerm(
                # "ghost" is a role no binding fills.
                "ghost" if draw(rarely) else draw(st.sampled_from(roles)),
                "w" if draw(rarely) else "v",
            )
            for _ in range(draw(st.integers(1, 2)))
        )
        aggregate = draw(
            st.sampled_from(
                ["average", "max", "min", "sum", "count", "median", "std",
                 "range", "first", "last"]
            )
        )
        recipes.append(OutputAttribute(f"out{i}", aggregate, terms))
    return OutputPolicy(
        time=draw(st.sampled_from(OutputPolicy._TIME_CHOICES)),
        space=draw(st.sampled_from(OutputPolicy._SPACE_CHOICES)),
        attributes=tuple(recipes),
        confidence=draw(st.sampled_from(OutputPolicy._CONFIDENCE_CHOICES)),
    )


@st.composite
def matches(draw):
    """A match of one of the shapes: 1, 2 or 3 single roles, one group
    role of 1-5 entities, or a single role beside such a group."""
    singles, group = draw(
        st.sampled_from([(1, False), (2, False), (3, False), (0, True), (1, True)])
    )
    roles = [f"r{i}" for i in range(singles)] + (["g"] if group else [])
    binding = {f"r{i}": draw(entities(i)) for i in range(singles)}
    if group:
        size = draw(st.integers(1, 5))
        binding["g"] = tuple(draw(entities(10 + i)) for i in range(size))
    spec = EventSpecification(
        event_id="emitted",
        selectors={role: EntitySelector() for role in roles},
        condition=ConfidenceCondition(roles[0], RelationalOp.GE, 0.0),
        output=draw(policies(roles)),
        group_roles={"g"} if group else (),
    )
    return Match(spec, binding, draw(ticks))


def outcome(build, match):
    arguments = (
        match, SINK, 7, TimePoint(match.tick), PointLocation(3.0, 4.0),
        EventLayer.CYBER_PHYSICAL, CyberPhysicalEventInstance,
    )
    try:
        return build(*arguments)
    except Exception as error:  # the class is what is compared
        return type(error)


@settings(max_examples=600, deadline=None)
@given(matches())
def test_emitter_equals_the_by_name_reference(match):
    got = outcome(build_instance, match)
    want = outcome(reference_instance, match)
    if isinstance(want, type):
        assert got is want
        return
    assert type(got) is type(want)
    for spec in fields(want):
        assert getattr(got, spec.name) == getattr(want, spec.name), spec.name
    assert dict(got.attributes) == dict(want.attributes)


def written(match, observer, seq, generated_time, location, layer, instance_cls):
    """:func:`build_instance`'s signature through a log's row writer: the
    row of the match, read back.  A refused match leaves the log as it
    was."""
    log = InstanceLog(observer, location, layer, instance_cls)
    log.counters[match.spec.event_id] = seq
    try:
        log.write(match)
    except Exception:
        assert len(log) == 0 and log.counters == {match.spec.event_id: seq}
        raise
    try:
        (instance,) = log
    except Exception as error:  # the writer must refuse what cannot be read
        raise AssertionError(f"a written row does not read back: {error!r}")
    return instance


@settings(max_examples=600, deadline=None)
@given(matches())
def test_a_written_row_reads_back_as_the_by_name_reference(match):
    got = outcome(written, match)
    want = outcome(reference_instance, match)
    if isinstance(want, type):
        assert got is want
        return
    assert got == want and type(got) is type(want)
    assert got.sources == want.sources and got.key == want.key


@pytest.mark.parametrize("build", [build_instance, written], ids=["built", "written"])
def test_a_centroid_that_overflows_is_refused_like_a_point(build):
    # Written, it is refused by the writer: no row, nothing numbered.
    spec = EventSpecification(
        event_id="far",
        selectors={role: EntitySelector() for role in ("a", "b")},
        condition=ConfidenceCondition("a", RelationalOp.GE, 0.0),
    )
    far = [
        PhysicalObservation(
            f"MT{i}", "SR", 0, TimePoint(1), PointLocation(1.5e308, 0.0), {}
        )
        for i in range(2)
    ]
    match = Match(spec, dict(zip("ab", far)), 1)
    assert outcome(reference_instance, match) is SpatialError
    assert outcome(build, match) is SpatialError


@pytest.mark.parametrize("build", [build_instance, written], ids=["built", "written"])
def test_the_identity_policy_passes_a_missing_location_through(build):
    # A row tells a computed centroid from a kept location by its
    # coordinates, not by the location being None.
    spec = EventSpecification(
        event_id="bare",
        selectors={"a": EntitySelector()},
        condition=ConfidenceCondition("a", RelationalOp.GE, 0.0),
        output=OutputPolicy(space="location"),
    )
    match = Match(spec, {"a": Probe(TimePoint(1), None, {}, 0.5)}, 3)
    want = outcome(reference_instance, match)
    assert want.estimated_location is None
    assert outcome(build, match) == want


def test_the_emitter_is_compiled_once_per_specification():
    spec = EventSpecification(
        event_id="one",
        selectors={"a": EntitySelector()},
        condition=ConfidenceCondition("a", RelationalOp.GE, 0.0),
    )
    entity = PhysicalObservation(
        "MT", "SR", 0, TimePoint(1), PointLocation(0.0, 0.0), {"v": 1.0}
    )
    match = Match(spec, {"a": entity}, 1)
    log = InstanceLog.of(
        ObserverProfile(
            "MT", MOTE, PointLocation(0.0, 0.0), EventLayer.SENSOR,
            SensorEventInstance, (spec,),
        )
    )
    first = log.build(match)
    emitter = spec._emitter
    second = log.build(match)
    assert spec._emitter is emitter
    assert (first.seq, second.seq) == (0, 1)
    assert isinstance(first, EventInstance) and first.sources == (entity.key,)
