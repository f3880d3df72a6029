"""The value classes' ``__init__`` against the one ``dataclass`` generates.

:func:`~repro.core.construction.slot_init` replaces the generated
``__init__`` of the frozen slotted value classes with one that stores
each field through its slot descriptor.  The oracle is each class made
again by :func:`dataclasses.make_dataclass` from the same fields and the
same ``__post_init__``, with the generated ``__init__`` left in place:
the two must take the same parameters (names, order, defaults,
annotations), build the same field values from positional and keyword
calls alike, fill a ``default_factory`` the same way, and refuse the
same inputs with the same error class and message.
"""

import dataclasses
import importlib
import inspect
import math
import pkgutil

import pytest
from hypothesis import given, strategies as st

import repro
from repro.core.construction import slot_init
from repro.core.errors import ObserverError, SpatialError, TemporalError
from repro.core.event import EventLayer
from repro.core.instance import (
    CyberEventInstance,
    CyberPhysicalEventInstance,
    EventInstance,
    ObserverId,
    ObserverKind,
    PhysicalObservation,
    SensorEventInstance,
)
from repro.core.space_model import PointLocation
from repro.core.time_model import TimeInterval, TimePoint
from repro.detect.engine import Match

SINK = ObserverId(ObserverKind.SINK_NODE, "SK")
HERE = PointLocation(0.0, 0.0)
INSTANCES = (
    EventInstance, SensorEventInstance, CyberPhysicalEventInstance,
    CyberEventInstance,
)
TAKEN = (Match, PointLocation, TimePoint, PhysicalObservation, *INSTANCES)


def reference_of(cls):
    """``cls`` made again by ``dataclass`` alone: the same fields, the
    same ``__post_init__``, the generated ``__init__``."""
    params = cls.__dataclass_params__
    specs = []
    for f in dataclasses.fields(cls):
        options = dict(init=f.init, repr=f.repr, compare=f.compare)
        if f.default is not dataclasses.MISSING:
            options["default"] = f.default
        if f.default_factory is not dataclasses.MISSING:
            options["default_factory"] = f.default_factory
        specs.append((f.name, f.type, dataclasses.field(**options)))
    namespace = {}
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    return dataclasses.make_dataclass(
        cls.__name__, specs, namespace=namespace,
        frozen=True, slots=True, order=params.order,
    )


REFERENCE = {cls: reference_of(cls) for cls in TAKEN}


def values(value):
    """Every field's value, ``init=False`` fields included."""
    return tuple(getattr(value, f.name) for f in dataclasses.fields(value))


def build(cls, args, kwargs):
    """``(field values, None)`` of ``cls(*args, **kwargs)``, or
    ``(None, (error class, message))`` of its refusal."""
    try:
        return values(cls(*args, **kwargs)), None
    except Exception as error:  # the refusal is the result
        return None, (type(error), str(error))


def agree(cls, *args, **kwargs):
    """``cls`` and its reference build equal values or refuse alike;
    returns the outcome."""
    got = build(cls, args, kwargs)
    assert got == build(REFERENCE[cls], args, kwargs), (cls.__name__, args, kwargs)
    return got


def instance_args(layer=EventLayer.SENSOR):
    return [
        SINK, "e", 0, TimePoint(3), HERE, TimePoint(2), PointLocation(1.0, 0.0),
        {"v": 1.0}, 0.5, layer, ("MT1", "SR", 0),
    ]


def valid_args(cls):
    """One positional argument list per class, every parameter given."""
    if cls is Match:
        return ["spec", {"a": "entity"}, 4, ("a",)]
    if cls is PointLocation:
        return [1.5, -2.0]
    if cls is TimePoint:
        return [7]
    if cls is PhysicalObservation:
        return ["MT1", "SR", 2, TimePoint(3), PointLocation(1.0, 2.0), {"v": 1.0}]
    return instance_args()


def test_every_class_the_helper_takes_is_checked_here():
    taken = set()
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        for value in vars(importlib.import_module(module.name)).values():
            code = getattr(getattr(value, "__init__", None), "__code__", None)
            if isinstance(value, type) and code and code.co_filename.startswith("<slot_init"):
                taken.add(value)
    assert taken == set(TAKEN)


@pytest.mark.parametrize("cls", TAKEN, ids=lambda cls: cls.__name__)
def test_the_signature_is_the_generated_one(cls):
    assert inspect.signature(cls) == inspect.signature(REFERENCE[cls])
    init = [f for f in dataclasses.fields(cls) if f.init]
    parameters = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in parameters] == [f.name for f in init]
    for p, f in zip(parameters, init):
        if f.default is not dataclasses.MISSING:
            assert p.default is f.default
        elif f.default_factory is dataclasses.MISSING:
            assert p.default is inspect.Parameter.empty
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


@pytest.mark.parametrize("cls", TAKEN, ids=lambda cls: cls.__name__)
def test_positional_keyword_and_defaulted_calls_build_the_same_values(cls):
    args = valid_args(cls)
    names = list(inspect.signature(cls).parameters)
    built, refused = agree(cls, *args)
    assert refused is None
    assert agree(cls, **dict(zip(names, args))) == (built, None)
    # Half positional, half by keyword.
    half = len(args) // 2
    assert agree(cls, *args[:half], **dict(zip(names[half:], args[half:]))) == (
        built, None,
    )
    # Every default left out.
    required = [
        p.name for p in inspect.signature(cls).parameters.values()
        if p.default is inspect.Parameter.empty
    ]
    assert agree(cls, *args[: len(required)])[1] is None
    assert cls(*args) == cls(**dict(zip(names, args)))


@pytest.mark.parametrize("cls", TAKEN, ids=lambda cls: cls.__name__)
def test_a_call_the_generated_init_refuses_is_refused_alike(cls):
    args = valid_args(cls)
    names = list(inspect.signature(cls).parameters)
    for bad_args, bad_kwargs in (
        (args[:-1] if len(args) == 1 else args[:1], {}),  # too few
        ([*args, None], {}),  # too many
        (args, {"unknown": 1}),
        (args, {names[0]: args[0]}),  # given twice
    ):
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)
        with pytest.raises(TypeError):
            REFERENCE[cls](*bad_args, **bad_kwargs)


@pytest.mark.parametrize("cls", INSTANCES, ids=lambda cls: cls.__name__)
def test_each_layer_class_keeps_its_own_layer_default(cls):
    layer = {
        EventInstance: EventLayer.SENSOR,
        SensorEventInstance: EventLayer.SENSOR,
        CyberPhysicalEventInstance: EventLayer.CYBER_PHYSICAL,
        CyberEventInstance: EventLayer.CYBER,
    }[cls]
    instance = cls(*instance_args()[:7])
    assert instance.layer is layer
    assert instance.attributes == {} and instance.confidence == 1.0
    assert instance.sources == ()
    assert values(instance) == agree(cls, *instance_args()[:7])[0]
    assert inspect.signature(cls).parameters["layer"].default is layer


@pytest.mark.parametrize("cls", TAKEN, ids=lambda cls: cls.__name__)
def test_replace_round_trips(cls):
    value = cls(*valid_args(cls))
    assert dataclasses.replace(value) == value
    assert values(dataclasses.replace(value)) == values(value)
    first = dataclasses.fields(cls)[0]
    other = valid_args(cls)
    other[0] = {
        Match: "other spec", PointLocation: 9.0, TimePoint: 8,
        PhysicalObservation: "MT9",
    }.get(cls, ObserverId(ObserverKind.CCU, "C"))
    changed = dataclasses.replace(value, **{first.name: other[0]})
    assert type(changed) is cls
    assert values(changed) == values(cls(*other))


@pytest.mark.parametrize("cls", TAKEN, ids=lambda cls: cls.__name__)
def test_the_value_stays_frozen_and_slotted(cls):
    value = cls(*valid_args(cls))
    assert not hasattr(value, "__dict__")
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, f.name)


def test_a_default_factory_runs_per_call():
    observation = PhysicalObservation("MT1", "SR", 0, TimePoint(1), HERE)
    assert observation.attributes == {}
    assert values(observation) == agree(
        PhysicalObservation, "MT1", "SR", 0, TimePoint(1), HERE
    )[0]

    @slot_init
    @dataclasses.dataclass(frozen=True, slots=True)
    class Bag:
        name: str
        items: list = dataclasses.field(default_factory=list)

    a, b = Bag("a"), Bag("b")
    assert a.items == [] and a.items is not b.items
    given_items = [1]
    assert Bag("c", given_items).items is given_items


# -- the refusals: same class, same message ---------------------------------


def test_named_refusals_keep_their_error_classes():
    refusals = [
        (PointLocation, [math.nan, 0.0], {}, SpatialError),
        (PointLocation, [0.0, math.inf], {}, SpatialError),
        (TimePoint, [1.5], {}, TemporalError),
        (TimePoint, ["3"], {}, TemporalError),
    ]
    for cls in INSTANCES:
        for name, bad in (
            ("seq", -1), ("seq", True), ("confidence", 1.5), ("confidence", -0.1),
            ("generated_time", 3), ("observer", "sink:SK"), ("event_id", 1),
            ("layer", EventLayer.PHYSICAL), ("layer", EventLayer.OBSERVATION),
        ):
            refusals.append((cls, instance_args(), {name: bad}, ObserverError))
    for cls, args, overrides, error in refusals:
        names = list(inspect.signature(cls).parameters)
        kwargs = {**dict(zip(names, args)), **overrides}
        built, refused = agree(cls, **kwargs)
        assert built is None and refused[0] is error, (cls.__name__, overrides)
        with pytest.raises(error):
            cls(**kwargs)


coordinates = st.floats(allow_nan=True, allow_infinity=True) | st.integers(-5, 5)
ticks = st.integers(-(2**40), 2**40) | st.floats(allow_nan=True) | st.booleans()


@given(x=coordinates, y=coordinates, tick=ticks)
def test_points_and_ticks_agree_with_the_generated_init(x, y, tick):
    agree(PointLocation, x, y)
    agree(PointLocation, y=y, x=x)
    agree(TimePoint, tick)
    agree(TimePoint, tick=tick)


@given(
    seq=st.integers(-2, 3) | st.booleans() | st.floats(-1, 3),
    confidence=st.floats(-0.5, 1.5) | st.floats(allow_nan=True),
    when=st.sampled_from([TimePoint(2), 2, TimeInterval(TimePoint(1), TimePoint(2))]),
    layer=st.sampled_from(list(EventLayer)),
    attributes=st.none() | st.dictionaries(st.sampled_from("uvw"), st.floats()),
    cls=st.sampled_from(INSTANCES),
)
def test_instances_agree_with_the_generated_init(
    seq, confidence, when, layer, attributes, cls
):
    args = [SINK, "e", seq, when, HERE, TimePoint(1), HERE, attributes, confidence, layer]
    agree(cls, *args)
    agree(cls, *args[:7], confidence=confidence, layer=layer)


# -- the helper's own refusals ----------------------------------------------


def test_the_helper_refuses_what_it_does_not_rewrite():
    @dataclasses.dataclass(frozen=True)
    class Unslotted:
        x: int

    @dataclasses.dataclass(slots=True)
    class Thawed:
        x: int

    @dataclasses.dataclass(frozen=True, slots=True, kw_only=True)
    class KeywordOnly:
        x: int

    @dataclasses.dataclass(frozen=True, slots=True)
    class Hidden:
        x: int
        y: int = dataclasses.field(default=0, init=False)

    for cls in (Unslotted, Thawed, KeywordOnly, Hidden, int):
        with pytest.raises(TypeError):
            slot_init(cls)
