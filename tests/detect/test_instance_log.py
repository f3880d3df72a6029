"""An observer's output log against a plain list of instances (hypothesis).

:class:`~repro.detect.output.InstanceLog` keeps rows and builds an
instance only when something reads one.  Its oracle is the list the
log replaced: every match turned into an object by
:func:`~repro.detect.output.build_instance` (its location replaced by
the ``locate`` hook's estimate when there is one), every finished
instance appended as it is.  Whatever the log is asked to do — write a
row from a match with or without a location hook, append an interval
instance, refuse a match it cannot emit, truncate to a checkpoint's
count, clear — every read (index, slice, iteration, keys, trace rows)
must give what the list gives: equal instances (``==``) of the same
class, with the same ``sources`` and the same key.  The trace rows'
oracle reads each instance's fields by name.

The second property runs the log where it recovers from crashes: a
supervised replay over a faulted delivery of a random stream ends with
the rows the same stream makes unfaulted, read as the list of
``build_instance`` results of its matches.
"""

from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.conditions import (
    AttributeTerm,
    ConfidenceCondition,
    SpatialMeasureCondition,
)
from repro.core.errors import ConditionError, ObserverError
from repro.core.event import EventLayer
from repro.core.instance import (
    CyberPhysicalEventInstance,
    ObserverId,
    ObserverKind,
    PhysicalObservation,
    SensorEventInstance,
)
from repro.core.operators import RelationalOp
from repro.core.space_model import Circle, PointLocation
from repro.core.spec import (
    EntitySelector,
    EventSpecification,
    OutputAttribute,
    OutputPolicy,
)
from repro.core.time_model import TimeInterval, TimePoint
from repro.detect.engine import DetectionEngine, Match
from repro.detect.output import InstanceLog, build_instance
from repro.sim.trace import TraceRecord
from repro.stream import (
    CheckpointPolicy,
    FaultPlan,
    FaultySource,
    ObserverProfile,
    RedeliveryDeduper,
    ReplayObserver,
    ReplaySource,
    StreamingDetectionRuntime,
    SupervisedRuntime,
)

SINK = ObserverId(ObserverKind.SINK_NODE, "SK")
MOTE = ObserverId(ObserverKind.SENSOR_MOTE, "MT")
HERE = PointLocation(3.0, 4.0)
LAYER = EventLayer.CYBER_PHYSICAL
CLS = CyberPhysicalEventInstance

coordinates = st.floats(-1e3, 1e3, allow_nan=False)
points = st.builds(PointLocation, coordinates, coordinates)
locations = points | st.builds(Circle, points, st.floats(0.5, 20.0))
ticks = st.integers(0, 60)


@dataclass(frozen=True)
class Probe:
    """An entity of no known species: it can carry a confidence outside
    ``[0, 1]``, which no instance may."""

    occurrence_time: object
    occurrence_location: object
    attributes: dict
    confidence: float


@st.composite
def entities(draw, index):
    """An observation, a sensor instance estimated over an interval, or
    now and then a probe whose confidence the fusion rule must refuse."""
    species = draw(st.sampled_from(["observation"] * 4 + ["instance"] * 4 + ["probe"]))
    value = {"v": draw(st.floats(-50.0, 50.0))}
    if species == "observation":
        return PhysicalObservation(
            f"MT{index}", "SR", index, TimePoint(draw(ticks)),
            draw(locations), value,
        )
    start = draw(ticks)
    when = TimeInterval(TimePoint(start), TimePoint(start + draw(st.integers(0, 9))))
    if species == "probe":
        return Probe(when, draw(locations), value, draw(st.sampled_from([1.5, -0.25])))
    return SensorEventInstance(
        MOTE, "reading", index, TimePoint(100), PointLocation(0.0, 0.0),
        when, draw(locations), value, draw(st.floats(0.0, 1.0)),
    )


@st.composite
def matches(draw):
    """A match of one, two or three single roles under any output policy."""
    roles = [f"r{i}" for i in range(draw(st.integers(1, 3)))]
    recipes = ()
    if draw(st.booleans()):
        recipes = (
            OutputAttribute(
                "out", draw(st.sampled_from(["average", "max", "count"])),
                (AttributeTerm(draw(st.sampled_from(roles)), "v"),),
            ),
        )
    spec = EventSpecification(
        event_id=draw(st.sampled_from(["fire", "smoke"])),
        selectors={role: EntitySelector() for role in roles},
        condition=ConfidenceCondition(roles[0], RelationalOp.GE, 0.0),
        output=OutputPolicy(
            time=draw(st.sampled_from(OutputPolicy._TIME_CHOICES)),
            space=draw(st.sampled_from(OutputPolicy._SPACE_CHOICES)),
            attributes=recipes,
            confidence=draw(st.sampled_from(OutputPolicy._CONFIDENCE_CHOICES)),
        ),
    )
    binding = {role: draw(entities(i)) for i, role in enumerate(roles)}
    return Match(spec, binding, draw(ticks))


def same(got, want):
    """Equal the way the log promises: ``==``, class, sources, key."""
    assert got == want
    assert type(got) is type(want)
    assert got.sources == want.sources
    assert got.key == want.key


def rows_of(instances):
    return [
        TraceRecord(
            i.generated_time.tick, "instance.emit", "SK",
            {
                "event_id": i.event_id,
                "seq": i.seq,
                "layer": i.layer.name,
                "edl": i.detection_latency,
                "rho": i.confidence,
            },
        )
        for i in instances
    ]


class LogAgainstAList(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.log = InstanceLog(SINK, HERE, LAYER, CLS)
        self.model = []
        self.counters = {}
        self.checkpoints = []

    def next_seq(self, event_id):
        seq = self.counters.get(event_id, 0)
        self.counters[event_id] = seq + 1
        return seq

    @rule(match=matches())
    def write(self, match):
        seq = self.counters.get(match.spec.event_id, 0)
        try:
            want = build_instance(
                match, SINK, seq, TimePoint(match.tick), HERE, LAYER, CLS
            )
        except ConditionError:
            # A confidence outside [0, 1] to fuse: refused whole, and the
            # refusal numbers nothing.
            before = list(self.log), dict(self.log.counters)
            with pytest.raises(ConditionError, match="confidence"):
                self.log.write(match)
            assert (list(self.log), dict(self.log.counters)) == before
            return
        self.next_seq(match.spec.event_id)
        self.log.write(match)
        self.model.append(want)

    @rule(match=matches(), moved=st.none() | points)
    def write_located(self, match, moved):
        # What a live sink does: write the row with its trilateration's
        # estimate, or with the policy's location when it has none.
        asked = []

        def locate(m):
            asked.append(m)
            return moved

        seq = self.counters.get(match.spec.event_id, 0)
        try:
            want = build_instance(
                match, SINK, seq, TimePoint(match.tick), HERE, LAYER, CLS
            )
        except ConditionError:
            before = list(self.log), dict(self.log.counters)
            with pytest.raises(ConditionError):
                self.log.write(match, locate)
            assert (list(self.log), dict(self.log.counters)) == before
            assert asked == []
            return
        self.log.write(match, locate)
        assert len(asked) == 1 and asked[0] is match
        self.next_seq(match.spec.event_id)
        if moved is not None:
            want = replace(want, estimated_location=moved)
        self.model.append(want)

    @rule(start=ticks, length=st.none() | st.integers(0, 9), tick=ticks)
    def append_interval(self, start, length, tick):
        # What a mote's interval tracker emits: an interval, maybe open.
        end = None if length is None else TimePoint(start + length)
        seq = self.log.next_seq("interval")
        assert seq == self.next_seq("interval")
        instance = CLS(
            SINK, "interval", seq, TimePoint(tick), HERE,
            TimeInterval(TimePoint(start), end), HERE,
            {"phase": "open" if end is None else "closed"}, 0.75, LAYER,
        )
        self.log.append(instance)
        self.model.append(instance)

    @rule(kind=st.sampled_from(["observer", "layer", "class", "place"]))
    def refuse_a_stranger(self, kind):
        # An instance of another observer's making is not a row of this log.
        instance = CLS(
            SINK, "stranger", 0, TimePoint(1), HERE, TimePoint(0), HERE,
        )
        instance = {
            "observer": replace(instance, observer=MOTE),
            "layer": replace(instance, layer=EventLayer.CYBER),
            "class": SensorEventInstance(
                SINK, "stranger", 0, TimePoint(1), HERE, TimePoint(0), HERE,
                layer=LAYER,
            ),
            "place": replace(instance, generated_location=PointLocation(0.0, 0.0)),
        }[kind]
        before = len(self.log)
        with pytest.raises(ObserverError, match="not generated by this log"):
            self.log.append(instance)
        assert len(self.log) == before

    @rule()
    def checkpoint(self):
        self.checkpoints.append((len(self.model), dict(self.counters)))

    @precondition(lambda self: self.checkpoints)
    @rule(data=st.data())
    def truncate(self, data):
        count, counters = data.draw(st.sampled_from(self.checkpoints))
        if count > len(self.model):
            return  # a checkpoint from before a clear
        self.log.truncate(count)
        self.log.counters = dict(counters)
        del self.model[count:]
        self.counters = dict(counters)

    @rule()
    def clear(self):
        self.log.clear()
        self.model.clear()

    @rule(data=st.data())
    def read_a_slice(self, data):
        size = len(self.model) + 2
        start = data.draw(st.integers(-size, size))
        stop = data.draw(st.integers(-size, size))
        assert self.log[start:stop] == self.model[start:stop]
        if self.model:
            index = data.draw(st.integers(-len(self.model), len(self.model) - 1))
            same(self.log[index], self.model[index])

    @invariant()
    def reads_are_the_list(self):
        log, model = self.log, self.model
        assert len(log) == len(model)
        got = list(log)
        for instance, want in zip(got, model):
            same(instance, want)
        assert log == model
        assert log.keys() == [i.key for i in model]
        assert log.trace_rows("SK") == rows_of(model)
        assert log.counters == self.counters


LogAgainstAList.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
TestLogAgainstAList = LogAgainstAList.TestCase


# -- supervised rollback -----------------------------------------------


def pair_spec():
    return EventSpecification(
        event_id="pair",
        selectors={role: EntitySelector(kinds={"v"}) for role in ("a", "b")},
        condition=SpatialMeasureCondition("distance", ("a", "b"), RelationalOp.LT, 4.0),
        window=3,
    )


@st.composite
def faulted_streams(draw):
    """A random in-order stream of observations and crashes over its steps."""
    per_tick = [draw(st.integers(1, 3)) for _ in range(draw(st.integers(2, 14)))]
    batches = []
    index = 0
    for tick, count in enumerate(per_tick):
        batch = []
        for _ in range(count):
            batch.append(
                PhysicalObservation(
                    f"MT{index}", "SR", 0, TimePoint(tick),
                    PointLocation(
                        draw(st.integers(0, 3)) * 3.0, draw(st.integers(0, 3)) * 3.0
                    ),
                    {"v": 1.0},
                )
            )
            index += 1
        batches.append((tick, batch))
    crashes = draw(
        st.lists(
            st.tuples(st.integers(0, len(batches) - 1), st.integers(0, 2)),
            max_size=3,
            unique_by=lambda crash: crash[0],
        )
    )
    return batches, tuple(sorted(crashes)), draw(st.integers(1, 4))


@settings(max_examples=120, deadline=None)
@given(faulted_streams())
def test_a_supervised_replay_ends_with_the_unfaulted_rows(case):
    batches, crashes, every = case
    spec = pair_spec()
    # The oracle: the unfaulted stream's matches, built one by one.
    matches = []
    StreamingDetectionRuntime(
        DetectionEngine([spec]), lateness=0, on_match=matches.append
    ).run(ReplaySource(batches, name="s"))
    counters = {}
    want = []
    for match in matches:
        seq = counters.get(match.spec.event_id, 0)
        counters[match.spec.event_id] = seq + 1
        want.append(
            build_instance(match, SINK, seq, TimePoint(match.tick), HERE, LAYER, CLS)
        )

    profile = ObserverProfile("SK", SINK, HERE, LAYER, CLS, (spec,), True, None)
    replayer = ReplayObserver(profile, lateness=0, dedup=RedeliveryDeduper())
    supervisor = SupervisedRuntime(
        replayer, checkpoints=CheckpointPolicy(every_steps=every)
    )
    supervisor.run(
        FaultySource(
            ReplaySource(batches, name="s"),
            FaultPlan(crashes=crashes),
            redelivery_overlap=1,
        )
    )
    assert supervisor.recoveries == len(crashes)
    assert len(replayer.emitted) == len(want)
    for got, expected in zip(replayer.emitted, want):
        same(got, expected)
    assert list(replayer.emitted) == want
    assert replayer.trace_rows == rows_of(want)
