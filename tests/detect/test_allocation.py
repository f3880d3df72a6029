"""The allocation contract of the match-to-instance path, as counts.

Every emission stays alive in an output log, so what the path
*retains* per row is what the cyclic collector re-walks on every full
collection, and what it *leaks into cycles* only the collector can
free.  The log keeps rows, not instances: a refine-free replay builds
no instance and no centroid at all, retains next to nothing per row,
and a supervisor keeps no second copy of its host's output.  Neither
shows in a test of values, and a timing would not say why, so this
file counts: instances and centroids built, unreachable objects after a
run with the collector off, identities (``is``) of the objects that are
meant to be shared, scans of the dedup store.  The same goes for what
the loop around the engine makes by the hundred thousand: the value
objects carry no ``__dict__``, and a trace row is one plain tuple.  And
for what a live run keeps to the end: ``sources``, trace rows of
strings and numbers and database rows are objects the collector no
longer tracks (``gc.is_tracked``), and the tracked objects left behind
per emitted row stay bounded.
"""

import dataclasses
import gc

import pytest

from repro.core.composite import all_of
from repro.core.conditions import (
    AttributeCondition,
    AttributeTerm,
    SpatialMeasureCondition,
)
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
from repro.core.operators import RelationalOp
from repro.core.space_model import PointLocation
from repro.core.spec import EntitySelector, EventSpecification
from repro.core.time_model import TimePoint
from repro.detect.engine import DetectionEngine, drop_expired_prefix
from repro.detect.output import InstanceLog, build_instance
from repro.cps.component import ObserverComponent
from repro.cps.database import DatabaseServer
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecord, TraceRecorder
from repro.stream import (
    CheckpointPolicy,
    FaultPlan,
    FaultySource,
    ObserverProfile,
    RedeliveryDeduper,
    ReplayObserver,
    ReplaySource,
    SupervisedRuntime,
)
from repro.stream.runtime import arrival_groups
from repro.workloads import build_scenario

from tests.reference import NaiveEngine

SINK = ObserverId(ObserverKind.SINK_NODE, "SK")


def obs(index, tick):
    return PhysicalObservation(
        f"MT{index}", "SR", 0, TimePoint(tick),
        PointLocation(float(index % 7), 0.0), {"v": 1.0},
    )


def near(a, b):
    return SpatialMeasureCondition("distance", (a, b), RelationalOp.LT, 3.0)


def spec_of(roles, groups=(), window=6):
    clauses = [near(a, b) for a, b in zip(roles, roles[1:])]
    if groups:
        clauses.append(
            AttributeCondition(
                "count", (AttributeTerm(groups[0], "v"),), RelationalOp.GE, 1.0
            )
        )
    return EventSpecification(
        event_id="+".join(roles + groups),
        selectors={role: EntitySelector(kinds={"v"}) for role in roles + groups},
        condition=all_of(*clauses) if len(clauses) > 1 else clauses[0],
        window=window,
        group_roles=groups,
    )


@pytest.mark.parametrize(
    "engine_class", [DetectionEngine, NaiveEngine], ids=["planned", "naive"]
)
@pytest.mark.parametrize(
    "roles, groups, window",
    [(("a", "b"), (), 6), (("a", "b", "c"), ("g",), 1)],
    ids=["two-roles", "three-roles-and-a-group"],
)
def test_enumeration_leaves_nothing_for_the_collector(
    roles, groups, window, engine_class
):
    spec = spec_of(roles, groups, window)
    engine = engine_class([spec])
    entities = [obs(i, i // 4) for i in range(200)]
    gc.collect()
    gc.disable()
    try:
        matches = 0
        for entity in entities:
            matches += len(engine.submit(entity, entity.time.tick))
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert matches > 200  # the run enumerated, matched and abandoned plenty
    assert unreachable == 0


def pair_profile():
    return ObserverProfile(
        name="SK",
        observer_id=SINK,
        location=PointLocation(0.0, 0.0),
        layer=EventLayer.CYBER_PHYSICAL,
        instance_cls=CyberPhysicalEventInstance,
        specs=(spec_of(("a", "b")),),
        locate=None,
    )


def steps(count=40):
    source = ReplaySource([(i // 4, [obs(i, i // 4)]) for i in range(count)])
    return [group for _, group in arrival_groups(source)]


def test_an_entity_key_is_built_once_and_shared():
    a, b = obs(1, 1), obs(2, 1)
    assert a.key is a.key
    engine = DetectionEngine([spec_of(("a", "b"))])
    matches = engine.submit_batch([a, b], 1)
    assert len(matches) == 2  # (a, b) and (b, a)
    profile = pair_profile()
    log = InstanceLog.of(profile)
    for match in matches:
        built = build_instance(
            match, profile.observer_id, 0, TimePoint(match.tick),
            profile.location, profile.layer, profile.instance_cls,
        )
        log.write(match)
        # A row's sources are the tuple the instances it materializes carry.
        for instance in (built, log[-1]):
            assert instance.key is instance.key
            bound = match.entities()
            assert len(instance.sources) == len(bound) == 2
            for source, entity in zip(instance.sources, bound):
                assert source is entity.key
    # The dedup store holds the same tuples, not copies.
    for identity, _ in engine.snapshot().seen["a+b"]:
        assert {id(key) for key in identity} == {id(a.key), id(b.key)}


def test_a_pair_row_keeps_the_dedup_stores_tuple_as_its_sources():
    # One keeper per fact: the binding identity the engine deduplicated
    # on is the row's provenance, not a second tuple of the same keys.
    engine = DetectionEngine([spec_of(("a", "b"))])
    log = InstanceLog.of(pair_profile())
    for i in range(12):
        for match in engine.submit_batch([obs(i, i // 4)], i // 4):
            log.write(match)
    stored = {identity: identity for identity in engine._seen["a+b"]}
    assert len(log) > 10 and len(stored) == len(log)
    for sources in log._sources:
        assert stored[sources] is sources


def test_a_group_row_keeps_the_flat_provenance_tuple():
    # A group role's identity holds a frozenset per group; its row's
    # sources stay the keys of every bound entity, groups flattened.
    spec = spec_of(("a", "b", "c"), ("g",), 1)
    engine = DetectionEngine([spec])
    log = InstanceLog.of(pair_profile())
    matches = []
    for i in range(12):
        matches += engine.submit_batch([obs(i, i // 4)], i // 4)
    for match in matches:
        log.write(match)
    assert len(log) > 10
    for match, sources in zip(matches, log._sources):
        assert isinstance(match.key[-1], frozenset)
        assert sources == tuple(entity.key for entity in match.entities())


def test_rows_share_what_does_not_differ_between_them():
    replayer = ReplayObserver(pair_profile(), lateness=0)
    replayer.runtime.register_source("replay")
    log = replayer.emitted
    sizes = [0]
    for group in steps():
        replayer.ingest(group)
        sizes.append(len(log))
    replayer.finish()
    sizes.append(len(log))
    # No output recipe: every row holds the one empty, read-only V.
    empty = log._attributes[0]
    assert len(log) > 20 and not empty
    assert all(attributes is empty for attributes in log._attributes)
    with pytest.raises(TypeError):
        log[0].attributes["v"] = 1.0
    # One generation stamp per tick: a row's t_g (and its point t_eo) is
    # its tick, a plain int, so no row holds a TimePoint of its own.
    assert any(after - before > 1 for before, after in zip(sizes, sizes[1:]))
    assert [type(tick) for tick in log._ticks] == [int] * len(log)
    assert [type(when) for when in log._times] == [int] * len(log)
    # The computed centroids live in the coordinate columns.
    assert log._places == [None] * len(log)
    # Two reads of a row: equal instances, distinct objects, one key
    # tuple (a reader that keeps keys keeps the row's, not copies).
    first, again = log[3], log[3]
    assert first == again and first is not again
    assert first.key is again.key is log.keys()[3]
    assert first.sources is again.sources
    assert list(log) == log[:]


def rows_of(replayer):
    """The ``instance.emit`` rows of the replayer's instances, read off
    each instance by name."""
    return [
        TraceRecord(
            instance.generated_time.tick, "instance.emit", "SK",
            {
                "event_id": instance.event_id,
                "seq": instance.seq,
                "layer": instance.layer.name,
                "edl": instance.detection_latency,
                "rho": instance.confidence,
            },
        )
        for instance in replayer.emitted
    ]


def test_trace_rows_follow_the_emission_log_through_rollback_and_restore():
    groups = steps()
    whole = ReplayObserver(pair_profile(), lateness=0)
    whole.replay(ReplaySource([(g[0].event_tick, [i.entity for i in g]) for g in groups]))
    assert whole.trace_rows == rows_of(whole) and len(whole.trace_rows) > 20

    replayer = ReplayObserver(pair_profile(), lateness=0)
    replayer.runtime.register_source("replay")
    for group in groups[:5]:
        replayer.ingest(group)
    checkpoint = replayer.snapshot()
    kept = replayer.trace_rows
    for group in groups[5:8]:
        replayer.ingest(group)
    assert len(replayer.trace_rows) > len(kept)
    replayer.rollback(checkpoint)
    assert replayer.trace_rows == kept == rows_of(replayer)
    for group in groups[5:]:
        replayer.ingest(group)
    replayer.finish()
    assert replayer.trace_rows == whole.trace_rows

    resumed = ReplayObserver(pair_profile(), lateness=0)
    resumed.restore(checkpoint)
    assert resumed.trace_rows == []
    for group in groups[5:]:
        resumed.ingest(group)
    resumed.finish()
    assert resumed.trace_rows == whole.trace_rows[checkpoint.emitted_count:]


@pytest.fixture
def constructions(monkeypatch):
    """Counts every ``EventInstance`` and ``PointLocation`` built from
    the moment the test calls ``start()`` (subclasses included: they
    inherit the hook)."""
    class Counts(dict):
        def start(self):
            self.update(dict.fromkeys(self, 0))

    counts = Counts({EventInstance: 0, PointLocation: 0})
    for cls in counts:
        original = cls.__post_init__

        def counted(self, cls=cls, original=original):
            counts[cls] += 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return counts


def test_a_refine_free_replay_builds_no_instance_and_no_centroid(constructions):
    groups = steps()
    replayer = ReplayObserver(pair_profile(), lateness=0)
    replayer.runtime.register_source("replay")
    constructions.start()
    for group in groups:
        replayer.ingest(group)
    replayer.finish()
    assert len(replayer.emitted) > 20
    assert replayer.trace_rows and replayer.emitted.keys()
    assert constructions == {EventInstance: 0, PointLocation: 0}
    # A read builds one of each: the instance and its centroid.
    replayer.emitted[0]
    assert constructions == {EventInstance: 1, PointLocation: 1}


def test_a_supervised_replay_holds_no_second_copy_of_its_output(constructions):
    groups = steps(80)
    source = ReplaySource(
        [(g[0].event_tick, [item.entity for item in g]) for g in groups],
        name="replay",
    )
    replayer = ReplayObserver(
        pair_profile(), lateness=0, dedup=RedeliveryDeduper()
    )
    supervisor = SupervisedRuntime(
        replayer, checkpoints=CheckpointPolicy(every_steps=4)
    )
    constructions.start()
    supervisor.run(
        FaultySource(source, FaultPlan(crashes=((9, 0), (15, 1))))
    )
    assert supervisor.recoveries == 2
    assert constructions == {EventInstance: 0, PointLocation: 0}
    assert len(replayer.emitted) > 40
    plain = ReplayObserver(pair_profile(), lateness=0)
    plain.replay(source)
    assert replayer.trace_rows == plain.trace_rows
    assert replayer.emitted == plain.emitted


def test_a_replay_retains_no_tracked_object_per_row():
    groups = steps(400)
    replayer = ReplayObserver(pair_profile(), lateness=0)
    replayer.runtime.register_source("replay")
    settle()
    before = len(gc.get_objects())
    for group in groups:
        replayer.ingest(group)
    replayer.finish()
    settle()
    retained = len(gc.get_objects()) - before
    # A row is ints, floats in arrays, the shared empty V and a sources
    # tuple of key tuples the collector stops tracking: what stays is the
    # engine's and the runtime's own bounded state: 24 objects for 11 268
    # rows.  An instance and its centroid kept 2.0 per row.
    assert len(replayer.emitted) > 10_000
    assert retained / len(replayer.emitted) <= 0.01


class CountingDict(dict):
    """Counts how the prune helper touches the store."""

    def __init__(self):
        super().__init__()
        self.scans = self.deletions = self.lookups = 0

    def items(self):
        self.scans += 1
        return super().items()

    def __iter__(self):
        self.scans += 1
        return super().__iter__()

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def __delitem__(self, key):
        self.deletions += 1
        super().__delitem__(key)


def head_pop(entries, horizon):
    """The loop ``drop_expired_prefix`` replaced."""
    while entries:
        key = next(iter(entries))
        if entries[key] >= horizon:
            break
        del entries[key]


def test_expired_prefix_is_dropped_in_one_scan_per_call():
    counted, reference = CountingDict(), {}
    calls = 0
    for i in range(20_000):
        tick = i // 7
        counted[i] = reference[i] = tick
        if i % 5 == 0:
            horizon = tick - 40
            drop_expired_prefix(counted, horizon)
            head_pop(reference, horizon)
            calls += 1
            assert len(counted) == len(reference)
    assert list(counted.items()) == list(reference.items())
    assert 0 < len(counted) < 400
    assert counted.scans == calls + 1  # + the comparison just above
    assert counted.deletions == 20_000 - len(counted)  # each expired key once
    assert counted.lookups == 0


# -- the value objects and trace rows of the live loop ---------------------


def settle():
    """Collect until the collector has had its look at everything.

    CPython stops tracking a tuple when a collection finds every item
    untracked; a full collection may visit a tuple before its items
    (``move_unreachable`` re-queues objects in the order it reaches
    them), so a tuple of tuples can need a second one.
    """
    gc.collect()
    gc.collect()


def instance_of(cls, observer=SINK, seq=0, **overrides):
    fields = dict(
        observer=observer, event_id="e", seq=seq,
        generated_time=TimePoint(3), generated_location=PointLocation(0.0, 0.0),
        estimated_time=TimePoint(2), estimated_location=PointLocation(1.0, 0.0),
    )
    fields.update(overrides)
    return cls(**fields)


def slotted_values():
    a, b = obs(1, 1), obs(2, 1)
    match = DetectionEngine([spec_of(("a", "b"))]).submit_batch([a, b], 1)[0]
    return [
        instance_of(EventInstance),
        instance_of(SensorEventInstance),
        instance_of(CyberPhysicalEventInstance),
        instance_of(CyberEventInstance),
        a,
        a.location,
        a.time,
        match,
    ]


def test_value_objects_carry_no_dict():
    values = slotted_values()
    assert len({type(value) for value in values}) == 8
    for value in values:
        assert not hasattr(value, "__dict__"), type(value).__name__
        with pytest.raises((AttributeError, TypeError)):
            value.scratch = 1  # frozen, and nowhere to put it
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, dataclasses.fields(value)[0].name, None)


def test_slotted_instances_still_copy_and_keep_their_layer_defaults():
    layers = {
        EventInstance: EventLayer.SENSOR,
        SensorEventInstance: EventLayer.SENSOR,
        CyberPhysicalEventInstance: EventLayer.CYBER_PHYSICAL,
        CyberEventInstance: EventLayer.CYBER,
    }
    for cls, layer in layers.items():
        instance = instance_of(cls, attributes={"v": 1.0}, confidence=0.5)
        assert instance.layer is layer
        renumbered = dataclasses.replace(instance, seq=7)
        assert type(renumbered) is cls and renumbered.layer is layer
        assert renumbered.key == (str(SINK), "e", 7)
        assert instance.key == ("sink:SK", "e", 0)
        assert renumbered.attributes == {"v": 1.0}
        moved = dataclasses.replace(
            instance, estimated_location=PointLocation(5.0, 5.0)
        )
        assert moved.key == instance.key and moved != instance
        assert moved.estimated_location == PointLocation(5.0, 5.0)
    observation = obs(1, 1)
    later = dataclasses.replace(observation, seq=4, time=TimePoint(9))
    assert later.key == ("MT1", "SR", 4) and later.time - observation.time == 8
    assert dataclasses.replace(PointLocation(1.0, 2.0), y=3.0) == PointLocation(1.0, 3.0)


def test_an_equal_observer_id_finds_the_same_binding_in_the_dedup_store():
    spec = EventSpecification(
        event_id="pair",
        selectors={role: EntitySelector(kinds={"e"}) for role in ("a", "b")},
        condition=near("a", "b"),
        window=6,
    )
    engine = DetectionEngine([spec])
    other = ObserverId(ObserverKind.SINK_NODE, "S2")
    first = engine.submit_batch(
        [instance_of(CyberPhysicalEventInstance),
         instance_of(CyberPhysicalEventInstance, observer=other)], 3,
    )
    assert len(first) == 2  # (a, b) and (b, a)
    # The same instance again, under an equal id that is another object:
    # both bindings are already in the store.
    twin = instance_of(
        CyberPhysicalEventInstance, observer=ObserverId(ObserverKind.SINK_NODE, "SK")
    )
    assert twin.observer is not SINK and twin.observer == SINK
    assert twin.key == (str(SINK), "e", 0)
    assert engine.submit_batch([twin], 3) == []
    # Another id with the same name is another observer, and another key.
    stranger = instance_of(
        CyberPhysicalEventInstance, observer=ObserverId(ObserverKind.CCU, "SK")
    )
    assert stranger.key != twin.key
    assert len(engine.submit_batch([stranger], 3)) > 0


def test_a_trace_row_is_a_row_and_the_payload_it_was_handed():
    trace = TraceRecorder()
    payload = {"event_id": "e", "rho": 0.5}
    assert trace.append(4, "instance.emit", "SK", payload) is None
    # Two reads of a row are equal records, each with its own payload.
    (row,) = trace
    (again,) = trace.by_category("instance.emit")
    assert row == again == TraceRecord(4, "instance.emit", "SK", payload)
    assert row is not again and row.payload is not again.payload
    assert row.payload is not payload and not hasattr(row, "__dict__")
    # The keyword spelling: the row keeps the values, not the dict the
    # call collected them into, and not the caller's.
    mine = {"value": 1.0, "sensor": "SR"}
    trace.record(5, "sample.ok", "MT1", **mine)
    mine["value"] = 2.0
    assert trace.by_category("sample.ok") == [
        TraceRecord(5, "sample.ok", "MT1", {"value": 1.0, "sensor": "SR"})
    ]

    settle()
    before = len(gc.get_objects())
    for tick in range(1_000):
        trace.record(tick, "sample.ok", "MT1", value=1.5, sensor="SR")
    settle()
    # A row of strings and numbers is a tuple the collector stops
    # tracking, and every row of one payload shape shares one key tuple.
    assert len(gc.get_objects()) - before <= 8
    assert len(trace) == 1_002


def test_live_and_replayed_rows_of_one_instance_share_nothing():
    profile = pair_profile()
    trace = TraceRecorder()
    live = ObserverComponent(
        profile.name, profile.location, Simulator(), ObserverKind.SINK_NODE,
        profile.layer, profile.instance_cls, trace=trace,
    )
    instance = instance_of(CyberPhysicalEventInstance, generated_time=TimePoint(0))
    live.emit_direct(instance)
    held = {"kind": "x"}
    live.record("custom", **held)
    assert trace.by_category("custom")[0].payload is not held
    replayer = ReplayObserver(profile, lateness=0)
    replayer.emitted.append(instance)
    (live_row,) = trace.by_category("instance.emit")
    (replayed_row,) = replayer.trace_rows
    assert live_row == replayed_row
    assert live_row is not replayed_row
    assert live_row.payload is not replayed_row.payload


# -- what a live run retains ------------------------------------------------


@pytest.fixture(scope="module")
def live_run():
    """A finished live ``high_density`` run and the tracked objects its
    run (not its build) left behind."""
    built = build_scenario("high_density", "small", seed=0)
    settle()
    before = len(gc.get_objects())
    built.system.run(until=built.params["horizon"])
    settle()
    return built.system, len(gc.get_objects()) - before


def observers_of(system):
    return [*system.motes.values(), *system.sinks.values(), *system.ccus.values()]


def emitted_by(system):
    return [instance for o in observers_of(system) for instance in o.emitted]


def atomic(value):
    return value is None or isinstance(value, (bool, int, float, str))


def test_a_live_run_keeps_keys_and_sources_untracked(live_run):
    system, _ = live_run
    logs = [o.emitted for o in observers_of(system)]
    # A log's key and sources columns hold tuples the collector has
    # stopped tracking.
    assert sum(map(len, logs)) > 400
    assert any(any(log._sources) for log in logs)
    for log in logs:
        for key, sources in zip(log._keys, log._sources):
            assert not gc.is_tracked(key), key
            assert not gc.is_tracked(sources), sources
    # A key a read builds is a tuple of atoms: the next collection
    # stops tracking it.
    instances = emitted_by(system)
    settle()
    for instance in instances:
        assert not gc.is_tracked(instance.key), instance.key
        assert not gc.is_tracked(instance.sources), instance.sources


def test_a_live_run_keeps_its_plain_trace_rows_untracked(live_run):
    system, _ = live_run
    rows = system.trace._rows
    plain = [row for row in rows if all(map(atomic, row[4:]))]
    assert len(plain) > 0.9 * len(rows) > 2_000
    assert not [row for row in plain if gc.is_tracked(row)]


def test_database_storage_adds_no_tracked_object_per_row(live_run):
    system, _ = live_run
    (live,) = system.databases.values()
    instances = emitted_by(system)
    assert len(live) > 40
    database = DatabaseServer("DB", Simulator())
    settle()
    before = len(gc.get_objects())
    for instance in instances:
        assert database.store(instance)
    settle()
    assert len(gc.get_objects()) - before <= 4  # the server's own columns
    assert database.query() == instances


def test_a_live_run_retains_few_tracked_objects_per_instance(live_run):
    system, retained = live_run
    # The instances the database keeps and the engines' windows hold,
    # with their centroids and TimePoints: 3.6 per row.  It was 15.8
    # while every mote kept its observations and the sinks and the CCU
    # kept their arrivals in lists, and 23.8 while keys held an
    # ObserverId and trace rows were records.
    rows = sum(len(o.emitted) for o in observers_of(system))
    assert retained / rows <= 5.0


def observations_alive():
    settle()
    return {id(o) for o in gc.get_objects() if type(o) is PhysicalObservation}


def test_a_live_run_keeps_none_of_its_observations():
    built = build_scenario("high_density", "small", seed=0)
    system = built.system
    before = observations_alive()
    system.run(until=built.params["horizon"])
    # Every mote spec has one role, so no mote engine keeps a window:
    # an observation is judged as it arrives and nothing holds it after.
    for mote in system.motes.values():
        snapshot = mote.engine.snapshot()
        assert snapshot.spec_ids
        assert all(not roles for roles in snapshot.windows.values())
    # Observations other tests left alive are not this run's.
    live = observations_alive() - before
    assert system.observation_count() == system.trace.count("sample.ok") > 1_000
    assert not live
