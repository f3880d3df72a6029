"""`ReplayObserver` builds its engine: the one seam to sharded replay.

``shards=1`` replays on a single `DetectionEngine`, ``shards > 1`` on a
`ShardedDetectionEngine` tiling ``bounds``.  A bad shard count or a
missing ``bounds`` is refused with an `ObserverError` before any engine
or runtime exists.  A checkpoint whose emission count or seq counters
no replay could have made is refused the same way, before the engine is
rewound or the log is cut.
"""

from dataclasses import replace

import pytest

from repro.core.conditions import SpatialMeasureCondition
from repro.core.errors import ObserverError
from repro.core.event import EventLayer
from repro.core.instance import (
    CyberPhysicalEventInstance,
    ObserverId,
    ObserverKind,
    PhysicalObservation,
)
from repro.core.operators import RelationalOp
from repro.core.space_model import BoundingBox, PointLocation
from repro.core.spec import EntitySelector, EventSpecification
from repro.core.time_model import TimePoint
from repro.detect.engine import DetectionEngine
from repro.shard import ShardedDetectionEngine
from repro.stream import ObserverProfile, ReplayObserver, ReplaySource
from repro.stream.runtime import arrival_groups

BOUNDS = BoundingBox(0.0, 0.0, 100.0, 100.0)

PROFILE = ObserverProfile(
    name="sink",
    observer_id=ObserverId(ObserverKind.SINK_NODE, "sink"),
    location=PointLocation(0.0, 0.0),
    layer=EventLayer.CYBER_PHYSICAL,
    instance_cls=CyberPhysicalEventInstance,
    specs=(),
    locate=None,
)


@pytest.mark.parametrize("shards", [0, -3, 2.5, "4", None, True])
def test_bad_shard_count_is_rejected(shards):
    with pytest.raises(ObserverError, match="shards must be an int >= 1"):
        ReplayObserver(PROFILE, lateness=2, shards=shards, bounds=BOUNDS)


def test_sharded_replay_needs_bounds():
    with pytest.raises(ObserverError, match="needs bounds"):
        ReplayObserver(PROFILE, lateness=2, shards=4)


def test_shard_count_picks_the_engine_class():
    single = ReplayObserver(PROFILE, lateness=2).runtime.engine
    assert type(single) is DetectionEngine
    sharded = ReplayObserver(
        PROFILE, lateness=2, shards=6, bounds=BOUNDS
    ).runtime.engine
    assert type(sharded) is ShardedDetectionEngine
    assert sharded.shard_count == 6
    assert sharded.partitioner.bounds == BOUNDS


# -- a checkpoint is trusted only with counts a replay could have made ------


def near_pair():
    return EventSpecification(
        event_id="pair",
        selectors={role: EntitySelector(kinds={"v"}) for role in ("a", "b")},
        condition=SpatialMeasureCondition(
            "distance", ("a", "b"), RelationalOp.LT, 3.0
        ),
        window=6,
    )


def delivery_steps(count=40):
    source = ReplaySource(
        [
            (i // 4, [
                PhysicalObservation(
                    f"MT{i}", "SR", 0, TimePoint(i // 4),
                    PointLocation(float(i % 7), 0.0), {"v": 1.0},
                )
            ])
            for i in range(count)
        ]
    )
    return [group for _, group in arrival_groups(source)]


def state_of(replayer):
    log = replayer.emitted
    return (
        replayer.runtime.engine.low_watermark,
        len(log),
        log.keys(),
        replayer.trace_rows,
        dict(log.counters),
    )


@pytest.mark.parametrize(
    "change",
    [
        {"emitted_count": -1},
        {"emitted_count": True},
        {"emitted_count": 2.5},
        {"emitted_count": "3"},
        {"emitted_count": None},
        {"seq": {"pair": -1}},
        {"seq": {"pair": 2.5}},
        {"seq": {"pair": True}},
        {"seq": {"pair": "4"}},
        {"seq": None},
    ],
    ids=lambda change: "-".join(f"{k}={v!r}" for k, v in change.items()),
)
@pytest.mark.parametrize("rewind", ["rollback", "restore"])
def test_a_bad_checkpoint_count_is_refused_before_anything_changes(
    change, rewind
):
    profile = replace(PROFILE, specs=(near_pair(),))
    replayer = ReplayObserver(profile, lateness=0)
    replayer.runtime.register_source("replay")
    steps = delivery_steps()
    for group in steps[:5]:
        replayer.ingest(group)
    checkpoint = replayer.snapshot()
    for group in steps[5:8]:
        replayer.ingest(group)
    before = state_of(replayer)
    assert before[1] > checkpoint.emitted_count > 0
    (field,) = change
    with pytest.raises(ObserverError, match=f"ReplayCheckpoint.{field}"):
        getattr(replayer, rewind)(replace(checkpoint, **change))
    assert state_of(replayer) == before
    # The good checkpoint still rewinds it.
    replayer.rollback(checkpoint)
    assert len(replayer.emitted) == checkpoint.emitted_count
