"""`ReplayObserver` builds its engine: the one seam to sharded replay.

``shards=1`` replays on a single `DetectionEngine`, ``shards > 1`` on a
`ShardedDetectionEngine` tiling ``bounds``.  A bad shard count or a
missing ``bounds`` is refused with an `ObserverError` before any engine
or runtime exists.
"""

import pytest

from repro.core.errors import ObserverError
from repro.core.event import EventLayer
from repro.core.instance import (
    CyberPhysicalEventInstance,
    ObserverId,
    ObserverKind,
)
from repro.core.space_model import BoundingBox, PointLocation
from repro.detect.engine import DetectionEngine
from repro.shard import ShardedDetectionEngine
from repro.stream import ObserverProfile, ReplayObserver

BOUNDS = BoundingBox(0.0, 0.0, 100.0, 100.0)

PROFILE = ObserverProfile(
    name="sink",
    observer_id=ObserverId(ObserverKind.SINK_NODE, "sink"),
    location=PointLocation(0.0, 0.0),
    layer=EventLayer.CYBER_PHYSICAL,
    instance_cls=CyberPhysicalEventInstance,
    specs=(),
    use_planner=False,
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
    assert single.use_planner is False
    sharded = ReplayObserver(
        PROFILE, lateness=2, shards=6, bounds=BOUNDS
    ).runtime.engine
    assert type(sharded) is ShardedDetectionEngine
    assert sharded.shard_count == 6
    assert sharded.partitioner.bounds == BOUNDS
    assert sharded.use_planner is False
