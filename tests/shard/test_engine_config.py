"""`EngineConfig`: the one place an engine is chosen and validated.

A bad shard count or partition name used to get a different answer on
every path (a `ComponentError`, a silent single engine, a raw
`TypeError` from `math.isqrt`, a `SpatialError` only once the first
sink was added).  Every entry point now goes through
`EngineConfig.__post_init__` / `EngineConfig.build`, so each row below
must raise a `ReproError` before any engine, observer or system exists.
"""

import pytest

from repro.core.errors import ReproError
from repro.core.event import EventLayer
from repro.core.instance import (
    CyberPhysicalEventInstance,
    ObserverId,
    ObserverKind,
)
from repro.core.space_model import BoundingBox, PointLocation
from repro.cps.system import CPSSystem
from repro.detect.engine import DetectionEngine
from repro.shard import EngineConfig, ShardedDetectionEngine
from repro.stream import ObserverProfile, ReplayObserver
from repro.workloads import build_scenario

BOUNDS = BoundingBox(0.0, 0.0, 100.0, 100.0)

PROFILE = ObserverProfile(
    name="sink",
    observer_id=ObserverId(ObserverKind.SINK_NODE, "sink"),
    location=PointLocation(0.0, 0.0),
    layer=EventLayer.CYBER_PHYSICAL,
    instance_cls=CyberPhysicalEventInstance,
    specs=(),
)

ENTRY_POINTS = {
    "EngineConfig": EngineConfig,
    "CPSSystem": lambda **kw: CPSSystem(seed=7, engine=EngineConfig(**kw)),
    "build_scenario": lambda **kw: build_scenario(
        "intrusion", engine=EngineConfig(**kw)
    ),
    "ReplayObserver": lambda **kw: ReplayObserver(
        PROFILE, lateness=2, bounds=BOUNDS, **kw
    ),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("shards", [0, -3, 2.5, "4", None])
def test_bad_shard_count_is_rejected_everywhere(entry, shards):
    with pytest.raises(ReproError, match="shards must be an int >= 1"):
        ENTRY_POINTS[entry](shards=shards)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("shards", [1, 4])
def test_partition_typo_is_rejected_at_any_shard_count(entry, shards):
    with pytest.raises(ReproError, match="unknown partition 'hexagon'"):
        ENTRY_POINTS[entry](shards=shards, partition="hexagon")


def test_sharded_build_needs_bounds():
    with pytest.raises(ReproError, match="needs bounds"):
        EngineConfig(shards=4).build()
    with pytest.raises(ReproError, match="needs bounds"):
        ReplayObserver(PROFILE, lateness=2, shards=4)
    # A system with neither world bounds nor a sensor network has
    # nothing for the partitioner to tile.
    system = CPSSystem(engine=EngineConfig(shards=4))
    with pytest.raises(ReproError, match="needs bounds"):
        system.add_ccu("ccu", PointLocation(0.0, 0.0))
    assert not system.ccus


def test_build_picks_the_engine_class():
    single = EngineConfig(use_planner=False).build(bounds=BOUNDS)
    assert type(single) is DetectionEngine
    assert single.use_planner is False
    sharded = EngineConfig(shards=6, partition="stripes").build(bounds=BOUNDS)
    assert type(sharded) is ShardedDetectionEngine
    assert sharded.shard_count == 6
    assert sharded.partitioner.strategy == "stripes"
    assert sharded.use_planner is True
