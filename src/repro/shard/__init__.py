"""Spatially sharded detection: partitioned engines with exact merge.

The paper's hierarchy (motes -> sinks -> CCU) funnels every observation
of a deployment into a handful of observer engines; PR 1-3 made that
hot path fast, but one engine per observer still caps throughput by the
size of its windows.  This package partitions detection *by space* —
the structure spatially distributed monitoring work (Bartocci et al.,
Nenzi et al.) exploits: properties with bounded spatial reach can be
evaluated per-region, provided the regions overlap by that reach.

* :class:`~repro.shard.partitioner.WorldPartitioner` — tiles the world
  bounds (:meth:`repro.cps.system.CPSSystem.detection_bounds`, the
  sensor topology's extent) into uniform grid cells;
* :class:`~repro.shard.router.ObservationRouter` — assigns each batch
  entity a *home* shard plus the *halo* shards within the maximum
  spatial reach any selecting specification can correlate over
  (:meth:`~repro.detect.planner.EvaluationPlan.spatial_reach`);
  specifications whose reach is unbounded fall back to broadcast;
* one :class:`~repro.detect.engine.DetectionEngine` per shard, reusing
  the existing compiled/planned evaluation path unchanged;
* :class:`~repro.shard.merger.MatchMerger` — deduplicates the
  halo-induced duplicate matches by canonical binding key, restores the
  single-engine emission order, and applies spec cooldowns centrally,
  so the merged match stream is *provably identical* to the
  single-engine result (the conformance goldens and the hypothesis
  boundary suite pin this).

:class:`~repro.shard.engine.ShardedDetectionEngine` packages the four
parts behind the exact ``submit_batch``/``matches``/``stats`` surface
of :class:`~repro.detect.engine.DetectionEngine`.  It is a replay
backend only: live observers run a single engine, and
``ReplayObserver(shards=4, bounds=...)`` is the one place that builds a
sharded one — what the performance ledger's ``stream_enum_shard4``
workload prices against ``stream_enum``.
"""

from repro.shard.engine import ShardedDetectionEngine, ShardedEngineSnapshot
from repro.shard.merger import MatchMerger
from repro.shard.partitioner import WorldPartitioner
from repro.shard.router import ObservationRouter, RouterStats

__all__ = [
    "ShardedDetectionEngine",
    "ShardedEngineSnapshot",
    "MatchMerger",
    "WorldPartitioner",
    "ObservationRouter",
    "RouterStats",
]
