"""`ShardedDetectionEngine`: the partitioned detection backend.

Drop-in replacement for :class:`~repro.detect.engine.DetectionEngine`
(same ``submit``/``submit_batch``/``stats``/``specs``/``add_spec``/
``clear`` surface) that spreads window state and binding enumeration
over ``shards`` internal engines partitioned by space:

* every submitted entity is stamped with a global arrival sequence
  number (the merger's ordering authority), routed by the
  :class:`~repro.shard.router.ObservationRouter` to its home shard plus
  halo shards, and evaluated by the per-shard engines through the
  existing compiled/planned path — cooldowns included, so a cooling
  shard skips enumeration exactly like the single engine;
* the :class:`~repro.shard.merger.MatchMerger` deduplicates
  halo-duplicate matches, restores the single-engine emission order and
  arbitrates same-tick cooldown races; the authoritative cooldown clock
  is then written back into every shard
  (:meth:`~repro.detect.engine.DetectionEngine.set_last_match`);
* the merged match stream (and therefore every emitted instance, seq
  number and trace record downstream) is identical to what one
  :class:`~repro.detect.engine.DetectionEngine` over the same stream
  produces — the conformance goldens replay every registered scenario
  on this backend to pin that.

:attr:`ShardedDetectionEngine.stats` aggregates: submission counters
and the merged match count are taken at the sharded level
(entities routed to several shards count once), while enumeration-side
counters (bindings, pruning, cache, errors) sum over the shard engines
via :meth:`~repro.detect.engine.EngineStats.merge`.  Per-shard detail
stays available through :meth:`shard_stats`.

:class:`~repro.stream.replay.ReplayObserver` is the one place that
builds this backend (``shards > 1``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from repro.core.entity import Entity
from repro.core.errors import ObserverError
from repro.core.space_model import BoundingBox
from repro.core.spec import EventSpecification
from repro.detect.engine import (
    DetectionEngine,
    EngineSnapshot,
    EngineStats,
    Match,
    drop_expired_prefix,
)
from repro.shard.merger import MatchMerger
from repro.shard.partitioner import WorldPartitioner
from repro.shard.router import ObservationRouter

__all__ = ["ShardedDetectionEngine", "ShardedEngineSnapshot"]


@dataclass(frozen=True)
class ShardedEngineSnapshot:
    """Checkpoint of a :class:`ShardedDetectionEngine`'s mutable state.

    Per-shard :class:`~repro.detect.engine.EngineSnapshot` plus the
    sharded level's own state: the merger's authoritative cooldown
    clocks and counts, the global arrival-sequence stamps and counter,
    and the sharded-level stats.  The sequence stamps are keyed by entity
    identity (``id``), so a snapshot is restorable **within the process
    that took it** while the stamped entities are alive — which window
    snapshots guarantee for every entity that still matters.  That is
    exactly the mid-stream resume the streaming runtime needs; durable
    cross-process checkpoints would serialize entities instead.
    """

    shards: tuple[EngineSnapshot, ...]
    bounds: BoundingBox
    merger_last_match: Mapping[str, int]
    seq_map: tuple[tuple[int, tuple[int, int]], ...]
    next_seq: int
    own_stats: EngineStats
    merger_counts: tuple[int, int, int, int]
    """The merger's candidates, deduped, suppressed and emitted counts."""


class ShardedDetectionEngine:
    """Spatially partitioned, exactly-merged detection backend.

    Args:
        specs: The event specifications to watch for.
        bounds: World extent the partitioner tiles (see
            :class:`~repro.shard.partitioner.WorldPartitioner`; any box
            covering the bulk of observed locations is correct).
        shards: Number of spatial shards (>= 1), tiled as a grid.
        use_planner: Evaluation mode of the per-shard engines (the
            compiled/planned path by default; ``False`` runs every
            shard on the exhaustive baseline — still exact).
    """

    def __init__(
        self,
        specs: Sequence[EventSpecification] = (),
        *,
        bounds: BoundingBox,
        shards: int = 4,
        use_planner: bool = True,
    ):
        self.partitioner = WorldPartitioner(bounds, shards)
        self.router = ObservationRouter(self.partitioner)
        self.use_planner = use_planner
        self._engines = tuple(
            DetectionEngine(use_planner=use_planner)
            for _ in range(self.partitioner.shard_count)
        )
        self.merger = MatchMerger()
        self._originals: dict[str, EventSpecification] = {}
        self._spec_index: dict[str, int] = {}
        self._seq_map: dict[int, tuple[int, int]] = {}  # id(entity) -> (seq, tick)
        self._next_seq = 0
        self._max_window = 0
        self._own = EngineStats()
        for spec in specs:
            self.add_spec(spec)

    # -- specification management --------------------------------------

    def add_spec(self, spec: EventSpecification) -> None:
        """Install another specification on every shard engine."""
        if spec.event_id in self._originals:
            raise ObserverError(f"duplicate specification {spec.event_id!r}")
        for engine in self._engines:
            engine.add_spec(spec)
        self._originals[spec.event_id] = spec
        self._spec_index[spec.event_id] = len(self._spec_index)
        self._max_window = max(self._max_window, spec.window)
        self.router.add_spec(spec, self._engines[0].plan(spec.event_id))

    @property
    def specs(self) -> tuple[EventSpecification, ...]:
        """Installed (original, cooldown-bearing) specifications."""
        return tuple(self._originals.values())

    def spec(self, event_id: str) -> EventSpecification:
        """Installed specification by event id."""
        try:
            return self._originals[event_id]
        except KeyError:
            raise ObserverError(f"no specification {event_id!r}") from None

    def plan(self, event_id: str):
        """Compiled evaluation plan of an installed specification."""
        return self._engines[0].plan(event_id)

    def compiled(self, event_id: str):
        """Compiled condition evaluator of an installed specification."""
        return self._engines[0].compiled(event_id)

    # -- shard introspection -------------------------------------------

    @property
    def shard_count(self) -> int:
        """Number of spatial shards."""
        return len(self._engines)

    @property
    def engines(self) -> tuple[DetectionEngine, ...]:
        """The per-shard engines, in shard-id order."""
        return self._engines

    def shard_stats(self) -> tuple[EngineStats, ...]:
        """Per-shard engine counters, in shard-id order."""
        return tuple(engine.stats for engine in self._engines)

    # -- evaluation ----------------------------------------------------

    def submit(self, entity: Entity, now: int) -> list[Match]:
        """Feed one entity; return every *new* merged match."""
        return self.submit_batch((entity,), now)

    def submit_batch(self, entities: Iterable[Entity], now: int) -> list[Match]:
        """Route a batch through the shards and merge exactly.

        Semantics are identical to
        :meth:`repro.detect.engine.DetectionEngine.submit_batch` over
        the same stream: same matches, same order, same cooldown
        behavior.
        """
        mark = self.low_watermark
        if mark is not None and now < mark:
            # Reject before any accounting mutates (stamp dict, stats):
            # the single engine's guard leaves state untouched on a
            # regressing tick, and the sharded level must match.
            raise ObserverError(
                f"non-monotone submission: tick {now} after watermark "
                f"{mark}; feed out-of-order observations through "
                f"repro.stream.StreamingDetectionRuntime instead"
            )
        batch = list(entities)
        own = self._own
        own.entities_submitted += len(batch)
        own.batches_submitted += 1
        seq_map = self._seq_map
        for entity in batch:
            # pop-then-insert: a recycled id() must move to the dict
            # tail, or the head-prune below would stall on its old slot
            # (dict re-assignment keeps the original position).
            seq_map.pop(id(entity), None)
            seq_map[id(entity)] = (self._next_seq, now)
            self._next_seq += 1
        self._prune_seq_map(now)

        shard_batches: list[list[Entity]] = [[] for _ in self._engines]
        shard_flags: list[list[bool]] = [[] for _ in self._engines]
        for entity in batch:
            for shard, evaluate in self.router.route(entity):
                shard_batches[shard].append(entity)
                shard_flags[shard].append(evaluate)

        candidates: list[Match] = []
        contributors = 0
        for engine, sub_batch, flags in zip(
            self._engines, shard_batches, shard_flags
        ):
            if sub_batch:
                reported = engine.submit_batch(sub_batch, now, evaluate=flags)
                if reported:
                    candidates.extend(reported)
                    contributors += 1
            else:
                # A shard the batch does not route to still sees time
                # pass: advancing its clock keeps the min-merged
                # low_watermark tracking the stream instead of stalling
                # on whichever shard covers a quiet region.
                engine.advance(now)

        if not candidates:
            merged = []
        elif contributors == 1:
            # Single-contributor fast path: cooldown clocks are synced
            # after every contributing batch, so a lone shard's stream
            # is already deduplicated, canonically ordered and
            # cooldown-filtered — it IS the exact merged stream.
            merged = candidates
            last = self.merger.last_match
            for match in merged:
                last[match.spec.event_id] = now
            self._sync_cooldowns(candidates)
        else:
            merged = self.merger.merge(
                candidates, now, self._spec_index, self._seq_of
            )
            self._sync_cooldowns(candidates)
        own.matches += len(merged)
        return merged

    def _sync_cooldowns(self, candidates: Sequence[Match]) -> None:
        """Copy the authoritative cooldown clocks back into the shards.

        Only specs that produced a candidate this batch can have
        drifted (a losing shard stamped its own local match); everything
        else is already in sync.
        """
        last = self.merger.last_match
        for event_id in {match.spec.event_id for match in candidates}:
            authoritative = last.get(event_id)
            for engine in self._engines:
                engine.set_last_match(event_id, authoritative)

    def _seq_of(self, entity: Entity) -> int:
        return self._seq_map[id(entity)][0]

    def _prune_seq_map(self, now: int) -> None:
        """Drop arrival stamps too old to appear in any live window.

        Entries are insertion-ordered with non-decreasing ticks, so
        expired stamps are a prefix (as in the engine's dedup store).
        Any entity still inside a window arrived within the widest spec
        window and keeps its stamp; a recycled ``id`` is re-stamped at
        submission before it can ever be looked up.
        """
        horizon = now - (self._max_window + 1)
        drop_expired_prefix(self._seq_map, lambda stamp: stamp[1] < horizon)

    # -- event-time progress -------------------------------------------

    @property
    def low_watermark(self) -> int | None:
        """Min-merged event-time watermark across the shard engines.

        Each shard engine advances its own clock on every batch it sees
        (or is advanced past — see :meth:`submit_batch`); the sharded
        backend can only promise progress every shard has reached, so
        the merged watermark is the minimum, ``None`` while any shard
        is still fresh.  The streaming runtime reads this to decide how
        far the reorder buffer may release.
        """
        marks = [engine.low_watermark for engine in self._engines]
        if any(mark is None for mark in marks):
            return None
        return min(marks)

    def advance(self, now: int) -> None:
        """Advance every shard's event-time clock without submitting."""
        for engine in self._engines:
            engine.advance(now)

    # -- checkpoint / restore ------------------------------------------

    def snapshot(self) -> ShardedEngineSnapshot:
        """Capture the sharded backend's mutable state (see
        :class:`ShardedEngineSnapshot` for the in-process scope)."""
        merger = self.merger
        return ShardedEngineSnapshot(
            shards=tuple(engine.snapshot() for engine in self._engines),
            bounds=self.partitioner.bounds,
            merger_last_match=dict(merger.last_match),
            seq_map=tuple(self._seq_map.items()),
            next_seq=self._next_seq,
            own_stats=replace(self._own),
            merger_counts=(
                merger.candidates, merger.deduped, merger.suppressed,
                merger.emitted,
            ),
        )

    def restore(self, snapshot: ShardedEngineSnapshot) -> None:
        """Reset to a snapshot taken from an equivalently configured
        sharded engine (same specs, same shard count, same bounds —
        restored windows hold entities placed by the snapshotted
        router, so a different tiling would silently evaluate against
        wrong window contents).  Every shard snapshot is checked before
        any shard is touched, so a refused snapshot changes nothing."""
        if len(snapshot.shards) != len(self._engines):
            raise ObserverError(
                f"snapshot has {len(snapshot.shards)} shards, this engine "
                f"has {len(self._engines)}"
            )
        if snapshot.bounds != self.partitioner.bounds:
            raise ObserverError(
                f"snapshot was taken over bounds {snapshot.bounds!r}, "
                f"this engine tiles {self.partitioner.bounds!r}"
            )
        shards = tuple(zip(self._engines, snapshot.shards))
        for engine, shard_snapshot in shards:
            engine.ensure_restorable(shard_snapshot)
        for engine, shard_snapshot in shards:
            engine.restore(shard_snapshot)
        merger = self.merger
        merger.last_match.clear()
        merger.last_match.update(snapshot.merger_last_match)
        (
            merger.candidates, merger.deduped, merger.suppressed,
            merger.emitted,
        ) = snapshot.merger_counts
        self._seq_map = dict(snapshot.seq_map)
        self._next_seq = snapshot.next_seq
        self._own = replace(snapshot.own_stats)

    # -- aggregate stats ------------------------------------------------

    @property
    def stats(self) -> EngineStats:
        """Aggregated counters matching the single-engine surface.

        Submission counts and merged matches come from the
        sharded level (an entity mirrored into three shards still
        counts once; ``matches`` counts post-merge emissions);
        enumeration-side counters sum over the shard engines, whose raw
        ``matches`` tallies (see :meth:`shard_stats`) include the
        halo duplicates and same-tick race losers the merger removed.
        """
        return replace(
            EngineStats.merge(engine.stats for engine in self._engines),
            entities_submitted=self._own.entities_submitted,
            batches_submitted=self._own.batches_submitted,
            matches=self._own.matches,
        )

    def clear(self) -> None:
        """Drop all windows, stamps and merge state (specs stay)."""
        for engine in self._engines:
            engine.clear()
        self.merger.clear()
        self._seq_map.clear()

