"""Halo routing: which shards must see each arriving entity.

For every installed specification the router derives a *halo width* —
the maximum pairwise distance a match of that specification can span
(:meth:`~repro.detect.planner.EvaluationPlan.spatial_reach`), padded by
:data:`~repro.core.space_model.EPS` to absorb float slop.  An arriving
entity is delivered to its home shard plus every shard whose region
lies within the widest halo of any specification that selects it.

Exactness argument: take any satisfying binding of a specification with
halo ``h`` and let ``P`` be the home shard of one constituent ``e``.
Every other constituent is within ``h`` of ``e`` (that is what the halo
bounds), so ``P``'s region — which contains ``e``'s clamped location —
is within ``h`` of each of them, and halo routing delivers them all to
``P``.  The complete binding is therefore enumerated by ``P``'s engine
at exactly the tick the single engine enumerates it; duplicates from
other shards are removed by the :class:`~repro.shard.merger.MatchMerger`.

Fallbacks keep the guarantee for everything the halo derivation cannot
bound (:meth:`spatial_reach` returning ``None``):

* an unbounded specification **without group roles** pins its entities
  to one *designated* shard (shard 0): that shard holds the spec's full
  windows, so it reports the complete match set, while partial windows
  in other shards (fed by overlapping specs) can only enumerate window
  *subsets* — every binding they report is one the single engine also
  enumerates, and the merger deduplicates it.  This keeps unplannable
  specs at single-engine cost instead of ``shards``-fold;
* an unbounded specification **with group roles** broadcasts to all
  shards: a group binds a role's *entire window content*, so a partial
  window would fabricate subset-group bindings the single engine never
  produces — full windows everywhere make every shard's group matches
  identical, and dedup keeps one;
* entities without a point location (field events) broadcast to all
  shards, mirroring the never-reject rule for unlocated rows of
  :class:`~repro.detect.role_window.RoleWindow` — with no position there
  is no home shard, and they must be able to bind anywhere;
* entities no specification selects are dropped before routing — they
  are no-ops in every engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.entity import Entity
from repro.core.space_model import EPS, PointLocation
from repro.core.spec import EventSpecification
from repro.shard.partitioner import WorldPartitioner

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.detect.planner import EvaluationPlan

__all__ = ["ObservationRouter", "RouterStats", "BROADCAST", "DESIGNATED"]

BROADCAST = "broadcast"
"""Routing mode: deliver to every shard (group-role specs)."""

DESIGNATED = "designated"
"""Routing mode: pin to the designated shard (unbounded non-group specs)."""

_DESIGNATED_SHARD = 0
"""Shard that holds the full windows of every unbounded non-group spec."""


@dataclass
class RouterStats:
    """Routing tallies the sharding benchmarks and tests read."""

    routed: int = 0
    """Entities assigned at least one shard."""
    dropped: int = 0
    """Entities no installed specification selects (sent nowhere)."""
    broadcasts: int = 0
    """Entities delivered to every shard (group spec or no point)."""
    halo_copies: int = 0
    """Deliveries beyond the first shard (halo overlap or pinning)."""


class ObservationRouter:
    """Assigns each batch entity its home shard plus halo shards."""

    def __init__(self, partitioner: WorldPartitioner):
        self.partitioner = partitioner
        self._specs: list[tuple[EventSpecification, object]] = []
        self._all = tuple(range(partitioner.shard_count))
        self._everywhere = tuple((shard, True) for shard in self._all)
        self.stats = RouterStats()

    def add_spec(self, spec: EventSpecification, plan: "EvaluationPlan") -> None:
        """Register a specification with its compiled evaluation plan."""
        reach = plan.spatial_reach()
        if reach is None:
            mode: object = BROADCAST if spec.group_roles else DESIGNATED
        else:
            mode = reach + EPS
        self._specs.append((spec, mode))

    def mode_of(self, event_id: str) -> object:
        """Routing mode of one spec: halo width, BROADCAST or DESIGNATED."""
        for spec, mode in self._specs:
            if spec.event_id == event_id:
                return mode
        raise KeyError(event_id)

    def route(self, entity: Entity) -> Sequence[tuple[int, bool]]:
        """``(shard, evaluate)`` deliveries for this entity (may be empty).

        The union of every selecting specification's requirement: halo
        specs contribute home-plus-neighbors within the widest halo,
        designated specs contribute the designated shard, and any
        broadcast spec (or a missing point location) expands to all.

        The flag marks the shards that must *enumerate* the bindings
        this entity triggers — its home shard (halo specs) and the
        designated shard (unbounded specs).  Everywhere else the entity
        is a window-only mirror: its own matches are owned by the
        evaluating shards (whose windows provably hold the complete
        bindings), so re-enumerating them would only manufacture the
        duplicates the merger then has to discard.  Entities without a
        point location have no home, so they evaluate everywhere and
        the merger deduplicates.
        """
        halo = -1.0
        pinned = False
        mirror_everywhere = False
        selected = False
        for spec, mode in self._specs:
            if not spec.candidate_roles(entity):
                continue
            selected = True
            if mode is BROADCAST:
                mirror_everywhere = True
                pinned = True  # the designated shard owns its matches
            elif mode is DESIGNATED:
                pinned = True
            elif mode > halo:
                halo = mode
        if not selected:
            self.stats.dropped += 1
            return ()
        self.stats.routed += 1
        location = entity.occurrence_location
        if not isinstance(location, PointLocation):
            # No home shard: mirror and evaluate everywhere, the merger
            # deduplicates (mirrors the RoleWindow unlocated-row rule).
            self.stats.broadcasts += 1
            self.stats.halo_copies += len(self._everywhere) - 1
            return self._everywhere
        home = self.partitioner.shard_of(location) if halo >= 0.0 else None
        if mirror_everywhere:
            self.stats.broadcasts += 1
            deliveries = [
                (shard, shard == home or shard == _DESIGNATED_SHARD)
                for shard in self._all
            ]
            self.stats.halo_copies += len(deliveries) - 1
            return deliveries
        if home is None:
            # Only designated (unbounded, non-group) specs select it.
            return ((_DESIGNATED_SHARD, True),)
        targets = self.partitioner.shards_within(location, halo)
        deliveries = [
            (shard, shard == home or (pinned and shard == _DESIGNATED_SHARD))
            for shard in targets
        ]
        if pinned and _DESIGNATED_SHARD not in targets:
            deliveries.insert(0, (_DESIGNATED_SHARD, True))
        self.stats.halo_copies += len(deliveries) - 1
        return deliveries
