"""Incremental detection engine: entities in, matches and instances out.

An observer (mote, sink or CCU) owns one :class:`DetectionEngine`
loaded with its event specifications.  Arriving entities (physical
observations or event instances) are :meth:`submitted
<DetectionEngine.submit>` one at a time or, preferably, as per-tick
batches via :meth:`DetectionEngine.submit_batch`; the engine maintains
per-role windows, enumerates candidate bindings that include each new
entity, evaluates each specification's composite condition tree
(Eq. 4.5), and returns the satisfied bindings as :class:`Match`
objects.  :func:`build_instance` then materializes the observer's
output — the event instance 6-tuple of Eq. 4.7 — according to the
specification's :class:`~repro.core.spec.OutputPolicy`.

Enumeration is *plan-driven*: every installed specification is compiled
by :func:`repro.detect.planner.compile_plan` into an
:class:`~repro.detect.planner.EvaluationPlan` whose prunable clauses
(spatial distance/containment, temporal ordering) are answered as
boolean masks over the columns of each role's
:class:`~repro.detect.role_window.RoleWindow` instead of judging every
window entry in Python.  Specifications with no prunable clause
fall back to exhaustive enumeration with identical semantics; pruning
never changes the match set, only ``stats.bindings_evaluated``
(pass ``use_planner=False`` to force the brute-force path, which the
scalability benchmarks use as the comparison baseline).

Evaluation properties worth knowing:

* **dedup** — a binding (as a set of role/entity pairs) fires at most
  once per specification, so re-evaluations triggered by later arrivals
  cannot re-emit old matches;
* **distinctness** — one entity cannot fill two single-entity roles of
  the same binding (the paper's ``x before y`` never pairs an entity
  with itself);
* **group roles** — a role declared in ``spec.group_roles`` binds the
  *entire current window content* as one group, which is how windowed
  aggregates ("average of the last 30 s of readings") are expressed;
* **error policy** — a binding whose evaluation raises a
  :class:`~repro.core.errors.BindingError` (e.g. an entity lacking the
  aggregated attribute) counts as a non-match and is tallied in
  :attr:`DetectionEngine.stats`, not raised: selectors should prevent
  this, but a single malformed entity must not wedge an observer.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from time import perf_counter
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.conditions import Binding
from repro.core.entity import (
    Entity,
    confidence_of,
    entity_key,
    keys_of,
    numeric_attribute,
)
from repro.core.errors import (
    BindingError,
    ConditionError,
    ObserverError,
    SpatialError,
    TemporalError,
)
from repro.core.event import EventLayer
from repro.core.instance import EventInstance, ObserverId
from repro.core.space_model import PointLocation, SpatialEntity
from repro.core.spec import EventSpecification
from repro.core.time_model import TemporalEntity, TimePoint
from repro.core.aggregates import space_aggregate, time_aggregate, value_aggregate
from repro.detect.compiler import CompiledCondition, compile_condition
from repro.detect.confidence import fuse
from repro.detect.planner import EvaluationPlan, compile_plan
from repro.detect.role_window import RoleWindow

__all__ = [
    "Match",
    "EngineStats",
    "EngineSnapshot",
    "DetectionEngine",
    "build_instance",
    "emit_payload",
]


@dataclass(frozen=True)
class Match:
    """One satisfied binding of a specification."""

    spec: EventSpecification
    binding: Mapping[str, Entity | tuple[Entity, ...]]
    tick: int

    def entities(self) -> list[Entity]:
        """All bound entities, groups flattened, in ``spec.roles`` order.

        ``spec.roles`` is already the canonical sorted role order, so
        iterating it avoids re-sorting the binding keys on every
        materialized match (instance ``sources`` ordering is pinned by
        a regression test).
        """
        out: list[Entity] = []
        binding = self.binding
        for role in self.spec.roles:
            bound = binding.get(role)
            if bound is None:
                continue
            if isinstance(bound, tuple):
                out.extend(bound)
            else:
                out.append(bound)
        return out


@dataclass
class EngineStats:
    """Counters the scalability benchmarks read."""

    entities_submitted: int = 0
    batches_submitted: int = 0
    bindings_evaluated: int = 0
    candidates_pruned: int = 0
    matches: int = 0
    evaluation_errors: int = 0
    # The predicate memo is gone; the frozen ledger still reads these by name.
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def pruned_ratio(self) -> float:
        """Share of considered candidates the plan rejected unevaluated."""
        pruned = self.candidates_pruned or 0
        total = pruned + (self.bindings_evaluated or 0)
        return pruned / total if total else 0.0

    @classmethod
    def merge(cls, parts: Iterable["EngineStats"]) -> "EngineStats":
        """Roll up a collection of engine stats field by field.

        The canonical roll-up for multi-engine aggregation — per-shard
        stats inside :class:`~repro.shard.engine.ShardedDetectionEngine`
        and per-observer stats in the benchmark ledger — so
        ``candidates_pruned``/``bindings_evaluated`` totals never need
        ad-hoc dict math.  Every field is a flow, so every field sums;
        derived values (:attr:`pruned_ratio`) recompute from the
        rolled-up counters.
        """
        total = cls()
        names = [spec.name for spec in fields(cls)]
        for part in parts:
            for name in names:
                setattr(total, name, getattr(total, name) + getattr(part, name))
        return total


@dataclass(frozen=True)
class EngineSnapshot:
    """Checkpoint of one :class:`DetectionEngine`'s mutable state.

    Captures everything a mid-stream resume needs — window contents
    (with arrival ticks), the insertion-ordered dedup store, cooldown
    clocks, the event-time watermark and the counter state — keyed by
    the installed specification ids so a snapshot can only be restored
    into an engine watching the same specifications.  The windows'
    columns are *not* captured: they are derived from the entities, so
    restore rebuilds them exactly by re-adding the entries in order.

    Entities are shared by reference (they are immutable), which makes
    snapshots cheap: cost is proportional to live window content, not
    stream length.
    """

    spec_ids: tuple[str, ...]
    windows: Mapping[str, Mapping[str, tuple[tuple[int, Entity], ...]]]
    seen: Mapping[str, tuple[tuple[frozenset, int], ...]]
    last_match: Mapping[str, int]
    watermark: int | None
    stats: EngineStats


class DetectionEngine:
    """Windowed, incremental, plan-driven evaluator for specifications.

    Args:
        specs: The event specifications to watch for.
        use_planner: Evaluate through compiled
            :class:`~repro.detect.planner.EvaluationPlan` pruning
            (default).  ``False`` forces exhaustive enumeration — same
            match sets, more bindings evaluated — which the benchmarks
            use as the naive baseline.
    """

    def __init__(
        self,
        specs: Sequence[EventSpecification] = (),
        *,
        use_planner: bool = True,
    ):
        self._specs: dict[str, EventSpecification] = {}
        self._pools: dict[str, dict[str, RoleWindow]] = {}
        self._seen: dict[str, dict[frozenset, int]] = {}
        self._last_match: dict[str, int] = {}
        self._plans: dict[str, EvaluationPlan] = {}
        self._compiled: dict[str, CompiledCondition] = {}
        self._watermark: int | None = None
        self.use_planner = use_planner
        self.stats = EngineStats()
        self.telemetry_registry = None
        self._spec_obs: dict[str, tuple] | None = None
        self._obs_labels: dict[str, str] = {}
        for spec in specs:
            self.add_spec(spec)

    def attach_telemetry(self, registry, **labels: object) -> None:
        """Route per-spec evaluation counters into a metrics registry.

        Installs three series per specification —
        ``engine_spec_bindings_total``, ``engine_spec_matches_total``
        and ``engine_spec_evaluation_seconds_total`` (volatile:
        wall-clock-derived) — labeled ``spec=<event id>`` plus any extra
        labels (the sharded backend passes ``shard=<i>``).  Pure
        observation: attaching never changes evaluation order, match
        sets or the flat :attr:`stats`; detached engines pay nothing.
        """
        self.telemetry_registry = registry
        self._obs_labels = {str(k): str(v) for k, v in labels.items()}
        self._spec_obs = {}
        for event_id in self._specs:
            self._install_spec_obs(event_id)

    def _install_spec_obs(self, event_id: str) -> None:
        registry = self.telemetry_registry
        labels = dict(self._obs_labels, spec=event_id)
        self._spec_obs[event_id] = (
            registry.counter(
                "engine_spec_bindings_total",
                "Candidate bindings evaluated, per specification",
                **labels,
            ),
            registry.counter(
                "engine_spec_matches_total",
                "Satisfied bindings, per specification",
                **labels,
            ),
            registry.counter(
                "engine_spec_evaluation_seconds_total",
                "Wall-clock seconds spent evaluating, per specification",
                volatile=True,
                **labels,
            ),
        )

    def add_spec(self, spec: EventSpecification) -> None:
        """Install another specification (ids must be unique)."""
        if spec.event_id in self._specs:
            raise ObserverError(f"duplicate specification {spec.event_id!r}")
        self._specs[spec.event_id] = spec
        self._pools[spec.event_id] = {
            role: RoleWindow(spec.window) for role in spec.roles
        }
        self._seen[spec.event_id] = {}
        self._plans[spec.event_id] = compile_plan(spec)
        self._compiled[spec.event_id] = compile_condition(spec.condition)
        if self._spec_obs is not None:
            self._install_spec_obs(spec.event_id)

    def plan(self, event_id: str) -> EvaluationPlan:
        """Compiled evaluation plan of an installed specification."""
        try:
            return self._plans[event_id]
        except KeyError:
            raise ObserverError(f"no specification {event_id!r}") from None

    def compiled(self, event_id: str) -> CompiledCondition:
        """Compiled condition evaluator of an installed specification."""
        try:
            return self._compiled[event_id]
        except KeyError:
            raise ObserverError(f"no specification {event_id!r}") from None

    @property
    def specs(self) -> tuple[EventSpecification, ...]:
        """Installed specifications."""
        return tuple(self._specs.values())

    def spec(self, event_id: str) -> EventSpecification:
        """Installed specification by event id."""
        try:
            return self._specs[event_id]
        except KeyError:
            raise ObserverError(f"no specification {event_id!r}") from None

    # -- evaluation ----------------------------------------------------

    def submit(self, entity: Entity, now: int) -> list[Match]:
        """Feed one entity; return every *new* match it completes."""
        return self.submit_batch((entity,), now)

    def submit_batch(
        self,
        entities: Iterable[Entity],
        now: int,
        *,
        evaluate: Sequence[bool] | None = None,
    ) -> list[Match]:
        """Feed a batch of co-arriving entities; return every new match.

        All entities share the arrival tick ``now``.  Selector routing,
        window eviction and dedup pruning are amortized once per spec
        per batch; each entity is then inserted and evaluated in
        submission order — exactly the sequence of operations an
        equivalent series of single :meth:`submit` calls at the same
        tick performs, so match sets, role assignments and cooldown
        behavior are identical to unbatched submission.

        Args:
            entities: The co-arriving batch.
            now: Shared arrival tick.
            evaluate: Optional per-entity flags (aligned with
                ``entities``).  A ``False`` entry inserts the entity
                into its role windows *without* enumerating
                the bindings it triggers — the sharded backend marks
                halo mirrors this way, because a mirrored entity's own
                matches are enumerated by its owner shard while this
                shard only needs it as binding material for local
                triggers.  ``None`` evaluates everything.
        """
        if self._watermark is not None and now < self._watermark:
            # Window eviction and dedup pruning both assume time moves
            # forward; a regressing tick would silently corrupt them.
            # Out-of-order streams belong in repro.stream's reorder
            # buffer, which re-establishes event-time order before the
            # engine ever sees a batch.
            raise ObserverError(
                f"non-monotone submission: tick {now} after watermark "
                f"{self._watermark}; feed out-of-order observations through "
                f"repro.stream.StreamingDetectionRuntime instead"
            )
        batch = list(entities)
        flags = None if evaluate is None else list(evaluate)
        if flags is not None and len(flags) != len(batch):
            raise ObserverError(
                f"evaluate has {len(flags)} flags for a batch of "
                f"{len(batch)} entities"
            )
        self._watermark = now
        self.stats.entities_submitted += len(batch)
        self.stats.batches_submitted += 1
        matches: list[Match] = []
        spec_obs = self._spec_obs
        for spec in self._specs.values():
            staged: list[tuple[Entity, tuple[str, ...], bool]] = []
            for position, entity in enumerate(batch):
                roles = spec.candidate_roles(entity)
                if roles:
                    staged.append(
                        (entity, roles, True if flags is None else flags[position])
                    )
            if not staged:
                continue
            if spec_obs is not None:
                spec_started = perf_counter()
                bindings_before = self.stats.bindings_evaluated
                matches_before = self.stats.matches
            pools = self._pools[spec.event_id]
            for window in pools.values():
                window.evict(now)  # one eviction sweep per batch
            self._prune_seen(self._seen[spec.event_id], now, spec.window)
            for entity, roles, run in staged:
                for role in roles:
                    pools[role].add(entity, now)
                if run:
                    matches.extend(self._evaluate_spec(spec, entity, roles, now))
            if spec_obs is not None:
                bindings, matched, seconds = spec_obs[spec.event_id]
                bindings.inc(self.stats.bindings_evaluated - bindings_before)
                matched.inc(self.stats.matches - matches_before)
                seconds.inc(perf_counter() - spec_started)
        return matches

    def _evaluate_spec(
        self,
        spec: EventSpecification,
        entity: Entity,
        candidate_roles: tuple[str, ...],
        now: int,
    ) -> list[Match]:
        seen = self._seen[spec.event_id]
        last = self._last_match.get(spec.event_id)
        if (
            spec.cooldown
            and last is not None
            and now - last < spec.cooldown
        ):
            return []
        # The planner path evaluates through the compiled flat closure
        # (pre-resolved operators, cheapest conjunct first); the naive
        # path keeps interpreting the raw tree as the differential baseline.
        evaluator = self._compiled[spec.event_id].fn if self.use_planner else None
        matches: list[Match] = []
        cooling = False
        for target_role in candidate_roles:
            for binding in self._enumerate(spec, target_role, entity):
                if not self._distinct(binding, spec):
                    continue
                key = self._binding_key(binding)
                if key in seen:
                    continue
                self.stats.bindings_evaluated += 1
                try:
                    if evaluator is not None:
                        holds = evaluator(binding)
                    else:
                        holds = spec.condition.evaluate(binding)
                except (BindingError, ConditionError, TemporalError, SpatialError):
                    # A binding the condition cannot judge (missing
                    # attribute, open interval in a closed-interval
                    # relation, ...) is a non-match, not an observer
                    # crash; the tally keeps it visible.
                    self.stats.evaluation_errors += 1
                    continue
                if holds:
                    seen[key] = now
                    self.stats.matches += 1
                    matches.append(Match(spec, binding, now))
                    self._last_match[spec.event_id] = now
                    if spec.cooldown:
                        # Entering cooldown suppresses the rest of THIS
                        # spec's enumeration only; other specs in the
                        # same submit/batch still evaluate normally.
                        cooling = True
                        break
            if cooling:
                break
        return matches

    def _enumerate(
        self,
        spec: EventSpecification,
        target_role: str,
        entity: Entity,
    ) -> Iterator[dict[str, Entity | tuple[Entity, ...]]]:
        """Candidate bindings pinning ``entity`` to ``target_role``.

        Enumeration follows the exhaustive nested-product order over
        ``spec.roles`` (window arrival order within each role), with the
        plan's prunable clauses filtering each role's candidates against
        already-pinned roles.  The pruned sequence is always an ordered
        subsequence of the exhaustive one, so match ordering is
        preserved.  ``submit_batch`` has already evicted every window
        at the current tick.
        """
        pools = self._pools[spec.event_id]
        plan = self._plans[spec.event_id]
        planned = self.use_planner and plan.prunable
        if planned and not plan.target_feasible(target_role, entity):
            full = 1
            for role in spec.roles:
                if role == target_role or role in spec.group_roles:
                    continue
                full *= len(pools[role])
            self.stats.candidates_pruned += full
            return

        roles = spec.roles
        pinned: dict[str, Entity] = {target_role: entity}

        def options(role: str) -> Sequence[object] | None:
            window = pools[role]
            if role in spec.group_roles:
                group = tuple(window.entities())
                return (group,) if group else None
            if role == target_role:
                return (entity,)
            if not len(window):
                return None
            if planned:
                pruned = plan.candidates(role, pinned, window)
                if pruned is not None:
                    self.stats.candidates_pruned += len(window) - len(pruned)
                    return pruned if pruned else None
            return window.entities()

        # Candidates depend on the recursion state only for roles with a
        # prunable clause against an earlier-enumerated single role; all
        # other option lists (group tuples, static region masks, full
        # window copies, clauses against the pinned target) are computed
        # once per enumeration, not once per partial binding.
        volatile: set[str] = set()
        if planned:
            earlier_dynamic: set[str] = set()
            for role in roles:
                if role == target_role or role in spec.group_roles:
                    continue
                if plan.peer_roles(role) & earlier_dynamic:
                    volatile.add(role)
                earlier_dynamic.add(role)
        static_options = {
            role: options(role) for role in roles if role not in volatile
        }

        binding: dict[str, Entity | tuple[Entity, ...]] = {}

        def rec(position: int) -> Iterator[dict]:
            if position == len(roles):
                yield dict(binding)
                return
            role = roles[position]
            choices = (
                options(role) if role in volatile else static_options[role]
            )
            if choices is None:
                return
            single = role not in spec.group_roles and role != target_role
            for choice in choices:
                binding[role] = choice
                if single:
                    pinned[role] = choice
                yield from rec(position + 1)
            binding.pop(role, None)
            if single:
                pinned.pop(role, None)

        yield from rec(0)

    @staticmethod
    def _distinct(binding: Binding, spec: EventSpecification) -> bool:
        singles = [
            entity_key(bound)
            for role, bound in binding.items()
            if role not in spec.group_roles
        ]
        return len(singles) == len(set(singles))

    @staticmethod
    def _binding_key(binding: Mapping[str, object]) -> frozenset:
        parts = []
        for role, bound in binding.items():
            if isinstance(bound, tuple):
                parts.append((role, frozenset(entity_key(e) for e in bound)))
            else:
                parts.append((role, entity_key(bound)))
        return frozenset(parts)

    @staticmethod
    def _prune_seen(seen: dict[frozenset, int], now: int, window: int) -> None:
        """Drop dedup entries too old to ever be re-enumerated.

        ``seen`` is insertion-ordered with non-decreasing match ticks
        (``now`` never runs backwards in a live system), so expired keys
        cluster at the front: popping from the head until a live entry
        appears is amortized O(1) per submit and keeps the dict bounded
        by the number of matches inside the retention horizon — the old
        implementation rescanned every key once the dict passed 1024
        entries, O(n) per submit.
        """
        horizon = now - 2 * (window + 1)
        while seen:
            key = next(iter(seen))
            if seen[key] >= horizon:
                break
            del seen[key]

    # -- event-time progress -------------------------------------------

    @property
    def low_watermark(self) -> int | None:
        """Highest tick this engine has been advanced to (``None`` = fresh).

        Submissions below the watermark raise
        :class:`~repro.core.errors.ObserverError`; equal ticks are fine
        (several batches may share a tick).
        """
        return self._watermark

    def advance(self, now: int) -> None:
        """Advance the event-time watermark without submitting anything.

        The sharded backend calls this on shards a batch does not route
        to, so every shard's clock — and therefore the min-merged
        :attr:`ShardedDetectionEngine.low_watermark
        <repro.shard.engine.ShardedDetectionEngine.low_watermark>` —
        tracks the stream instead of stalling on quiet regions.  Window
        eviction stays lazy (it happens on the next touching batch), so
        advancing is O(1) and behavior-neutral.
        """
        if self._watermark is not None and now < self._watermark:
            raise ObserverError(
                f"cannot advance watermark backwards: tick {now} after "
                f"{self._watermark}"
            )
        self._watermark = now

    # -- checkpoint / restore ------------------------------------------

    def snapshot(self) -> EngineSnapshot:
        """Capture the engine's mutable state for a later :meth:`restore`.

        The snapshot is consistent as of the last completed
        :meth:`submit_batch`: windows (with arrival ticks), dedup
        entries in insertion order, cooldown clocks, the watermark and
        the stats counters.  Specs, plans and compiled conditions are
        *configuration*, not state — they are identified by id and must
        already be installed in the engine a snapshot is restored into.
        """
        return EngineSnapshot(
            spec_ids=tuple(self._specs),
            windows={
                event_id: {
                    role: window.entries() for role, window in pools.items()
                }
                for event_id, pools in self._pools.items()
            },
            seen={
                event_id: tuple(seen.items())
                for event_id, seen in self._seen.items()
            },
            last_match=dict(self._last_match),
            watermark=self._watermark,
            stats=replace(self.stats),
        )

    def restore(self, snapshot: EngineSnapshot) -> None:
        """Reset this engine to a snapshot taken from an equivalent one.

        The engine must watch exactly the snapshot's specifications (by
        id, in installation order, with the same roles) — restore
        rebuilds windows (by re-adding their entries in FIFO order, the
        same sequence of operations the original submissions
        performed), dedup stores and cooldown clocks, after which the
        engine's future match stream is indistinguishable from the
        snapshotted engine's.  A refused snapshot changes nothing.
        """
        if tuple(self._specs) != snapshot.spec_ids:
            raise ObserverError(
                f"snapshot watches specs {snapshot.spec_ids}, this engine "
                f"watches {tuple(self._specs)}"
            )
        for event_id, pools in self._pools.items():
            roles = snapshot.windows.get(event_id, ())
            if set(roles) != set(pools):
                raise ObserverError(
                    f"snapshot of spec {event_id!r} has roles "
                    f"{sorted(roles)}, this engine's has {sorted(pools)}"
                )
        self.clear()
        for event_id, pools in self._pools.items():
            for role, window in pools.items():
                for tick, entity in snapshot.windows[event_id][role]:
                    window.add(entity, tick)
        for event_id, entries in snapshot.seen.items():
            self._seen[event_id].update(entries)
        self._last_match.update(snapshot.last_match)
        self._watermark = snapshot.watermark
        self.stats = replace(snapshot.stats)

    def set_last_match(self, event_id: str, tick: int | None) -> None:
        """Override one specification's cooldown clock.

        The sharded backend (:mod:`repro.shard`) arbitrates cooldowns
        centrally: after merging a batch it writes the authoritative
        last-match tick back into every shard engine so a shard whose
        local candidate lost a same-tick race neither starts its
        cooldown late nor suppresses matches the merged stream would
        accept.  ``None`` clears the clock (no match yet).
        """
        if event_id not in self._specs:
            raise ObserverError(f"no specification {event_id!r}")
        if tick is None:
            self._last_match.pop(event_id, None)
        else:
            self._last_match[event_id] = tick

    def clear(self) -> None:
        """Drop all windows and dedup state (specs stay)."""
        for pools in self._pools.values():
            for window in pools.values():
                window.clear()
        for seen in self._seen.values():
            seen.clear()
        self._last_match.clear()
        self._watermark = None


# ----------------------------------------------------------------------
# instance construction (Eq. 4.7 via the OutputPolicy)
# ----------------------------------------------------------------------

def _estimate_time(policy_time: str, entities: Sequence[Entity]) -> TemporalEntity:
    times = [e.occurrence_time for e in entities]
    return time_aggregate(policy_time)(times)


def _estimate_location(
    policy_space: str, entities: Sequence[Entity]
) -> SpatialEntity:
    locations = [e.occurrence_location for e in entities]
    return space_aggregate(policy_space)(locations)


def build_instance(
    match: Match,
    observer: ObserverId,
    seq: int,
    generated_time: TimePoint,
    generated_location: PointLocation,
    layer: EventLayer,
    instance_cls: type[EventInstance] = EventInstance,
) -> EventInstance:
    """Materialize the observer's output instance from a match.

    Applies the specification's :class:`~repro.core.spec.OutputPolicy`:
    ``t_eo`` from the policy's time aggregate over the bound entities,
    ``l_eo`` from its space aggregate, output attributes from their
    recipes, and ``rho`` by fusing the inputs' confidences.

    Args:
        match: The satisfied binding.
        observer: Identity of the emitting observer (``OB_id``).
        seq: Instance sequence number ``i`` at this observer.
        generated_time: ``t_g`` (the observer's current time).
        generated_location: ``l_g`` (the observer's position).
        layer: Hierarchy layer of the emitted instance.
        instance_cls: Concrete instance class
            (:class:`~repro.core.instance.SensorEventInstance`, ...).
    """
    spec = match.spec
    entities = match.entities()
    policy = spec.output

    attributes: dict[str, object] = {}
    for recipe in policy.attributes:
        values: list[float] = []
        for term in recipe.terms:
            bound = match.binding.get(term.role)
            if bound is None:
                raise ObserverError(
                    f"output attribute {recipe.name!r} references unbound "
                    f"role {term.role!r}"
                )
            group = bound if isinstance(bound, tuple) else (bound,)
            values.extend(numeric_attribute(e, term.attribute) for e in group)
        attributes[recipe.name] = value_aggregate(recipe.aggregate)(values)

    rho = fuse(policy.confidence, [confidence_of(e) for e in entities])
    space_policy = "centroid" if policy.space == "location" and len(entities) > 1 else policy.space
    if space_policy == "location":
        estimated_location = entities[0].occurrence_location
    else:
        estimated_location = _estimate_location(space_policy, entities)

    return instance_cls(
        observer=observer,
        event_id=spec.event_id,
        seq=seq,
        generated_time=generated_time,
        generated_location=generated_location,
        estimated_time=_estimate_time(policy.time, entities),
        estimated_location=estimated_location,
        attributes=attributes,
        confidence=rho,
        layer=layer,
        sources=keys_of(entities),
    )


def emit_payload(instance: EventInstance) -> dict[str, object]:
    """The ``instance.emit`` trace-row payload.  Live observers and the
    streaming replay both write it from here: the conformance suite
    splices replayed rows into live traces and compares digests."""
    return {
        "event_id": instance.event_id,
        "seq": instance.seq,
        "layer": instance.layer.name,
        "edl": instance.detection_latency,
        "rho": instance.confidence,
    }
