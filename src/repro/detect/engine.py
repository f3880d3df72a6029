"""Incremental detection engine: entities in, matches and instances out.

An observer (mote, sink or CCU) owns one :class:`DetectionEngine`
loaded with its event specifications.  Arriving entities (physical
observations or event instances) are :meth:`submitted
<DetectionEngine.submit>` one at a time or, preferably, as per-tick
batches via :meth:`DetectionEngine.submit_batch`; the engine maintains
one window per distinct selector of a specification with more than one
role (a one-role specification binds only the arriving entity, so it
keeps none), enumerates candidate bindings that include each new
entity, evaluates each specification's composite condition tree
(Eq. 4.5), and returns the satisfied bindings as :class:`Match`
objects.  :mod:`repro.detect.output` then turns them into the
observer's output — the event instance 6-tuple of Eq. 4.7 — according
to the specification's :class:`~repro.core.spec.OutputPolicy`.

Enumeration is *plan-driven*: every installed specification is compiled
by :func:`repro.detect.planner.compile_plan` into an
:class:`~repro.detect.planner.EvaluationPlan` whose prunable clauses
(spatial distance/containment, temporal ordering) are answered as
boolean masks over the columns of each role's
:class:`~repro.detect.role_window.RoleWindow` instead of judging every
window entry in Python.  Specifications with no prunable clause
fall back to exhaustive enumeration with identical semantics; pruning
never changes the match set, only ``stats.bindings_evaluated`` (the
test suite's naive engine, ``tests/reference``, enumerates every
binding and judges it with the reference semantics, and the
differentials compare the two).  The masks reject, prove or leave to
the judge: a *decisive* plan (the S1 pair
shape, see :mod:`repro.detect.planner`) matches a candidate whose
columns satisfy every clause without running the compiled condition
(``stats.bindings_proven``); every other binding is judged by it.  A
decisive plan's arrival also runs its own loop over the window's
columns: the arrival's key is computed once, each candidate's comes
from the window's key column, and the distinctness and dedup tests run
on the identity tuple before any binding dict exists, so a dict and a
:class:`Match` are built only for a new binding that holds (or that the
judge must see).

Evaluation properties worth knowing:

* **identity** — a binding is identified by the tuple of its entities'
  provenance keys over ``spec.roles``, single roles first, then a
  frozenset of keys per group role.  Equal keys mean the same entity,
  however many objects carry them; both rules below read that tuple;
* **dedup** — a binding fires at most once per specification, so
  re-evaluations triggered by later arrivals (or redelivered copies)
  cannot re-emit old matches;
* **distinctness** — one entity cannot fill two single-entity roles of
  the same binding (the paper's ``x before y`` never pairs an entity
  with itself);
* **group roles** — a role declared in ``spec.group_roles`` binds the
  *entire current window content* as one group, which is how windowed
  aggregates ("average of the last 30 s of readings") are expressed;
* **cooldown** — after a match, a specification with a cooldown
  evaluates nothing until ``cooldown`` ticks have passed; a windowless
  one that is cooling when a batch starts skips that batch outright
  (no selector routing, no dedup prune), which changes no match;
* **error policy** — a binding whose evaluation raises a
  :class:`~repro.core.errors.BindingError` (e.g. an entity lacking the
  aggregated attribute) counts as a non-match and is tallied in
  :attr:`DetectionEngine.stats`, not raised: selectors should prevent
  this, but a single malformed entity must not wedge an observer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from itertools import repeat
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.checkpoint import (
    CONFIG,
    COUNT,
    TICK,
    TICK_OR_NONE,
    Domain,
    by_name,
    check,
    counters,
    declared,
    shaped,
)
from repro.core.conditions import Binding, LoweredPredicate
from repro.core.construction import slot_init
from repro.core.entity import Entity, entity_key
from repro.core.errors import (
    BindingError,
    ConditionError,
    ObserverError,
    SpatialError,
    TemporalError,
)
from repro.core.event import Event
from repro.core.instance import EventInstance, PhysicalObservation
from repro.core.spec import EventSpecification
from repro.detect.compiler import compile_condition
from repro.detect.planner import EvaluationPlan, compile_plan
from repro.detect.role_window import RoleWindow

__all__ = [
    "Match",
    "EngineStats",
    "EngineSnapshot",
    "DetectionEngine",
    "binding_identity",
    "drop_expired_prefix",
]


@slot_init
@dataclass(frozen=True, slots=True)
class Match:
    """One satisfied binding of a specification.

    ``key`` is the binding's identity (:func:`binding_identity`), the
    tuple the engine deduplicated it on; the engine fills it in, and a
    hand-built match may leave it ``None``.  It is derived from ``spec``
    and ``binding``, so it takes no part in equality.  For a spec without
    a group role it is also the emitted row's ``sources``
    (:mod:`repro.detect.output`), so the row keeps the dedup map's tuple.
    """

    spec: EventSpecification
    binding: Mapping[str, Entity | tuple[Entity, ...]]
    tick: int
    key: tuple | None = field(default=None, compare=False, repr=False)

    def entities(self) -> list[Entity]:
        """All bound entities, groups flattened, in ``spec.roles`` order."""
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
    # Of bindings_evaluated: matched on the columns' proof, not judged.
    bindings_proven: int = 0
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


def _tick_rows(
    text: str, entry: Callable[[object], bool], *, tick_at: int
) -> Domain:
    """Pairs of a tick (at ``tick_at``) and an ``entry``, in tick order."""
    entry_at = 1 - tick_at

    def within(rows: object) -> bool:
        if type(rows) is not tuple:
            return False
        last = None
        for row in rows:
            if not (
                type(row) is tuple
                and len(row) == 2
                and entry(row[entry_at])
                and TICK.test(tick := row[tick_at])
                and (last is None or last <= tick)
            ):
                return False
            last = tick
        return True

    return Domain(text, within)


def _is_identity(value: object) -> bool:
    """A binding identity: a tuple the dedup store can key on."""
    try:
        hash(value)
    except TypeError:
        return False
    return type(value) is tuple


# The concrete classes first: a protocol isinstance test walks the
# protocol's members on every call.
_ENTITIES = (PhysicalObservation, EventInstance, Event, Entity)
_WINDOW = _tick_rows(
    "(tick, entity) rows in tick order",
    lambda entity: isinstance(entity, _ENTITIES),
    tick_at=0,
)
_SEEN = _tick_rows(
    "(identity, tick) rows in tick order, each identity a hashable tuple",
    _is_identity,
    tick_at=1,
)


@dataclass(frozen=True)
class EngineSnapshot:
    """Checkpoint of one :class:`DetectionEngine`'s mutable state.

    Captures everything a mid-stream resume needs — window contents
    (with arrival ticks), the insertion-ordered dedup store (binding
    identity tuple -> match tick, see the module docstring), cooldown
    clocks, the event-time watermark and the counter state — keyed by
    the installed specification ids so a snapshot can only be restored
    into an engine watching the same specifications.  Windows are listed
    per role; roles that share one window carry the same entries, and a
    one-role specification, which keeps no window, lists no roles.  The
    windows' columns are *not* captured: they are derived from the
    entities, so restore rebuilds them exactly by re-adding the entries
    in order.

    Entities are shared by reference (they are immutable), which makes
    snapshots cheap: cost is proportional to live window content, not
    stream length.
    """

    spec_ids: tuple[str, ...] = declared(CONFIG)
    windows: Mapping[str, Mapping[str, tuple[tuple[int, Entity], ...]]] = (
        declared(by_name(by_name(_WINDOW)))
    )
    seen: Mapping[str, tuple[tuple[tuple, int], ...]] = declared(
        by_name(_SEEN)
    )
    last_match: Mapping[str, int] = declared(by_name(TICK))
    watermark: int | None = declared(TICK_OR_NONE)
    stats: EngineStats = declared(counters(EngineStats))
    tallies: Mapping[str, tuple[int, int]] = declared(
        by_name(shaped(COUNT, COUNT))
    )
    """Per-specification ``(bindings, matches)``, see
    :meth:`DetectionEngine.tallies`."""


class DetectionEngine:
    """Windowed, incremental, plan-driven evaluator for specifications.

    Args:
        specs: The event specifications to watch for.
    """

    def __init__(self, specs: Sequence[EventSpecification] = ()):
        self._specs: dict[str, EventSpecification] = {}
        # Per spec: role -> its window, and the distinct windows keyed by
        # the first role that selects into each (roles whose selectors
        # compare equal share one window, see add_spec).
        self._pools: dict[str, dict[str, RoleWindow]] = {}
        self._windows: dict[str, dict[str, RoleWindow]] = {}
        self._seen: dict[str, dict[tuple, int]] = {}
        self._last_match: dict[str, int] = {}
        self._plans: dict[str, EvaluationPlan] = {}
        self._compiled: dict[str, LoweredPredicate] = {}
        self._identity: dict[str, Callable[[Binding], tuple | None]] = {}
        self._volatile: dict[str, dict[str, frozenset[str]]] = {}
        self._watermark: int | None = None
        self.stats = EngineStats()
        self._tallies: dict[str, list[int]] = {}
        for spec in specs:
            self.add_spec(spec)

    def add_spec(self, spec: EventSpecification) -> None:
        """Install another specification (ids must be unique)."""
        if spec.event_id in self._specs:
            raise ObserverError(f"duplicate specification {spec.event_id!r}")
        self._specs[spec.event_id] = spec
        # A window's content is which entities were added when, and
        # equal selectors admit the same entities at the same ticks: the
        # twin roles of an S1 pair read one window, filled once.
        selectors = spec.selectors
        pools = self._pools[spec.event_id] = {}
        windows = self._windows[spec.event_id] = {}
        # A one-role spec's binding is the arriving entity alone: it
        # reads no window, so it keeps none.
        if len(spec.roles) > 1 or spec.group_roles:
            for role in spec.roles:
                twin = next(
                    (r for r in windows if selectors[r] == selectors[role]), role
                )
                if twin == role:
                    windows[role] = RoleWindow(spec.window)
                pools[role] = windows[twin]
        self._seen[spec.event_id] = {}
        self._tallies[spec.event_id] = [0, 0]
        plan = self._plans[spec.event_id] = compile_plan(spec)
        self._compiled[spec.event_id] = compile_condition(spec.condition)
        self._identity[spec.event_id] = binding_identity(spec)
        # Per target role, the roles whose candidates depend on the partial
        # binding: a prunable clause ties them to an earlier single role.
        volatile = self._volatile[spec.event_id] = dict.fromkeys(spec.roles, frozenset())
        if len(spec.roles) > 2:  # else there is no such role
            singles = [r for r in spec.roles if r not in spec.group_roles]
            for target in spec.roles:
                earlier = [r for r in singles if r != target]
                volatile[target] = frozenset(
                    role
                    for i, role in enumerate(earlier)
                    if plan.peer_roles(role) & set(earlier[:i])
                )

    def plan(self, event_id: str) -> EvaluationPlan:
        """Compiled evaluation plan of an installed specification."""
        try:
            return self._plans[event_id]
        except KeyError:
            raise ObserverError(f"no specification {event_id!r}") from None

    @property
    def specs(self) -> tuple[EventSpecification, ...]:
        """Installed specifications."""
        return tuple(self._specs.values())

    def tallies(self) -> dict[str, tuple[int, int]]:
        """``(bindings evaluated, matches)`` per installed specification,
        in installation order; they sum to :attr:`stats`' two counts."""
        return {event_id: tuple(t) for event_id, t in self._tallies.items()}

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
        per batch, and skipped for a windowless spec that is cooling at
        ``now`` (it can evaluate nothing); each entity is then inserted
        and evaluated in submission order.  The batch runs spec by spec,
        in installation order, where single :meth:`submit` calls at the
        same tick interleave the specs entity by entity; specs share no
        state, so what a batch keeps of those calls is each spec's own
        match sequence (role assignments and cooldown behavior
        included), every :attr:`stats` counter but
        ``batches_submitted``, and :meth:`tallies`.  The returned list is
        those sequences, spec after spec.

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
        for spec in self._specs.values():
            windows = self._windows[spec.event_id]
            if not windows and spec.cooldown:
                last = self._last_match.get(spec.event_id)
                if last is not None and now - last < spec.cooldown:
                    # A windowless spec cooling now cools for the whole
                    # batch: _evaluate_spec would return for each entity
                    # before touching state, and the dedup prune skipped
                    # here drops the same prefix at the next one.
                    continue
            staged: list[tuple[Entity, tuple[str, ...], bool]] = []
            for position, entity in enumerate(batch):
                roles = spec.candidate_roles(entity)
                if roles:
                    staged.append(
                        (entity, roles, True if flags is None else flags[position])
                    )
            if not staged:
                continue
            for window in windows.values():
                window.evict(now)  # one eviction sweep per batch
            # Two windows on, a binding can never be enumerated again.
            horizon = now - 2 * (spec.window + 1)
            drop_expired_prefix(self._seen[spec.event_id], horizon)
            for entity, roles, run in staged:
                for role in roles:
                    # A twin role's window is its first twin's: added to once.
                    window = windows.get(role)
                    if window is not None:
                        window.add(entity, now)
                if run:
                    matches.extend(self._evaluate_spec(spec, entity, roles, now))
        return matches

    def _evaluate_spec(
        self,
        spec: EventSpecification,
        entity: Entity,
        candidate_roles: tuple[str, ...],
        now: int,
    ) -> list[Match]:
        last = self._last_match.get(spec.event_id)
        if (
            spec.cooldown
            and last is not None
            and now - last < spec.cooldown
        ):
            return []
        if self._plans[spec.event_id].decisive:
            return self._evaluate_pair(spec, entity, candidate_roles, now)
        seen = self._seen[spec.event_id]
        # The compiled flat closure: pre-resolved operators, cheapest
        # conjunct first.
        evaluator = self._compiled[spec.event_id]
        identify = self._identity[spec.event_id]
        matches: list[Match] = []
        evaluated = 0
        cooling = False
        for target_role in candidate_roles:
            for binding in self._enumerate(spec, target_role, entity):
                key = identify(binding)
                if key is None or key in seen:
                    continue
                evaluated += 1
                try:
                    holds = evaluator(binding)
                except (BindingError, ConditionError, TemporalError, SpatialError):
                    # A binding the condition cannot judge (missing
                    # attribute, open interval in a closed-interval
                    # relation, ...) is a non-match, not an observer
                    # crash; the tally keeps it visible.
                    self.stats.evaluation_errors += 1
                    continue
                if holds:
                    seen[key] = now
                    matches.append(Match(spec, binding, now, key))
                    self._last_match[spec.event_id] = now
                    if spec.cooldown:
                        # Entering cooldown suppresses the rest of THIS
                        # spec's enumeration only; other specs in the
                        # same submit/batch still evaluate normally.
                        cooling = True
                        break
            if cooling:
                break
        self._count(spec, evaluated, 0, len(matches))
        return matches

    def _evaluate_pair(
        self,
        spec: EventSpecification,
        entity: Entity,
        candidate_roles: tuple[str, ...],
        now: int,
    ) -> list[Match]:
        """:meth:`_evaluate_spec` for a decisive plan, in one loop over
        window columns.

        The same bindings in the same order as :meth:`_enumerate`, with
        the same counts: the target role holds ``entity``, the other role
        each surviving row of its window in arrival order.  The identity
        ``(first key, second key)`` is built from the entity's key and
        the window's key column, and the distinctness and dedup tests
        run on it; a binding dict exists only for a new, distinct binding
        the judge must see or that holds.
        """
        event_id = spec.event_id
        seen = self._seen[event_id]
        judge = self._compiled[event_id]
        pools = self._pools[event_id]
        first, second = spec.roles
        pinned = entity_key(entity)
        probe = self._plans[event_id].pin(entity)
        stats = self.stats
        cooldown = spec.cooldown
        matches: list[Match] = []
        evaluated = proven = 0
        for target_role in candidate_roles:
            leads = target_role == first
            window = pools[second if leads else first]
            size = len(window)
            if not size:
                continue
            rows, proofs = probe.candidates(target_role, window)
            keys, entities = window.keys(), window.entities()
            if rows is None:
                rows = range(size)
            else:
                stats.candidates_pruned += size - len(rows)
            for row, proof in zip(rows, proofs or repeat(False)):
                key = keys[row]
                if key == pinned:
                    continue  # one entity in both roles
                key = (pinned, key) if leads else (key, pinned)
                if key in seen:
                    continue
                evaluated += 1
                choice = entities[row]
                binding = (
                    {first: entity, second: choice}
                    if leads
                    else {first: choice, second: entity}
                )
                if proof:
                    # The columns settle every clause: the judge would agree.
                    proven += 1
                else:
                    try:
                        if not judge(binding):
                            continue
                    except (BindingError, ConditionError, TemporalError, SpatialError):
                        stats.evaluation_errors += 1  # as in _evaluate_spec
                        continue
                seen[key] = now
                matches.append(Match(spec, binding, now, key))
                if cooldown:
                    break  # cooling: the rest of this arrival waits
            if matches and cooldown:
                break
        if matches:
            self._last_match[event_id] = now
        self._count(spec, evaluated, proven, len(matches))
        return matches

    def _count(
        self, spec: EventSpecification, evaluated: int, proven: int, found: int
    ) -> None:
        """Add one call's counts to the stats and the spec's tally: once
        per call, not per binding."""
        if evaluated:
            stats = self.stats
            stats.bindings_evaluated += evaluated
            stats.bindings_proven += proven
            stats.matches += found
            tally = self._tallies[spec.event_id]
            tally[0] += evaluated
            tally[1] += found

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
        prunable = plan.prunable
        if prunable and not plan.target_feasible(target_role, entity):
            full = 1
            for role in spec.roles:
                if role == target_role or role in spec.group_roles:
                    continue
                full *= len(pools[role])
            self.stats.candidates_pruned += full
            return

        roles = spec.roles
        groups = spec.group_roles
        pinned: dict[str, Entity] = {target_role: entity}

        def options(role: str) -> Sequence[object] | None:
            if role in groups:
                group = tuple(pools[role].entities())
                return (group,) if group else None
            if role == target_role:
                return (entity,)
            window = pools[role]
            if not len(window):
                return None
            if prunable:
                pruned = plan.candidates(role, pinned, window)
                if pruned is not None:
                    self.stats.candidates_pruned += len(window) - len(pruned)
                    return pruned if pruned else None
            return window.entities()

        # Every option list but a volatile role's (group tuples, static
        # region masks, full window copies, clauses against the pinned
        # target) is computed once per enumeration; a volatile role's
        # when — and only when — a partial binding reaches it, walking
        # depth-first with one candidate iterator per depth.
        volatile = self._volatile[spec.event_id][target_role]
        static = {role: options(role) for role in roles if role not in volatile}
        last = len(roles) - 1
        binding: dict[str, Entity | tuple[Entity, ...]] = {}
        stack = [iter(static[roles[0]] or ())]
        while stack:
            depth = len(stack) - 1
            role = roles[depth]
            for choice in stack[-1]:
                binding[role] = choice
                if role != target_role and role not in groups:
                    pinned[role] = choice
                if depth == last:
                    yield dict(binding)
                    continue
                deeper = roles[depth + 1]
                found = options(deeper) if deeper in volatile else static[deeper]
                if found is not None:
                    stack.append(iter(found))
                    break
            else:
                stack.pop()
                if role != target_role:
                    pinned.pop(role, None)

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
        windows = {}
        for event_id, pools in self._pools.items():
            # Twin roles carry the one tuple of their shared window.
            entries = {
                id(window): window.entries()
                for window in self._windows[event_id].values()
            }
            windows[event_id] = {
                role: entries[id(window)] for role, window in pools.items()
            }
        return EngineSnapshot(
            spec_ids=tuple(self._specs),
            windows=windows,
            seen={
                event_id: tuple(seen.items())
                for event_id, seen in self._seen.items()
            },
            last_match=dict(self._last_match),
            watermark=self._watermark,
            # A copy ~2 us cheaper than replace(): ~250 snapshots a pass.
            stats=EngineStats(**vars(self.stats)),
            tallies=self.tallies(),
        )

    def restore(self, snapshot: EngineSnapshot) -> None:
        """Reset this engine to a snapshot taken from an equivalent one,
        once :meth:`ensure_restorable` has passed (a refused snapshot
        changes nothing); its future match stream is then the
        snapshotted engine's."""
        self.ensure_restorable(snapshot)
        self.install(snapshot)

    def install(self, snapshot: EngineSnapshot) -> None:
        """Install an accepted snapshot.  Windows are rebuilt by re-adding
        their entries in FIFO order, as the original submissions did."""
        self.clear()
        for event_id, windows in self._windows.items():
            for role, window in windows.items():
                for tick, entity in snapshot.windows[event_id][role]:
                    window.add(entity, tick)
        for event_id, entries in snapshot.seen.items():
            self._seen[event_id].update(entries)
        self._last_match.update(snapshot.last_match)
        self._watermark = snapshot.watermark
        self.stats = replace(snapshot.stats)
        self._tallies = {
            event_id: list(t) for event_id, t in snapshot.tallies.items()
        }

    def ensure_restorable(self, snapshot: EngineSnapshot) -> None:
        """Refuse a snapshot of other specs (by id, in installation
        order) or one no run of this engine leaves: a spec with other
        roles (a one-role spec has none), twin roles with different
        windows, a window, dedup or cooldown tick past the watermark, or
        dedup stores, cooldown clocks or tallies of specs it does not
        watch (tallies name each spec once)."""
        check(snapshot, EngineSnapshot, spec_ids=tuple(self._specs))
        watermark = snapshot.watermark
        for event_id, pools in self._pools.items():
            saved = snapshot.windows.get(event_id, {})
            if saved.keys() != pools.keys():
                raise ObserverError(
                    f"EngineSnapshot.windows of spec {event_id!r} has roles "
                    f"{sorted(saved)}, this engine's has {sorted(pools)}"
                )
            windows = self._windows[event_id]
            for role, window in pools.items():
                twin = next(r for r, w in windows.items() if w is window)
                if saved[role] != saved[twin]:
                    # One shared window could hold only one of the two.
                    raise ObserverError(
                        f"EngineSnapshot.windows of spec {event_id!r} gives "
                        f"roles {twin!r} and {role!r} different windows, but "
                        f"their selectors admit the same entities"
                    )
            # Rows are in tick order (their domain): the last is newest.
            # A clock ahead of the stream would silence the spec.
            newest = [rows[-1][0] for rows in saved.values() if rows]
            if snapshot.seen.get(event_id):
                newest.append(snapshot.seen[event_id][-1][1])
            if event_id in snapshot.last_match:
                newest.append(snapshot.last_match[event_id])
            if newest and (watermark is None or max(newest) > watermark):
                raise ObserverError(
                    f"EngineSnapshot of spec {event_id!r} holds tick "
                    f"{max(newest)}, past the watermark {watermark}"
                )
        specs = self._specs.keys()
        named = snapshot.seen.keys() | snapshot.last_match.keys()
        if not named <= specs or snapshot.tallies.keys() != specs:
            raise ObserverError(
                f"EngineSnapshot.seen, .last_match and .tallies name specs "
                f"{sorted(named | snapshot.tallies.keys())}, this engine "
                f"watches {sorted(self._specs)} (tallies each once)"
            )

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
        for windows in self._windows.values():
            for window in windows.values():
                window.clear()
        for seen in self._seen.values():
            seen.clear()
        self._last_match.clear()
        self._watermark = None


# ----------------------------------------------------------------------
# lowering: per-specification closures, built once
# ----------------------------------------------------------------------

def binding_identity(spec: EventSpecification) -> Callable[[Binding], tuple | None]:
    """``binding -> identity`` for one specification (module docstring),
    ``None`` when two single roles hold the same entity."""
    singles = [role for role in spec.roles if role not in spec.group_roles]
    groups = [role for role in spec.roles if role in spec.group_roles]

    if len(singles) == 2 and not groups:
        first, second = singles

        def pair(binding: Binding) -> tuple | None:
            a, b = entity_key(binding[first]), entity_key(binding[second])
            return None if a == b else (a, b)

        return pair

    def identity(binding: Binding) -> tuple | None:
        key = [entity_key(binding[role]) for role in singles]
        if len(set(key)) != len(key):
            return None
        key += [frozenset(map(entity_key, binding[role])) for role in groups]
        return tuple(key)

    return identity


def drop_expired_prefix(entries: dict, horizon: int) -> None:
    """Drop the leading entries of an insertion-ordered dict whose value
    is below ``horizon``, in one scan per call: popping the head entry by
    entry re-walks, per pop, the slots earlier pops left in the dict."""
    doomed = []
    for key, value in entries.items():
        if value >= horizon:
            break
        doomed.append(key)
    for key in doomed:
        del entries[key]
