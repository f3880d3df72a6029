"""Specification compilation: condition trees to pruning evaluation plans.

Brute-force detection enumerates every combination of window contents
and evaluates the full composite condition (Eq. 4.5) on each.  Most of
those bindings are doomed: a spec demanding ``g_distance(l_x, l_y) < 5``
can never match a candidate 80 units away, and ``t_x Before t_y`` can
never match a candidate that occurred after the pinned entity.  This
module compiles each :class:`~repro.core.spec.EventSpecification` into
an :class:`EvaluationPlan` that extracts such *prunable clauses* once,
at spec-install time, so the engine's binding enumeration only visits
candidates that can possibly match.

Extraction is deliberately conservative — a clause is prunable only
when it is **conjunctively necessary** (reachable from the condition
root through ``AND`` nodes only, never under ``OR`` or ``NOT``) and its
shape maps onto a column comparison of the role's
:class:`~repro.detect.role_window.RoleWindow`:

* ``SpatialMeasureCondition("distance", (a, b), <|<=, d)`` — *within*:
  rows farther than ``d`` from the pinned role's location are rejected;
* ``SpatialMeasureCondition("distance", (a, b), >|>=, d)`` — *beyond*:
  rows nearer than ``d`` to the pinned role's location are rejected;
* ``SpatialCondition(LocationOf(r) INSIDE LocationConst(field))`` (and
  the mirrored ``CONTAINS`` form) — *region*: rows outside the field's
  bounding box, then the exact containment test on the survivors;
* ``TemporalCondition(TimeOf(a) Before/After TimeOf(b))`` (offsets
  supported) — *order*: rows whose tick bounds rule the ordering out.

Everything else — disjunctions, negations, attribute conditions,
aggregate measures, group roles — is left to exact evaluation; a spec
with no extractable clause gets a plan with ``prunable == False`` and
the engine falls back to exhaustive enumeration.  Pruning therefore
never changes the match set, only the number of bindings evaluated
(verified by the differential tests in ``tests/detect/test_planner.py``).

A plan is **decisive** when its clauses are the whole condition: two
single roles, no group role, and an ``AND`` / leaf tree in which every
leaf became a within, beyond or order clause (the paper's S1 pair
shape).  The engine then pins each arrival once (:meth:`EvaluationPlan.pin`)
and its :class:`PairProbe` gives, per role the arrival fills, the other
role's surviving rows together with a list of proof flags: which of
them satisfy *every* clause on the columns alone — a distance clear of
the radius by the reject masks' margin, an order between known, closed
tick bounds — so the engine matches those without running the compiled
condition.  The flags come from the same pass as the masks: one array
of squared distances per window and arrival, shared by both roles when
they read one window.  Any other survivor, and every binding of every
other plan, is judged exactly as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Mapping, Sequence

import numpy as np

from repro.core.composite import And, ConditionNode, Leaf
from repro.core.conditions import (
    Condition,
    LocationConst,
    LocationOf,
    SpatialCondition,
    SpatialMeasureCondition,
    TemporalCondition,
    TimeOf,
)
from repro.core.entity import Entity
from repro.core.operators import RelationalOp, SpatialOp, TemporalOp
from repro.core.space_model import BoundingBox, Field, PointLocation
from repro.core.spec import EventSpecification
from repro.detect.role_window import RoleWindow, farther_sq, nearer_sq, tick_bounds

__all__ = [
    "DistanceClause",
    "RegionClause",
    "OrderClause",
    "EvaluationPlan",
    "PairProbe",
    "compile_plan",
]


@dataclass(frozen=True)
class DistanceClause:
    """Necessary clause on ``distance(l_a, l_b)`` against ``radius``.

    The plan field holding it names the side: ``distances`` are
    *within* clauses (``<= radius``), ``beyonds`` are ``>= radius``.
    """

    role_a: str
    role_b: str
    radius: float

    def other(self, role: str) -> str:
        return self.role_b if role == self.role_a else self.role_a


@dataclass(frozen=True)
class RegionClause:
    """Necessary clause: the role's point location lies inside a field."""

    role: str
    region: Field


@dataclass(frozen=True)
class OrderClause:
    """Necessary clause ``hi(earlier) + slack < lo(later)`` on occurrence ticks.

    Derived from ``TimeOf(earlier, oe) Before TimeOf(later, ol)`` (or the
    mirrored ``After``): any temporal relation admitting *Before* requires
    the earlier operand's latest tick (plus its offset) to precede the
    later operand's earliest tick, so ``slack = oe - ol``.
    """

    earlier: str
    later: str
    slack: int


def _conjunction_only(node: ConditionNode) -> bool:
    """Whether ``node`` is built of ``AND`` nodes and leaves alone."""
    if isinstance(node, Leaf):
        return True
    return isinstance(node, And) and all(map(_conjunction_only, node.children))


def _conjunctive_leaves(node: ConditionNode) -> list[Condition]:
    """Leaf conditions that must hold for *any* satisfying binding."""
    if isinstance(node, Leaf):
        return [node.condition]
    if isinstance(node, And):
        out: list[Condition] = []
        for child in node.children:
            out.extend(_conjunctive_leaves(child))
        return out
    return []  # Or / Not subtrees guarantee nothing about their leaves


@dataclass(frozen=True)
class EvaluationPlan:
    """Compiled pruning strategy for one specification.

    The engine consults the plan at two points of binding enumeration:

    * :meth:`target_feasible` — static clauses over the newly arrived
      (pinned) entity; a failed check skips the whole enumeration;
    * :meth:`candidates` — the role's admissible window subset given the
      already-pinned roles, computed from the columns of the role's
      :class:`~repro.detect.role_window.RoleWindow`.

    Both are superset guards: an entity is excluded only when a
    conjunctively-necessary clause provably cannot hold for it.  A
    ``decisive`` plan's arrivals go through :meth:`pin` instead, whose
    :class:`PairProbe` also proves (module docstring).
    """

    spec: EventSpecification
    distances: tuple[DistanceClause, ...] = ()
    beyonds: tuple[DistanceClause, ...] = ()
    regions: tuple[RegionClause, ...] = ()
    orders: tuple[OrderClause, ...] = ()
    decisive: bool = False

    @property
    def prunable(self) -> bool:
        """Whether any clause was extracted (else: exhaustive fallback)."""
        return bool(self.distances or self.beyonds or self.regions or self.orders)

    def describe(self) -> str:
        """Human-readable clause summary (for tracing and docs)."""
        parts = [
            *(f"dist({c.role_a},{c.role_b})<={c.radius:g}" for c in self.distances),
            *(f"dist({c.role_a},{c.role_b})>={c.radius:g}" for c in self.beyonds),
            *(f"{c.role} in {c.region!r}" for c in self.regions),
            *(f"{c.earlier}+{c.slack} before {c.later}" for c in self.orders),
        ]
        return " & ".join(parts) if parts else "<exhaustive>"

    def spatial_reach(self) -> float | None:
        """Upper bound on the pairwise distance any match can span.

        The sharded backend (:mod:`repro.shard`) routes an entity to its
        home shard plus every shard within this *reach* — if any two
        entities bound by one match are provably within ``reach`` of
        each other, every match is fully contained in some constituent's
        home shard, which is what makes shard-local evaluation exact.

        Derivation, over the conjunctively-necessary clauses only
        (``beyonds`` bound nothing from above and take no part):

        * a specification with group roles has no bound (a group binds
          the whole window regardless of location) — ``None``;
        * a single-role specification spans nothing — ``0.0``;
        * when the :class:`DistanceClause` graph connects every single
          role into one component, any two bound entities are linked by
          a clause path, so the sum of all clause radii bounds their
          distance;
        * otherwise each distance-connected component must carry a
          static anchor (a :class:`RegionClause`): the component is
          then confined to the anchor's bounding box inflated by the
          component's radius sum, and the diagonal of the union's
          bounding box bounds every cross-component distance;
        * any unanchored, unconnected role can match anywhere —
          ``None`` (the router falls back to broadcast).

        ``None`` therefore means "broadcast required", never "unknown":
        a finite return is a sound bound for *every* satisfying binding.
        """
        spec = self.spec
        if spec.group_roles:
            return None
        singles = list(spec.roles)  # no group roles past the guard above
        if len(singles) <= 1:
            return 0.0

        parent = {role: role for role in singles}

        def find(role: str) -> str:
            while parent[role] != role:
                parent[role] = parent[parent[role]]
                role = parent[role]
            return role

        for clause in self.distances:
            parent[find(clause.role_a)] = find(clause.role_b)

        component_sum: dict[str, float] = {}
        for clause in self.distances:
            root = find(clause.role_a)
            component_sum[root] = component_sum.get(root, 0.0) + clause.radius

        roots = {find(role) for role in singles}
        if len(roots) == 1:
            return component_sum.get(next(iter(roots)), 0.0)

        # Multiple components: each needs a static spatial anchor.
        anchors: dict[str, BoundingBox] = {}
        for clause in self.regions:
            root = find(clause.role)
            box = clause.region.bounding_box()
            if root not in anchors or box.area() < anchors[root].area():
                anchors[root] = box
        if roots - set(anchors):
            return None
        inflated = [
            anchors[root].expand(component_sum.get(root, 0.0)) for root in roots
        ]
        min_x = min(box.min_x for box in inflated)
        min_y = min(box.min_y for box in inflated)
        max_x = max(box.max_x for box in inflated)
        max_y = max(box.max_y for box in inflated)
        return math.hypot(max_x - min_x, max_y - min_y)

    # -- engine queries -------------------------------------------------

    def peer_roles(self, role: str) -> frozenset[str]:
        """Roles whose binding can change ``role``'s candidate set.

        The engine uses this to decide which roles' candidates must be
        recomputed inside binding recursion (a peer bound earlier in
        enumeration order) versus hoisted out and computed once.
        """
        peers: set[str] = set()
        for clause in self.distances + self.beyonds:
            if role in (clause.role_a, clause.role_b):
                peers.add(clause.other(role))
        for clause in self.orders:
            if clause.earlier == role:
                peers.add(clause.later)
            elif clause.later == role:
                peers.add(clause.earlier)
        return frozenset(peers)

    def target_feasible(self, role: str, entity: Entity) -> bool:
        """Whether static clauses permit the pinned entity in ``role``."""
        location = entity.occurrence_location
        if not isinstance(location, PointLocation):
            return True  # field-located entities are never pruned
        for clause in self.regions:
            if clause.role == role and not clause.region.contains_point(location):
                return False
        return True

    def candidates(
        self,
        role: str,
        pinned: Mapping[str, Entity],
        window: RoleWindow,
    ) -> Sequence[Entity] | None:
        """Admissible subset of ``window`` for ``role`` given pinned roles.

        Returns ``None`` when no clause restricts this role (the caller
        then enumerates the full window), an ordered entity list
        otherwise.  Every clause contributes one reject mask over the
        window's live rows; the masks are OR-ed and the rows left
        standing are returned in arrival order, so pruned enumeration
        visits the same bindings as exhaustive enumeration, minus
        provable non-matches.  A decisive plan's arrivals go through
        :meth:`pin` instead, which also proves.
        """
        masks = []
        for clauses, within in ((self.distances, True), (self.beyonds, False)):
            for clause in clauses:
                if role not in (clause.role_a, clause.role_b):
                    continue
                other = pinned.get(clause.other(role))
                if other is None:
                    continue
                anchor = other.occurrence_location
                if not isinstance(anchor, PointLocation):
                    continue  # field anchor: distance bound not point-reducible
                squared = window.distance_sq(anchor)
                if within:
                    masks.append(squared > farther_sq(clause.radius))
                else:
                    masks.append(squared < nearer_sq(clause.radius))
        regions = [c.region for c in self.regions if c.role == role]
        for region in regions:
            masks.append(window.outside(region.bounding_box()))

        # Temporal ordering constraints against pinned roles compare the
        # candidates' tick-bound columns with the pinned entity's bounds.
        for clause in self.orders:
            if clause.earlier == role and clause.later in pinned:
                pinned_lo, _ = tick_bounds(pinned[clause.later])
                if pinned_lo is not None:
                    masks.append(window.not_over_before(pinned_lo - clause.slack))
            elif clause.later == role and clause.earlier in pinned:
                pinned_lo, pinned_hi = tick_bounds(pinned[clause.earlier])
                if pinned_hi is not None:
                    masks.append(window.not_begun_after(pinned_hi + clause.slack))
                elif pinned_lo is not None:
                    # Open interval pinned as the earlier operand: Before
                    # can never hold, so no candidate can complete a match.
                    return ()
        if not masks:
            return None
        survivors = window.surviving(reduce(or_, masks))
        for region in regions:
            # The box mask is only the cheap first cut; field-located
            # entities are the exact condition's to judge, not ours.
            survivors = [
                entity
                for entity in survivors
                if not isinstance(entity.occurrence_location, PointLocation)
                or region.contains_point(entity.occurrence_location)
            ]
        return survivors

    def pin(self, entity: Entity) -> "PairProbe":
        """A decisive plan's candidates for one arrival (:class:`PairProbe`)."""
        return PairProbe(self, entity)

    @cached_property
    def _thresholds(self) -> tuple[tuple[float, float, bool], ...]:
        """Per distance clause: (reject bound, proof bound, within?)."""
        return (
            *((farther_sq(c.radius), nearer_sq(c.radius), True) for c in self.distances),
            *((nearer_sq(c.radius), farther_sq(c.radius), False) for c in self.beyonds),
        )


class PairProbe:
    """One arrival's candidates under a decisive plan.

    ``entity`` has just arrived; for each role it is pinned to,
    :meth:`candidates` returns the other role's window rows that no
    clause rejects, in arrival order, and which of them satisfy every
    clause on the columns alone.  The masks are those of
    :meth:`EvaluationPlan.candidates`, worked out in one pass per
    window: every distance clause reads one squared-distance array from
    the entity's location, and when both roles read one window (twin
    selectors) that array, its reject mask and its proof mask serve both
    pinned roles.  A probe lives for one arrival, so nothing it caches
    outlives a change to a window.
    """

    __slots__ = ("_plan", "_anchor", "_lo", "_hi", "_window", "_spatial")

    def __init__(self, plan: EvaluationPlan, entity: Entity):
        self._plan = plan
        location = entity.occurrence_location
        self._anchor = location if isinstance(location, PointLocation) else None
        self._lo, self._hi = tick_bounds(entity)
        self._window: RoleWindow | None = None
        self._spatial: tuple[np.ndarray | None, np.ndarray | None] = (None, None)

    def _masks(self, window: RoleWindow) -> tuple[np.ndarray | None, np.ndarray | None]:
        """The distance clauses' reject mask over ``window``'s live rows
        (``None``: none rejects) and the rows they, and the closed tick
        bounds an order clause needs, prove (``None``: nothing proves)."""
        if window is self._window:
            return self._spatial
        plan = self._plan
        thresholds = plan._thresholds
        rejected = proven = None
        if self._anchor is not None and thresholds:
            squared = window.distance_sq(self._anchor)
            for reject, prove, within in thresholds:
                # NaN rows compare False both ways: kept, and unproven.
                if within:
                    no, yes = squared > reject, squared < prove
                else:
                    no, yes = squared < reject, squared > prove
                rejected = no if rejected is None else rejected | no
                proven = yes if proven is None else proven & yes
        if (self._anchor is None and thresholds) or (
            plan.orders and self._hi is None
        ):
            proven = None  # a field anchor, or no closed pinned ticks
        elif plan.orders:
            closed = window.closed()
            proven = closed if proven is None else proven & closed
        self._window, self._spatial = window, (rejected, proven)
        return rejected, proven

    def candidates(
        self, role: str, window: RoleWindow
    ) -> tuple[list[int] | None, list[bool] | None]:
        """``(rows, proofs)`` of the other role's ``window`` with the
        entity pinned to ``role``.

        ``rows`` are live row numbers in arrival order, ``None`` when no
        clause restricts the role (every row stands); ``proofs`` are
        aligned with them, ``None`` when the entity's own location or
        ticks leave every row to the compiled condition.
        """
        rejected, proven = self._masks(window)
        lo, hi = self._lo, self._hi
        for clause in self._plan.orders:
            if clause.earlier == role:  # the candidate is the later one
                if hi is not None:
                    mask = window.not_begun_after(hi + clause.slack)
                elif lo is not None:
                    return [], None  # open and earlier: Before never holds
                else:
                    continue
            elif lo is not None:  # the candidate is the earlier one
                mask = window.not_over_before(lo - clause.slack)
            else:
                continue
            # Never in place: the twin role reads the cached mask too.
            rejected = mask if rejected is None else rejected | mask
        if rejected is None:
            return None, None
        rows = (~rejected).nonzero()[0]  # np.flatnonzero's result, minus its wrapper
        # A proven row is one the reject masks kept: the proof bounds lie
        # inside the reject bounds, and an order mask is exact on it.
        return rows.tolist(), None if proven is None else proven[rows].tolist()


def compile_plan(spec: EventSpecification) -> EvaluationPlan:
    """Compile a specification's condition tree into an evaluation plan."""
    singles = frozenset(spec.roles) - spec.group_roles
    distances: list[DistanceClause] = []
    beyonds: list[DistanceClause] = []
    regions: list[RegionClause] = []
    orders: list[OrderClause] = []

    leaves = _conjunctive_leaves(spec.condition)
    for cond in leaves:
        if isinstance(cond, SpatialMeasureCondition):
            if cond.measure != "distance":
                continue
            within = cond.op in (RelationalOp.LT, RelationalOp.LE)
            beyond = cond.op in (RelationalOp.GT, RelationalOp.GE)
            roles = cond.arg_roles
            if (
                (within or beyond)
                and len(roles) == 2
                and roles[0] != roles[1]
                and set(roles) <= singles
            ):
                (distances if within else beyonds).append(
                    DistanceClause(roles[0], roles[1], cond.constant)
                )
        elif isinstance(cond, SpatialCondition):
            if (
                cond.op is SpatialOp.INSIDE
                and isinstance(cond.lhs, LocationOf)
                and cond.lhs.role in singles
                and isinstance(cond.rhs, LocationConst)
                and isinstance(cond.rhs.value, Field)
            ):
                regions.append(RegionClause(cond.lhs.role, cond.rhs.value))
            elif (
                cond.op is SpatialOp.CONTAINS
                and isinstance(cond.rhs, LocationOf)
                and cond.rhs.role in singles
                and isinstance(cond.lhs, LocationConst)
                and isinstance(cond.lhs.value, Field)
            ):
                regions.append(RegionClause(cond.rhs.role, cond.lhs.value))
        elif isinstance(cond, TemporalCondition):
            lhs, rhs = cond.lhs, cond.rhs
            if not (isinstance(lhs, TimeOf) and isinstance(rhs, TimeOf)):
                continue
            if (
                lhs.role == rhs.role
                or lhs.role not in singles
                or rhs.role not in singles
            ):
                continue
            if cond.op is TemporalOp.BEFORE:
                orders.append(
                    OrderClause(lhs.role, rhs.role, lhs.offset - rhs.offset)
                )
            elif cond.op is TemporalOp.AFTER:
                orders.append(
                    OrderClause(rhs.role, lhs.role, rhs.offset - lhs.offset)
                )

    return EvaluationPlan(
        spec=spec,
        distances=tuple(distances),
        beyonds=tuple(beyonds),
        regions=tuple(regions),
        orders=tuple(orders),
        decisive=(
            len(singles) == len(spec.roles) == 2
            and _conjunction_only(spec.condition)
            and len(distances) + len(beyonds) + len(orders) == len(leaves)
        ),
    )
