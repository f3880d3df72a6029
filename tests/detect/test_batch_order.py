"""What a batch promises against per-entity submission (hypothesis).

:meth:`~repro.detect.engine.DetectionEngine.submit_batch` runs spec by
spec: every entity of the batch for the first installed specification,
then every entity for the next.  Per-entity :meth:`submit` calls at the
same tick interleave the specifications instead.  So what must agree is
each specification's own match sequence (ticks, identities, role
assignments), every counter but the batch count, and the per-spec
tallies; within one batch, the matches come in installation order.
Engines hold two or three specifications drawn from one-role gates,
decisive pairs (``before`` and ``distance <``), a ``distance >`` pair, a
three-role chain and a single role beside a group role, each with its
own window and cooldown; histories redeliver copies of earlier entities
and draw coordinates up to 1e300.
"""

from hypothesis import given, settings, strategies as st

from repro.core.composite import all_of
from repro.core.conditions import (
    AttributeCondition,
    AttributeTerm,
    SpatialMeasureCondition,
    TemporalCondition,
    TimeOf,
)
from repro.core.entity import entity_key
from repro.core.instance import PhysicalObservation
from repro.core.operators import RelationalOp, TemporalOp
from repro.core.space_model import PointLocation
from repro.core.spec import EntitySelector, EventSpecification
from repro.core.time_model import TimePoint
from repro.detect.engine import DetectionEngine, binding_identity

from tests.detect.test_one_role import counts, histories, hot, one_by_one


def distance(a, b, op, radius):
    return SpatialMeasureCondition("distance", (a, b), op, radius)


def before(a, b):
    return TemporalCondition(TimeOf(a), TemporalOp.BEFORE, TimeOf(b))


SHAPES = {
    "gate": (("e",), (), lambda: hot("e")),
    "pair": (
        ("a", "b"), (),
        lambda: all_of(before("a", "b"), distance("a", "b", RelationalOp.LT, 40.0)),
    ),
    "apart": (("a", "b"), (), lambda: distance("a", "b", RelationalOp.GT, 30.0)),
    "chain": (
        ("a", "b", "c"), (),
        lambda: all_of(
            distance("a", "b", RelationalOp.LT, 50.0),
            distance("b", "c", RelationalOp.LT, 50.0),
        ),
    ),
    "group": (
        ("a", "g"), ("g",),
        lambda: all_of(
            hot("a"),
            AttributeCondition(
                "count", (AttributeTerm("g", "value"),), RelationalOp.GE, 2.0
            ),
        ),
    ),
}


@st.composite
def specs(draw, event_id):
    roles, groups, condition = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    return EventSpecification(
        event_id=event_id,
        selectors={role: EntitySelector(kinds={"value"}) for role in roles},
        condition=condition(),
        window=draw(st.integers(0, 6)),
        cooldown=draw(st.integers(0, 4)),
        group_roles=groups,
    )


engines = st.integers(2, 3).flatmap(
    lambda n: st.tuples(*(specs(f"s{i}") for i in range(n)))
)


def role_keys(match):
    """The binding as role -> provenance key(s): equal entities, equal
    keys, however many copies carry them."""
    return tuple(
        (role, tuple(map(entity_key, bound)) if isinstance(bound, tuple)
         else entity_key(bound))
        for role, bound in sorted(match.binding.items())
    )


def feed(engine, batches):
    """Per spec id, ``(tick, identity, role keys)`` of each match in
    emission order; and per call, the installation index of each match."""
    order = {spec.event_id: i for i, spec in enumerate(engine.specs)}
    out = {event_id: [] for event_id in order}
    calls = []
    for tick, batch in batches:
        matches = engine.submit_batch(batch, tick)
        calls.append([order[match.spec.event_id] for match in matches])
        for match in matches:
            identity = binding_identity(match.spec)(match.binding)
            assert match.key == identity  # the engine hands on its dedup key
            out[match.spec.event_id].append((match.tick, identity, role_keys(match)))
    return out, calls


@settings(max_examples=200, deadline=None)
@given(installed=engines, batches=histories())
def test_a_batch_keeps_each_specs_order_and_every_count(installed, batches):
    batched = DetectionEngine(installed)
    single = DetectionEngine(installed)
    matched, calls = feed(batched, batches)
    alone, _ = feed(single, one_by_one(batches))
    # Each specification's own sequence, role assignments included.
    assert matched == alone
    # Every counter but the batch count, and the per-spec tallies.
    assert counts(batched) == counts(single)
    assert batched.tallies() == single.tallies()
    assert batched.stats.batches_submitted == len(batches)
    assert single.stats.batches_submitted == sum(len(b) for _, b in batches)
    # Within a batch, spec by spec in installation order.
    for indices in calls:
        assert indices == sorted(indices)


def test_per_entity_calls_interleave_where_a_batch_does_not():
    # The one difference, pinned on one case: two gates that both match
    # both entities of one batch.
    gates = [
        EventSpecification(
            event_id=name,
            selectors={"e": EntitySelector(kinds={"value"})},
            condition=hot("e"),
        )
        for name in ("first", "second")
    ]
    batch = [
        PhysicalObservation(
            f"MT{i}", "SR1", i, TimePoint(4), PointLocation(float(i), 0.0),
            {"value": 90.0},
        )
        for i in range(2)
    ]
    batched, single = DetectionEngine(gates), DetectionEngine(gates)
    order = [m.spec.event_id for m in batched.submit_batch(batch, 4)]
    interleaved = [
        m.spec.event_id for entity in batch for m in single.submit(entity, 4)
    ]
    assert order == ["first", "first", "second", "second"]
    assert interleaved == ["first", "second", "first", "second"]
    assert counts(batched) == counts(single)
