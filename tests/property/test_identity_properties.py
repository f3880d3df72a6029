"""Binding identity under redelivery (hypothesis).

An entity *is* its provenance key: two objects carrying equal keys are
one entity delivered twice.  The engine reads every binding through one
identity — the tuple, over ``spec.roles``, of those keys (a frozenset at
a group role) — so a redelivered copy can neither pair with its
original nor make a binding fire again, whichever engine enumerates it
and wherever a checkpoint cuts the history.

Histories re-submit earlier entities as *distinct, equal* objects: in
the batch of the original, at a later tick, before or after the partner
that completes a binding, inside and beside a group role.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.core.composite import all_of
from repro.core.conditions import (
    AttributeCondition,
    AttributeTerm,
    SpatialMeasureCondition,
    TemporalCondition,
    TimeOf,
)
from repro.core.instance import PhysicalObservation
from repro.core.operators import RelationalOp, TemporalOp
from repro.core.space_model import PointLocation
from repro.core.spec import EntitySelector, EventSpecification
from repro.core.time_model import TimePoint
from repro.detect.engine import DetectionEngine, binding_identity

from tests.reference import NaiveEngine

NEAR = 12.0


def near(a, b):
    return SpatialMeasureCondition("distance", (a, b), RelationalOp.LT, NEAR)


def selectors(*roles):
    return {role: EntitySelector(kinds={"value"}) for role in roles}


def spec_of(shape, window, cooldown):
    """The shapes the enumerator and the identity treat differently."""
    if shape == "symmetric":  # both role orders of a pair are bindings
        roles, condition, groups = ("a", "b"), near("a", "b"), ()
    elif shape == "ordered":
        roles, groups = ("a", "b"), ()
        condition = all_of(
            TemporalCondition(TimeOf("a"), TemporalOp.BEFORE, TimeOf("b")),
            near("a", "b"),
        )
    elif shape == "chain":  # c's candidates depend on the b being tried
        roles, groups = ("a", "b", "c"), ()
        condition = all_of(near("a", "b"), near("b", "c"))
    else:  # "grouped": a pair beside everything in the window
        roles, groups = ("a", "b", "g"), ("g",)
        condition = all_of(
            near("a", "b"),
            AttributeCondition(
                "count", (AttributeTerm("g", "value"),), RelationalOp.GE, 2.0
            ),
        )
    return EventSpecification(
        event_id=shape,
        selectors=selectors(*roles),
        condition=condition,
        window=window,
        cooldown=cooldown,
        group_roles=groups,
    )


@st.composite
def histories(draw):
    """``(spec, [(tick, batch), ...])`` with redelivered copies mixed in."""
    spec = spec_of(
        draw(st.sampled_from(["symmetric", "ordered", "chain", "grouped"])),
        window=draw(st.integers(0, 6)),
        cooldown=draw(st.sampled_from([0, 0, 3])),
    )
    delivered = []
    batches = []
    tick = 0
    for _ in range(draw(st.integers(2, 10))):
        tick += draw(st.integers(0, 4))
        batch = []
        for _ in range(draw(st.integers(1, 4))):
            if delivered and draw(st.booleans()):
                # A distinct object with the key (and content) of an
                # entity delivered before — possibly in this very batch.
                entity = replace(draw(st.sampled_from(delivered)))
            else:
                entity = PhysicalObservation(
                    f"MT{len(delivered)}", "SR", 0, TimePoint(tick),
                    PointLocation(
                        draw(st.integers(0, 3)) * 5.0, draw(st.integers(0, 3)) * 5.0
                    ),
                    {"value": 1.0},
                )
            delivered.append(entity)
            batch.append(entity)
        batches.append((tick, batch))
    return spec, batches


def fired(engine, batches):
    """``[(identity, tick, binding)]`` for every match, in order."""
    out = []
    for tick, batch in batches:
        for match in engine.submit_batch(batch, tick):
            identity = binding_identity(match.spec)(match.binding)
            out.append((identity, match.tick, match.binding))
    return out


@settings(max_examples=300, deadline=None)
@given(histories(), st.data())
def test_redelivered_copies_never_pair_never_refire(history, data):
    spec, batches = history
    planned = fired(DetectionEngine([spec]), batches)
    naive = fired(NaiveEngine([spec]), batches)
    assert [(i, t) for i, t, _ in planned] == [(i, t) for i, t, _ in naive]

    singles = [role for role in spec.roles if role not in spec.group_roles]
    last_fired = {}
    for identity, tick, binding in planned:
        assert identity is not None
        keys = [binding[role].key for role in singles]
        assert len(set(keys)) == len(keys), "an entity paired with its own copy"
        if identity in last_fired:
            # Bounded state: a binding may fire again only once its
            # dedup entry has aged out, two windows after it fired.
            assert tick - last_fired[identity] > 2 * (spec.window + 1)
        last_fired[identity] = tick

    # A checkpoint anywhere, restored into a fresh engine, continues
    # the identical match stream (the dedup store round-trips).
    cut = data.draw(st.integers(0, len(batches)))
    first = DetectionEngine([spec])
    head = fired(first, batches[:cut])
    resumed = DetectionEngine([spec])
    resumed.restore(first.snapshot())
    tail = fired(resumed, batches[cut:])
    assert [(i, t) for i, t, _ in head + tail] == [(i, t) for i, t, _ in planned]
