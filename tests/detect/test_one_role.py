"""One-role specifications keep no window (hypothesis differential).

A one-role specification without a group role binds only the arriving
entity, so :class:`~repro.detect.engine.DetectionEngine` keeps no
:class:`~repro.detect.role_window.RoleWindow` for it, and one that is
cooling when a batch starts skips the batch outright.  Neither may
change a match, a counter or a resumed tail.  Histories draw window
widths and cooldowns from 0 up, a region or near-point gate (so the
planner's ``target_feasible`` rejects and counts), coordinates up to
1e300, and redelivered copies of earlier entities; the planned engine
fed in batches must agree with per-entity :meth:`submit`, with
``use_planner=False`` and with the reference below, and a checkpoint
cut anywhere must resume with the identical tail.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.composite import all_of
from repro.core.conditions import (
    AttributeCondition,
    AttributeTerm,
    LocationConst,
    LocationOf,
    SpatialCondition,
)
from repro.core.errors import ObserverError
from repro.core.instance import PhysicalObservation
from repro.core.operators import RelationalOp, SpatialOp
from repro.core.space_model import BoundingBox, PointLocation
from repro.core.spec import EntitySelector, EventSpecification
from repro.core.time_model import TimePoint
from repro.detect.engine import DetectionEngine, binding_identity
from repro.detect.role_window import RoleWindow

from tests.integration.test_conformance import _run


def hot(role):
    return AttributeCondition(
        "last", (AttributeTerm(role, "value"),), RelationalOp.GT, 50.0
    )


GATES = {
    "region": lambda role: SpatialCondition(
        LocationOf(role), SpatialOp.INSIDE, LocationConst(BoundingBox(-40, -40, 40, 40))
    ),
    "none": None,
}


@st.composite
def one_role_specs(draw, event_id):
    gate = GATES[draw(st.sampled_from(sorted(GATES)))]
    return EventSpecification(
        event_id=event_id,
        selectors={"e": EntitySelector(kinds={"value"})},
        condition=hot("e") if gate is None else all_of(gate("e"), hot("e")),
        window=draw(st.integers(0, 12)),
        cooldown=draw(st.integers(0, 10)),
    )


small = st.floats(-80.0, 80.0, allow_nan=False)
huge = st.floats(-1e300, 1e300, allow_nan=False)


@st.composite
def histories(draw):
    """``[(tick, [entity, ...]), ...]`` with ticks rising, some batches
    holding redelivered copies (equal keys, new objects) of earlier
    entities."""
    batches = []
    made = []
    tick = 0
    for _ in range(draw(st.integers(1, 30))):
        tick += draw(st.integers(0, 4))
        batch = []
        for _ in range(draw(st.integers(1, 4))):
            if made and draw(st.booleans()) and draw(st.booleans()):
                batch.append(replace(draw(st.sampled_from(made))))
                continue
            entity = PhysicalObservation(
                f"MT{draw(st.integers(0, 3))}",
                "SR1",
                len(made),
                TimePoint(tick),
                PointLocation(draw(st.one_of(small, huge)), draw(small)),
                {"value": draw(st.floats(0.0, 100.0))},
            )
            made.append(entity)
            batch.append(entity)
        batches.append((tick, batch))
    return batches


def feed(engine, batches):
    """``(tick, identity)`` per match, in emission order, per spec id.

    A batch runs spec by spec, so only each spec's own order is the
    order per-entity submission gives."""
    out = {spec.event_id: [] for spec in engine.specs}
    for tick, batch in batches:
        for match in engine.submit_batch(batch, tick):
            identity = binding_identity(match.spec)(match.binding)
            out[match.spec.event_id].append((match.tick, identity))
    return out


def one_by_one(batches):
    return [(tick, [entity]) for tick, batch in batches for entity in batch]


def reference(specs, batches):
    """The rules of the module docstring over a one-role spec, by hand:
    cooldown first, then dedup within ``2 * (window + 1)`` ticks, then
    the condition on the arriving entity alone."""
    out = {spec.event_id: [] for spec in specs}
    seen = {spec.event_id: {} for spec in specs}
    last = {}
    for tick, batch in batches:
        for entity in batch:
            for spec in specs:
                if not spec.candidate_roles(entity):
                    continue
                clock = last.get(spec.event_id)
                if spec.cooldown and clock is not None and tick - clock < spec.cooldown:
                    continue
                horizon = tick - 2 * (spec.window + 1)
                keys = seen[spec.event_id]
                key = (entity.key,)
                if keys.get(key, horizon - 1) >= horizon:
                    continue
                if spec.condition.evaluate({"e": entity}):
                    keys[key] = tick
                    last[spec.event_id] = tick
                    out[spec.event_id].append((tick, key))
    return out


def counts(engine):
    """Stats without the batch count, which only batching changes."""
    return replace(engine.stats, batches_submitted=0)


spec_pairs = st.tuples(one_role_specs("gate"), one_role_specs("other"))


class TestOneRoleDifferential:
    @settings(max_examples=200, deadline=None)
    @given(specs=spec_pairs, batches=histories())
    def test_batched_planned_equals_single_naive_and_reference(self, specs, batches):
        batched = DetectionEngine(specs)
        single = DetectionEngine(specs)
        naive = DetectionEngine(specs, use_planner=False)
        matched = feed(batched, batches)
        assert matched == feed(single, one_by_one(batches))
        assert matched == feed(naive, batches)
        assert matched == reference(specs, batches)
        # Batching changes the batch count only.
        assert counts(batched) == counts(single)
        assert batched.tallies() == single.tallies()
        # The gate rejects unevaluated what the naive engine judges.
        planned, exhaustive = batched.stats, naive.stats
        assert exhaustive.candidates_pruned == 0
        assert (
            planned.bindings_evaluated + planned.candidates_pruned
            == exhaustive.bindings_evaluated
        )
        assert planned.matches == exhaustive.matches == sum(map(len, matched.values()))
        assert planned.entities_submitted == exhaustive.entities_submitted
        assert [m for _, m in batched.tallies().values()] == [
            m for _, m in naive.tallies().values()
        ]
        assert batched.snapshot().windows == {"gate": {}, "other": {}}

    @settings(max_examples=150, deadline=None)
    @given(specs=spec_pairs, batches=histories(), cut=st.integers(0, 30))
    def test_a_checkpoint_cut_anywhere_resumes_the_same_tail(self, specs, batches, cut):
        cut = min(cut, len(batches))
        whole = DetectionEngine(specs)
        matched = feed(whole, batches)
        head = DetectionEngine(specs)
        prefix = feed(head, batches[:cut])
        resumed = DetectionEngine(specs)
        resumed.restore(head.snapshot())
        tail = feed(resumed, batches[cut:])
        assert {k: prefix[k] + tail[k] for k in matched} == matched
        assert resumed.snapshot() == whole.snapshot()
        assert resumed.tallies() == whole.tallies()


def test_a_snapshot_that_gives_a_one_role_spec_a_window_is_refused():
    spec = EventSpecification(
        event_id="gate",
        selectors={"e": EntitySelector(kinds={"value"})},
        condition=hot("e"),
    )
    engine = DetectionEngine([spec])
    entity = PhysicalObservation(
        "MT1", "SR1", 0, TimePoint(3), PointLocation(0.0, 0.0), {"value": 60.0}
    )
    assert len(engine.submit(entity, 3)) == 1
    before = engine.snapshot()
    assert before.windows == {"gate": {}}
    windowed = replace(before, windows={"gate": {"e": ((3, entity),)}})
    with pytest.raises(ObserverError, match="roles"):
        engine.restore(windowed)
    assert engine.snapshot() == before


def test_a_cooling_ccu_feed_makes_no_window_adds(monkeypatch):
    # The live high_density CCU feed, the stream_dense CCU's shape: sink
    # instances reach density_alert, which cools after each match.
    scenario, taps = _run("high_density")
    (ccu,) = scenario.system.ccus.values()
    batches = taps[ccu.name].batches
    (spec,) = ccu.engine.specs
    assert spec.roles == ("e",) and spec.cooldown and not spec.group_roles
    adds = 0
    add = RoleWindow.add

    def counted(window, entity, tick):
        nonlocal adds
        adds += 1
        add(window, entity, tick)

    monkeypatch.setattr(RoleWindow, "add", counted)
    engine = DetectionEngine([spec])
    matched = feed(engine, batches)[spec.event_id]
    assert adds == 0
    assert len(matched) == len(ccu.emitted) > 0
    assert engine.stats == ccu.engine.stats
