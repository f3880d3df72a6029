"""Roles that select alike share one window: what that saves, by counts.

The paper's S1 shape pairs events *of the same kind*, so its roles carry
equal selectors and see the same entities at the same ticks.  The engine
keeps one :class:`~repro.detect.role_window.RoleWindow` per distinct
selector of a specification, so such an entity's row is computed and
stored once, not once per role.  Counted here on the live sink feeds of
two registered scenarios (no clock), with the planned engine and the
naive reference engine (``tests.reference``) emitting the identical
match stream.
"""

from __future__ import annotations

import pytest

from repro.detect.engine import DetectionEngine, binding_identity
from repro.detect.role_window import RoleWindow

from tests.integration.test_conformance import _run
from tests.reference import NaiveEngine


def replay(monkeypatch, spec, batches, engine_class):
    """Window adds and match stream of one engine fed ``batches``."""
    adds = 0
    add = RoleWindow.add

    def counted(window, entity, tick):
        nonlocal adds
        adds += 1
        add(window, entity, tick)

    monkeypatch.setattr(RoleWindow, "add", counted)
    engine = engine_class([spec])
    identify = binding_identity(spec)
    matches = [
        (match.tick, identify(match.binding))
        for tick, entities in batches
        for match in engine.submit_batch(entities, tick)
    ]
    monkeypatch.undo()
    return adds, matches


@pytest.mark.parametrize(
    "scenario, event_id, roles",
    [("overload_surge", "surge_pair", 2), ("forest_fire", "fire_suspected", 3)],
)
def test_one_add_per_entity_per_distinct_selector(
    monkeypatch, scenario, event_id, roles
):
    built, taps = _run(scenario)
    sinks = built.system.sinks
    feeds = [
        (spec, taps[name].batches)
        for name, sink in sinks.items()
        for spec in sink.engine.specs
        if spec.event_id == event_id and taps[name].batches
    ]
    assert feeds
    for spec, batches in feeds:
        first, *others = spec.selectors.values()
        assert len(spec.roles) == roles
        assert all(selector == first for selector in others)
        selected = [
            entity
            for _, entities in batches
            for entity in entities
            if spec.candidate_roles(entity)
        ]
        # Each selected entity binds every role: once per role before.
        assert all(len(spec.candidate_roles(e)) == roles for e in selected)
        planned_adds, planned = replay(monkeypatch, spec, batches, DetectionEngine)
        naive_adds, naive = replay(monkeypatch, spec, batches, NaiveEngine)
        assert planned_adds == naive_adds == len(selected) > 0
        assert planned and planned == naive
