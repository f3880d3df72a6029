"""Unit tests for the detection engine and instance construction."""

from dataclasses import replace

import pytest

from repro.core.composite import all_of
from repro.core.conditions import (
    AttributeCondition,
    AttributeTerm,
    SpatialMeasureCondition,
    TemporalCondition,
    TemporalMeasureCondition,
    TimeOf,
)
from repro.core.errors import ObserverError, ReproError, SpatialError
from repro.core.event import EventLayer
from repro.core.instance import (
    ObserverId,
    ObserverKind,
    PhysicalObservation,
    SensorEventInstance,
)
from repro.core.operators import RelationalOp, TemporalOp
from repro.core.space_model import PointLocation
from repro.core.spec import (
    EntitySelector,
    EventSpecification,
    OutputAttribute,
    OutputPolicy,
)
from repro.core.time_model import TimeInterval, TimePoint
from repro.detect.engine import DetectionEngine, binding_identity
from repro.detect.output import build_instance

from tests.integration.test_conformance import _run

MOTE = ObserverId(ObserverKind.SENSOR_MOTE, "MT9")


def obs(mote="MT1", seq=0, tick=0, x=0.0, y=0.0, **attrs):
    return PhysicalObservation(
        mote, "SR1", seq, TimePoint(tick), PointLocation(x, y),
        attrs or {"temp": 50.0},
    )


def hot_spec(window=0, cooldown=0, threshold=40.0):
    return EventSpecification(
        event_id="hot",
        selectors={"x": EntitySelector(kinds={"temp"})},
        condition=AttributeCondition(
            "last", (AttributeTerm("x", "temp"),), RelationalOp.GT, threshold
        ),
        window=window,
        cooldown=cooldown,
        output=OutputPolicy(
            attributes=(
                OutputAttribute("temp", "last", (AttributeTerm("x", "temp"),)),
            )
        ),
    )


def pair_spec(window=10):
    return EventSpecification(
        event_id="pair",
        selectors={
            "a": EntitySelector(kinds={"temp"}),
            "b": EntitySelector(kinds={"temp"}),
        },
        condition=all_of(
            TemporalCondition(TimeOf("a"), TemporalOp.BEFORE, TimeOf("b")),
            SpatialMeasureCondition("distance", ("a", "b"), RelationalOp.LT, 10.0),
        ),
        window=window,
    )


class TestMonotoneSubmission:
    """Regression: a regressing ``now`` must raise, not corrupt state.

    Window eviction and dedup head-pruning both assume non-decreasing
    ticks; before the guard, a regressing submission silently corrupted
    them.  Out-of-order streams belong in :mod:`repro.stream`'s reorder
    buffer — the engine's contract is monotone event time.
    """

    def test_regressing_tick_raises(self):
        engine = DetectionEngine([hot_spec(window=10)])
        engine.submit(obs(tick=5, temp=50.0), now=5)
        with pytest.raises(ObserverError, match="non-monotone"):
            engine.submit(obs(tick=3, temp=50.0), now=3)

    def test_equal_tick_is_fine(self):
        engine = DetectionEngine([hot_spec(window=10)])
        engine.submit(obs(seq=0, tick=5, temp=50.0), now=5)
        engine.submit(obs(seq=1, tick=5, temp=30.0), now=5)
        assert engine.low_watermark == 5

    def test_watermark_tracks_submissions(self):
        engine = DetectionEngine([hot_spec()])
        assert engine.low_watermark is None
        engine.submit(obs(temp=10.0), now=4)
        assert engine.low_watermark == 4
        engine.advance(9)
        assert engine.low_watermark == 9
        with pytest.raises(ObserverError, match="advance"):
            engine.advance(7)

    def test_clear_resets_watermark(self):
        engine = DetectionEngine([hot_spec()])
        engine.submit(obs(temp=10.0), now=8)
        engine.clear()
        assert engine.low_watermark is None
        engine.submit(obs(temp=10.0), now=0)  # fresh stream accepted

    def test_failed_guard_leaves_state_untouched(self):
        engine = DetectionEngine([hot_spec(window=10)])
        engine.submit(obs(seq=0, tick=5, temp=50.0), now=5)
        before = engine.stats.entities_submitted
        with pytest.raises(ObserverError):
            engine.submit(obs(seq=1, tick=2, temp=50.0), now=2)
        assert engine.stats.entities_submitted == before
        # The engine keeps working after the rejected batch.
        matches = engine.submit(obs(seq=2, tick=6, temp=50.0), now=6)
        assert len(matches) == 1


class TestNonFiniteCoordinates:
    """Regression: a NaN or infinite coordinate reached the role index's
    cell arithmetic *after* the entity was windowed and counted, escaped
    as a raw ``ValueError`` / ``OverflowError``, and made every later
    ``restore(snapshot())`` re-raise it after ``clear()`` had run."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_refused_with_a_typed_error_and_unchanged_state(self, bad):
        engine = DetectionEngine([pair_spec()])
        engine.submit(obs(seq=0, x=1.0, y=2.0), now=0)
        before = engine.snapshot()
        with pytest.raises(SpatialError) as excinfo:
            engine.submit(obs(seq=1, x=bad, y=2.0), now=0)
        assert isinstance(excinfo.value, ReproError)
        assert engine.snapshot() == before
        engine.restore(engine.snapshot())
        assert engine.snapshot() == before

    def test_huge_finite_coordinate_still_accepted(self):
        engine = DetectionEngine([pair_spec()])
        engine.submit(obs(seq=0, x=1.0, y=2.0), now=0)
        assert engine.submit(obs(seq=1, tick=1, x=1e308, y=2.0), now=1) == []
        engine.restore(engine.snapshot())
        assert engine.stats.entities_submitted == 2


def _window(snapshot):
    """The entries of the first spec's (shared) window."""
    return next(iter(snapshot.windows[snapshot.spec_ids[0]].values()))


def _with_window(snapshot, entries):
    """``snapshot`` with every role of its first spec holding ``entries``."""
    event_id = snapshot.spec_ids[0]
    roles = snapshot.windows[event_id]
    return replace(
        snapshot,
        windows={**snapshot.windows, event_id: dict.fromkeys(roles, entries)},
    )


class _Tick(int):
    """An int subclass: equal to its int, but not one."""


REFUSALS = {
    "window entry that is no entity": lambda s: _with_window(
        s, ((s.watermark, object()),) + _window(s)
    ),
    # Every other stage refused an int subclass; the engine's own tick
    # test took it for an int.
    "window tick of an int subclass": lambda s: _with_window(
        s, tuple((_Tick(tick), entity) for tick, entity in _window(s))
    ),
    "window ticks out of arrival order": lambda s: _with_window(
        s, _window(s)[::-1]
    ),
    "window tick past the watermark": lambda s: _with_window(
        s, _window(s) + ((s.watermark + 1, _window(s)[-1][1]),)
    ),
    "window entries under no watermark": lambda s: replace(s, watermark=None),
    "watermark that is no tick": lambda s: replace(s, watermark="x"),
    "dedup store of an unknown spec": lambda s: replace(
        s, seen={**s.seen, "nope": ()}
    ),
    "dedup entry that is no (identity, tick) pair": lambda s: replace(
        s, seen={event_id: ((1, 2, 3),) for event_id in s.seen}
    ),
    "dedup identity that is not hashable": lambda s: replace(
        s,
        seen={
            event_id: ((([1],), s.watermark),) for event_id in s.seen
        },
    ),
    "dedup ticks out of match order": lambda s: replace(
        s, seen={event_id: entries[::-1] for event_id, entries in s.seen.items()}
    ),
    "dedup tick past the watermark": lambda s: replace(
        s,
        seen={
            event_id: entries + ((("ghost",), s.watermark + 1),)
            for event_id, entries in s.seen.items()
        },
    ),
    "cooldown clock past the watermark": lambda s: replace(
        s, last_match=dict.fromkeys(s.last_match, s.watermark + 1000)
    ),
    "cooldown clock of an unknown spec": lambda s: replace(
        s, last_match={"nope": 3}
    ),
    "cooldown clock that is no tick": lambda s: replace(
        s, last_match=dict.fromkeys(s.last_match, "x")
    ),
    "stats that are no EngineStats": lambda s: replace(s, stats=None),
    "no tallies": lambda s: replace(s, tallies={}),
    "negative tally": lambda s: replace(
        s, tallies=dict.fromkeys(s.tallies, (-1, 0))
    ),
}


class TestRestoreRefusals:
    """Regression: ``ensure_restorable`` checked only spec ids and roles,
    and ``restore`` clears the engine before it re-adds entries.  So a
    snapshot no run could leave was either accepted, or raised a bare
    ``AttributeError`` / ``KeyError`` after the engine had been wiped.
    Each row is a live ``high_density`` sink snapshot with one fault."""

    @pytest.fixture(scope="class")
    def sink(self):
        scenario, _ = _run("high_density")
        engine = next(iter(scenario.system.sinks.values())).engine
        snapshot = engine.snapshot()
        assert _window(snapshot) and snapshot.seen[snapshot.spec_ids[0]]
        # The order and clock rows need distinct dedup ticks and a clock.
        assert len(set(dict(snapshot.seen[snapshot.spec_ids[0]]).values())) > 1
        assert snapshot.last_match
        return engine.specs, snapshot

    @pytest.mark.parametrize("row", list(REFUSALS))
    def test_refused_before_anything_changes(self, sink, row):
        specs, snapshot = sink
        engine = DetectionEngine(specs)
        engine.restore(snapshot)
        before = engine.snapshot()
        with pytest.raises(ObserverError):
            engine.restore(REFUSALS[row](snapshot))
        assert engine.snapshot() == before


class TestSingleRole:
    def test_match_on_satisfying_entity(self):
        engine = DetectionEngine([hot_spec()])
        matches = engine.submit(obs(temp=50.0), now=0)
        assert len(matches) == 1
        assert matches[0].spec.event_id == "hot"

    def test_no_match_below_threshold(self):
        engine = DetectionEngine([hot_spec()])
        assert engine.submit(obs(temp=30.0), now=0) == []

    def test_non_candidate_ignored(self):
        engine = DetectionEngine([hot_spec()])
        assert engine.submit(obs(humidity=99.0), now=0) == []
        assert engine.stats.bindings_evaluated == 0


class TestMultiRole:
    def test_pair_requires_both_roles(self):
        engine = DetectionEngine([pair_spec()])
        assert engine.submit(obs("MT1", tick=1), now=1) == []
        matches = engine.submit(obs("MT2", tick=3, x=2.0), now=3)
        assert len(matches) == 1
        binding = matches[0].binding
        assert binding["a"].mote_id == "MT1"
        assert binding["b"].mote_id == "MT2"

    def test_entity_cannot_fill_two_roles(self):
        engine = DetectionEngine([pair_spec()])
        # A single entity matching both selectors must not self-pair.
        assert engine.submit(obs("MT1", tick=1), now=1) == []

    def test_window_eviction_prevents_stale_pairs(self):
        engine = DetectionEngine([pair_spec(window=5)])
        engine.submit(obs("MT1", tick=0), now=0)
        assert engine.submit(obs("MT2", tick=20, x=1.0), now=20) == []

    def test_dedup_same_binding_not_re_emitted(self):
        engine = DetectionEngine([pair_spec(window=50)])
        engine.submit(obs("MT1", seq=0, tick=1), now=1)
        first = engine.submit(obs("MT2", seq=0, tick=2, x=1.0), now=2)
        assert len(first) == 1
        # A third entity triggers re-evaluation; the old pair must not fire again.
        second = engine.submit(obs("MT3", seq=0, tick=3, x=2.0), now=3)
        keys = {
            frozenset(e.key for e in match.entities()) for match in second
        }
        assert frozenset({("MT1", "SR1", 0), ("MT2", "SR1", 0)}) not in keys


class TestCooldown:
    def test_cooldown_suppresses_repeat_matches(self):
        engine = DetectionEngine([hot_spec(cooldown=10)])
        assert len(engine.submit(obs(seq=0, tick=0, temp=50.0), now=0)) == 1
        assert engine.submit(obs(seq=1, tick=5, temp=50.0), now=5) == []
        assert len(engine.submit(obs(seq=2, tick=10, temp=50.0), now=10)) == 1

    def test_zero_cooldown_reports_every_match(self):
        engine = DetectionEngine([hot_spec(cooldown=0)])
        for seq in range(3):
            assert len(engine.submit(obs(seq=seq, tick=seq, temp=50.0), now=seq)) == 1


class TestGroupRoles:
    def test_group_binds_whole_window(self):
        spec = EventSpecification(
            event_id="avg_hot",
            selectors={"g": EntitySelector(kinds={"temp"})},
            condition=AttributeCondition(
                "average", (AttributeTerm("g", "temp"),), RelationalOp.GT, 45.0
            ),
            window=100,
            group_roles={"g"},
        )
        engine = DetectionEngine([spec])
        assert engine.submit(obs(seq=0, tick=0, temp=40.0), now=0) == []
        # Average of [40, 60] = 50 > 45.
        matches = engine.submit(obs(seq=1, tick=1, temp=60.0), now=1)
        assert len(matches) == 1
        group = matches[0].binding["g"]
        assert isinstance(group, tuple) and len(group) == 2


class TestErrorPolicy:
    def test_evaluation_errors_counted_not_raised(self):
        # The condition aggregates an attribute the entity lacks.
        spec = EventSpecification(
            event_id="broken",
            selectors={"x": EntitySelector()},  # accepts anything
            condition=AttributeCondition(
                "last", (AttributeTerm("x", "missing"),), RelationalOp.GT, 0
            ),
        )
        engine = DetectionEngine([spec])
        assert engine.submit(obs(temp=50.0), now=0) == []
        assert engine.stats.evaluation_errors == 1

    def test_duplicate_spec_rejected(self):
        engine = DetectionEngine([hot_spec()])
        with pytest.raises(ObserverError):
            engine.add_spec(hot_spec())

    def test_spec_lookup(self):
        engine = DetectionEngine([hot_spec()])
        assert engine.spec("hot").event_id == "hot"
        with pytest.raises(ObserverError):
            engine.spec("ghost")

    def test_clear_resets_state(self):
        engine = DetectionEngine([pair_spec(window=50)])
        engine.submit(obs("MT1", tick=1), now=1)
        engine.clear()
        assert engine.submit(obs("MT2", tick=2, x=1.0), now=2) == []


class TestCooldownIsolation:
    def test_cooldown_spec_does_not_starve_other_specs(self):
        # One entity satisfies both specs in the same submit; the
        # cooldown short-circuit of "hot" must not skip "warm".
        engine = DetectionEngine([
            hot_spec(cooldown=10),
            EventSpecification(
                event_id="warm",
                selectors={"x": EntitySelector(kinds={"temp"})},
                condition=AttributeCondition(
                    "last", (AttributeTerm("x", "temp"),), RelationalOp.GT, 20.0
                ),
            ),
        ])
        matches = engine.submit(obs(seq=0, temp=50.0), now=0)
        assert {m.spec.event_id for m in matches} == {"hot", "warm"}
        # Next tick: hot is cooling down, warm still fires.
        matches = engine.submit(obs(seq=1, tick=1, temp=50.0), now=1)
        assert {m.spec.event_id for m in matches} == {"warm"}

    def test_cooldown_isolated_across_batch_entities(self):
        engine = DetectionEngine([
            hot_spec(cooldown=10),
            EventSpecification(
                event_id="warm",
                selectors={"x": EntitySelector(kinds={"temp"})},
                condition=AttributeCondition(
                    "last", (AttributeTerm("x", "temp"),), RelationalOp.GT, 20.0
                ),
            ),
        ])
        matches = engine.submit_batch(
            [obs(seq=0, temp=50.0), obs(seq=1, temp=60.0)], now=0
        )
        by_spec = {}
        for match in matches:
            by_spec.setdefault(match.spec.event_id, []).append(match)
        # hot: first batch entity matches, then cooldown suppresses the
        # second; warm (no cooldown) matches for both entities.
        assert len(by_spec["hot"]) == 1
        assert len(by_spec["warm"]) == 2


class TestSeenBounded:
    def test_seen_dict_stays_bounded_across_long_run(self):
        # Every submission produces a unique match; without amortized
        # pruning the dedup dict grows without bound (and the old
        # implementation rescanned it O(n) per submit past 1024 keys).
        spec = hot_spec(window=4)
        engine = DetectionEngine([spec])
        peak = 0
        for tick in range(5000):
            engine.submit(obs(seq=tick, tick=tick, temp=50.0), now=tick)
            peak = max(peak, len(engine._seen["hot"]))
        horizon = 2 * (spec.window + 1)
        # One unique match per tick: at most one entry per tick inside
        # the retention horizon (plus the entry just added).
        assert peak <= horizon + 1
        assert engine.stats.matches == 5000

    def test_prune_keeps_recent_entries(self):
        engine = DetectionEngine([pair_spec(window=50)])
        engine.submit(obs("MT1", tick=0), now=0)
        engine.submit(obs("MT2", tick=2, x=1.0), now=2)
        assert len(engine._seen["pair"]) == 1
        # Still inside the horizon a few ticks later.
        engine.submit(obs("MT3", tick=10, x=2.0), now=10)
        assert any(t == 2 for t in engine._seen["pair"].values())


class TestEngineEdgeCases:
    def test_dedup_across_re_evaluations_under_batches(self):
        engine = DetectionEngine([pair_spec(window=50)])
        first = engine.submit_batch(
            [obs("MT1", tick=1), obs("MT2", tick=2, x=1.0)], now=2
        )
        assert len(first) == 1
        # Re-evaluation triggered by each later arrival must not re-emit.
        for tick in (3, 4, 5):
            later = engine.submit(obs(f"MT{tick}", tick=tick, x=2.0), now=tick)
            keys = {
                frozenset(e.key for e in match.entities()) for match in later
            }
            assert frozenset({("MT1", "SR1", 0), ("MT2", "SR1", 0)}) not in keys

    def test_group_role_window_emptying_mid_window(self):
        spec = EventSpecification(
            event_id="avg_hot",
            selectors={"g": EntitySelector(kinds={"temp"})},
            condition=AttributeCondition(
                "average", (AttributeTerm("g", "temp"),), RelationalOp.GT, 45.0
            ),
            window=5,
            group_roles={"g"},
        )
        engine = DetectionEngine([spec])
        assert len(engine.submit(obs(seq=0, tick=0, temp=60.0), now=0)) == 1
        # Far past the window: the old group content is gone; the new
        # entity forms a fresh singleton group (no stale-group binding).
        matches = engine.submit(obs(seq=1, tick=50, temp=60.0), now=50)
        assert len(matches) == 1
        group = matches[0].binding["g"]
        assert len(group) == 1 and group[0].seq == 1

    def test_distinctness_with_duplicated_entity_keys(self):
        engine = DetectionEngine([pair_spec(window=50)])
        # Two distinct objects carrying the SAME provenance key: they
        # must not pair with each other (distinctness is key-based).
        engine.submit(obs("MT1", seq=0, tick=1), now=1)
        matches = engine.submit(obs("MT1", seq=0, tick=2, x=1.0), now=2)
        assert matches == []

    def test_batch_preserves_sequential_role_assignment_under_cooldown(self):
        # Symmetric pair spec with cooldown: only the FIRST discovered
        # binding fires, so discovery order is observable through the
        # role assignment.  Batched submission must discover bindings in
        # exactly the sequential order (entity added then evaluated, one
        # at a time) or the emitted instance's roles silently flip.
        def cooled_pair():
            spec = pair_spec(window=50)
            object.__setattr__(spec, "cooldown", 5)
            return spec

        a, b = obs("MT1", tick=1), obs("MT2", tick=2, x=1.0)

        sequential = DetectionEngine([cooled_pair()])
        seq_matches = []
        for entity in (a, b):
            seq_matches += sequential.submit(entity, 2)

        batched = DetectionEngine([cooled_pair()])
        batch_matches = batched.submit_batch([a, b], 2)

        assert len(seq_matches) == len(batch_matches) == 1
        identify = binding_identity(seq_matches[0].spec)
        assert identify(seq_matches[0].binding) == identify(
            batch_matches[0].binding
        )
        assert {
            role: bound.mote_id
            for role, bound in batch_matches[0].binding.items()
        } == {
            role: bound.mote_id
            for role, bound in seq_matches[0].binding.items()
        }

    def test_submit_batch_empty_is_noop(self):
        engine = DetectionEngine([hot_spec()])
        assert engine.submit_batch([], now=0) == []
        assert engine.stats.entities_submitted == 0

    @pytest.mark.parametrize("flags", [[True], [True, False, True]])
    def test_wrong_length_evaluate_refused_before_any_mutation(self, flags):
        """Regression: a short mask raised a raw IndexError after the
        watermark and counters had moved; a long one was truncated."""
        engine = DetectionEngine([pair_spec(window=10)])
        engine.submit(obs("MT1", tick=1), now=1)
        before = engine.snapshot()
        batch = [obs("MT2", tick=5), obs("MT3", tick=5)]
        with pytest.raises(ObserverError, match="evaluate has"):
            engine.submit_batch(batch, 5, evaluate=flags)
        assert engine.snapshot() == before

    def test_planner_disabled_engine_never_prunes(self):
        engine = DetectionEngine([pair_spec(window=10)], use_planner=False)
        assert len(engine.submit(obs("MT1", tick=0), now=0)) == 0
        assert len(engine.submit(obs("MT2", tick=1, x=2.0), now=1)) == 1
        assert engine.submit(obs("MT3", tick=2, x=90.0), now=2) == []
        assert engine.stats.candidates_pruned == 0

    def test_plan_accessor(self):
        engine = DetectionEngine([pair_spec(window=10)])
        assert engine.plan("pair").prunable
        with pytest.raises(ObserverError):
            engine.plan("ghost")

    def test_clear_flushes_windows(self):
        engine = DetectionEngine([pair_spec(window=50)])
        engine.submit(obs("MT1", tick=1), now=1)
        engine.clear()
        assert all(not roles for roles in engine.snapshot().windows["pair"].values())
        assert engine.submit(obs("MT2", tick=2, x=1.0), now=2) == []


class TestBuildInstance:
    def make_match(self):
        engine = DetectionEngine([pair_spec(window=50)])
        engine.submit(obs("MT1", tick=1, x=0.0, temp=50.0), now=1)
        matches = engine.submit(obs("MT2", tick=5, x=4.0, temp=60.0), now=5)
        assert matches
        return matches[0]

    def test_six_tuple_construction(self):
        match = self.make_match()
        instance = build_instance(
            match,
            observer=MOTE,
            seq=3,
            generated_time=TimePoint(6),
            generated_location=PointLocation(9, 9),
            layer=EventLayer.SENSOR,
            instance_cls=SensorEventInstance,
        )
        assert instance.key == (str(MOTE), "pair", 3)
        assert instance.generated_time == TimePoint(6)
        assert instance.generated_location == PointLocation(9, 9)
        assert instance.estimated_time == TimePoint(1)         # earliest
        assert instance.estimated_location == PointLocation(2, 0)  # centroid
        assert instance.confidence == 1.0
        assert len(instance.sources) == 2
        assert instance.detection_latency == 5

    def test_span_policy_yields_interval(self):
        spec = pair_spec(window=50)
        object.__setattr__(spec, "output", OutputPolicy(time="span"))
        engine = DetectionEngine([spec])
        engine.submit(obs("MT1", tick=1), now=1)
        match = engine.submit(obs("MT2", tick=5, x=4.0), now=5)[0]
        instance = build_instance(
            match, MOTE, 0, TimePoint(6), PointLocation(0, 0),
            EventLayer.SENSOR,
        )
        assert instance.estimated_time == TimeInterval(TimePoint(1), TimePoint(5))

    def test_output_attributes_computed(self):
        engine = DetectionEngine([hot_spec()])
        match = engine.submit(obs(temp=77.0), now=0)[0]
        instance = build_instance(
            match, MOTE, 0, TimePoint(0), PointLocation(0, 0),
            EventLayer.SENSOR,
        )
        assert instance.attribute("temp") == 77.0


class TestMatchEntityOrder:
    """Match.entities() iterates spec.roles, not re-sorted binding keys."""

    def test_entities_follow_spec_role_order(self):
        spec = pair_spec(window=10)
        engine = DetectionEngine([spec])
        first = obs(mote="MTa", seq=0, tick=0, x=0.0)
        second = obs(mote="MTb", seq=1, tick=1, x=1.0)
        engine.submit(first, now=0)
        matches = engine.submit(second, now=1)
        assert matches
        for match in matches:
            roles = list(match.spec.roles)
            expected = []
            for role in roles:
                bound = match.binding[role]
                expected.extend(bound if isinstance(bound, tuple) else [bound])
            assert match.entities() == expected
            # Regression: identical to the old sorted-binding iteration.
            legacy = []
            for role in sorted(match.binding):
                bound = match.binding[role]
                legacy.extend(bound if isinstance(bound, tuple) else [bound])
            assert match.entities() == legacy

    def test_instance_sources_order_unchanged(self):
        # Binding insertion order must not leak into instance sources:
        # construct a match whose binding dict was built in reverse
        # role order and check provenance ordering stays canonical.
        from repro.detect.engine import Match

        spec = pair_spec(window=10)
        a = obs(mote="MTa", seq=0, tick=0)
        b = obs(mote="MTb", seq=1, tick=1)
        reversed_binding = {"b": b, "a": a}  # insertion order b, a
        match = Match(spec, reversed_binding, tick=1)
        assert match.entities() == [a, b]  # spec.roles order: a, b
        instance = build_instance(
            match, MOTE, seq=0,
            generated_time=TimePoint(2),
            generated_location=PointLocation(0.0, 0.0),
            layer=EventLayer.SENSOR,
        )
        assert instance.sources == (a.key, b.key)


class TestEngineStatsMerge:
    """EngineStats.merge: the canonical multi-engine counter roll-up."""

    def _stats(self, **kw):
        from repro.detect.engine import EngineStats

        stats = EngineStats()
        for field, value in kw.items():
            setattr(stats, field, value)
        return stats

    def test_all_counters_sum(self):
        from repro.detect.engine import EngineStats

        parts = [
            self._stats(
                entities_submitted=3, batches_submitted=1,
                bindings_evaluated=10, candidates_pruned=4, matches=2,
                evaluation_errors=1, cache_hits=5, cache_misses=3,
            ),
            self._stats(
                entities_submitted=7, batches_submitted=2,
                bindings_evaluated=20, candidates_pruned=6, matches=5,
                evaluation_errors=0, cache_hits=15, cache_misses=5,
            ),
        ]
        total = EngineStats.merge(parts)
        assert total.entities_submitted == 10
        assert total.batches_submitted == 3
        assert total.bindings_evaluated == 30
        assert total.candidates_pruned == 10
        assert total.matches == 7
        assert total.evaluation_errors == 1
        assert total.cache_hits == 20
        assert total.cache_misses == 8
        # Derived ratio recomputes from the summed counters.
        assert total.pruned_ratio == pytest.approx(10 / 40)

    def test_empty_merge_is_zero(self):
        from repro.detect.engine import EngineStats

        total = EngineStats.merge([])
        assert total == EngineStats()
        assert total.pruned_ratio == 0.0

    def test_merge_matches_live_engine_totals(self):
        # Regression: rolling up real engines through merge() must agree
        # with summing each counter by hand (the ad-hoc dict math the
        # helper replaces).
        from dataclasses import fields as dc_fields
        from repro.detect.engine import EngineStats

        engines = [DetectionEngine([pair_spec(window=10)]) for _ in range(3)]
        tick = 0
        for i, engine in enumerate(engines):
            for j in range(4 + i):
                engine.submit(obs(mote=f"M{i}", seq=j, tick=tick + j), tick + j)
        merged = EngineStats.merge(engine.stats for engine in engines)
        for field in dc_fields(EngineStats):
            expected = sum(
                getattr(engine.stats, field.name) for engine in engines
            )
            assert getattr(merged, field.name) == pytest.approx(expected), field.name
