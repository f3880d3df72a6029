"""Property-based boundary exactness for the sharded backend (hypothesis).

The load-bearing contract of :mod:`repro.shard` is *exactness*: for any
specification set and any entity stream, the sharded engine must
produce the identical match stream — same bindings, same ticks, same
order — as one :class:`~repro.detect.engine.DetectionEngine`, for every
shard count.  These properties drive randomized specs and placements
through both backends and compare the full streams, with the
adversarial cases sharding can get wrong generated on purpose:

* matches whose constituents straddle shard borders (entity pairs
  placed across a boundary at controlled separations);
* pair distances *exactly at* the spec's threshold while the halo is
  exactly that threshold (the EPS boundary class the PR 2
  ``covered_by`` fix was about);
* cooldown races (a cooling spec must fire the globally first
  candidate, wherever it lives);
* specs the halo derivation must refuse to bound (disjunctions, group
  roles, spatially unconstrained roles) falling back to the
  designated/broadcast paths;
* entities without point locations (field events).
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.composite import all_of, any_of
from repro.core.conditions import (
    AttributeCondition,
    AttributeTerm,
    SpatialMeasureCondition,
    TemporalCondition,
    TimeOf,
)
from repro.core.instance import PhysicalObservation
from repro.core.operators import RelationalOp, TemporalOp
from repro.core.space_model import BoundingBox, Circle, PointLocation
from repro.core.spec import EntitySelector, EventSpecification
from repro.core.time_model import TimePoint
from repro.detect.engine import DetectionEngine, binding_identity
from repro.shard.engine import ShardedDetectionEngine

BOUNDS = BoundingBox(0.0, 0.0, 100.0, 100.0)


def observation(i, x, y, tick, kind="value", value=1.0):
    return PhysicalObservation(
        mote_id=f"MT{i}",
        sensor_id="SR0",
        seq=i,
        time=TimePoint(tick),
        location=PointLocation(x, y),
        attributes={kind: value},
    )


def field_observation(i, tick, kind="value"):
    return PhysicalObservation(
        mote_id=f"MTF{i}",
        sensor_id="SR0",
        seq=i,
        time=TimePoint(tick),
        location=Circle(PointLocation(50.0, 50.0), 10.0),
        attributes={kind: 1.0},
    )


def pair_spec(
    radius=15.0,
    op=RelationalOp.LT,
    window=20,
    cooldown=0,
    event_id="pair",
    kinds=("value", "value"),
):
    return EventSpecification(
        event_id=event_id,
        selectors={
            "a": EntitySelector(kinds={kinds[0]}),
            "b": EntitySelector(kinds={kinds[1]}),
        },
        condition=all_of(
            TemporalCondition(TimeOf("a"), TemporalOp.BEFORE, TimeOf("b")),
            SpatialMeasureCondition("distance", ("a", "b"), op, radius),
        ),
        window=window,
        cooldown=cooldown,
    )


def stream_of(entities):
    """Group an entity list into per-tick batches (arrival order)."""
    batches = {}
    for entity in entities:
        batches.setdefault(entity.occurrence_time.tick, []).append(entity)
    return sorted(batches.items())


def match_stream(engine, batches):
    out = []
    for tick, batch in batches:
        for match in engine.submit_batch(batch, tick):
            out.append(
                (
                    match.spec.event_id,
                    binding_identity(match.spec)(match.binding),
                    match.tick,
                )
            )
    return out


def assert_exact(specs_factory, entities, shards):
    """Single vs sharded full-stream equality (order included)."""
    batches = stream_of(entities)
    single = DetectionEngine(specs_factory())
    sharded = ShardedDetectionEngine(
        specs_factory(), bounds=BOUNDS, shards=shards
    )
    expected = match_stream(single, batches)
    actual = match_stream(sharded, batches)
    assert actual == expected
    assert sharded.stats.matches == single.stats.matches
    return single, sharded


coords = st.floats(
    min_value=-20.0, max_value=120.0, allow_nan=False, allow_infinity=False
)
shard_counts = st.integers(min_value=2, max_value=6)


@st.composite
def scattered_entities(draw):
    n = draw(st.integers(min_value=0, max_value=50))
    ticks = st.integers(min_value=0, max_value=30)
    return [
        observation(i, draw(coords), draw(coords), draw(ticks))
        for i in range(n)
    ]


@st.composite
def boundary_entities(draw):
    """Pairs deliberately straddling the x=50 / y=50 grid boundaries."""
    n = draw(st.integers(min_value=1, max_value=20))
    out = []
    tick = 0
    for i in range(n):
        axis_y = draw(st.booleans())
        offset = draw(st.floats(min_value=0.0, max_value=12.0))
        other = draw(st.floats(min_value=0.0, max_value=100.0))
        tick += draw(st.integers(min_value=0, max_value=3))
        if axis_y:
            out.append(observation(2 * i, 50.0 - offset / 2.0, other, tick))
            out.append(observation(2 * i + 1, 50.0 + offset / 2.0, other, tick + 1))
        else:
            out.append(observation(2 * i, other, 50.0 - offset / 2.0, tick))
            out.append(observation(2 * i + 1, other, 50.0 + offset / 2.0, tick + 1))
    return out


class TestRandomizedExactness:
    @given(scattered_entities(), shard_counts, st.sampled_from([0, 3, 9]))
    @settings(max_examples=60, deadline=None)
    def test_pair_spec_streams_equal(self, entities, shards, cooldown):
        assert_exact(lambda: [pair_spec(cooldown=cooldown)], entities, shards)

    @given(boundary_entities(), shard_counts)
    @settings(max_examples=60, deadline=None)
    def test_border_straddling_matches_survive(self, entities, shards):
        assert_exact(lambda: [pair_spec()], entities, shards)

    @given(scattered_entities(), shard_counts)
    @settings(max_examples=40, deadline=None)
    def test_multi_spec_mixed_reach(self, entities, shards):
        def specs():
            return [
                pair_spec(radius=10.0, event_id="near_pair", cooldown=4),
                # GT distance is not halo-boundable: designated fallback.
                EventSpecification(
                    event_id="far_pair",
                    selectors={
                        "a": EntitySelector(kinds={"value"}),
                        "b": EntitySelector(kinds={"value"}),
                    },
                    condition=SpatialMeasureCondition(
                        "distance", ("a", "b"), RelationalOp.GT, 60.0
                    ),
                    window=15,
                    cooldown=2,
                ),
            ]

        assert_exact(specs, entities, shards)

    @given(scattered_entities(), shard_counts)
    @settings(max_examples=40, deadline=None)
    def test_disjunctive_spec_falls_back_exactly(self, entities, shards):
        def specs():
            return [
                EventSpecification(
                    event_id="either",
                    selectors={
                        "a": EntitySelector(kinds={"value"}),
                        "b": EntitySelector(kinds={"value"}),
                    },
                    condition=any_of(
                        SpatialMeasureCondition(
                            "distance", ("a", "b"), RelationalOp.LT, 8.0
                        ),
                        TemporalCondition(
                            TimeOf("a"), TemporalOp.BEFORE, TimeOf("b")
                        ),
                    ),
                    window=10,
                )
            ]

        assert_exact(specs, entities, shards)

    @given(scattered_entities(), shard_counts)
    @settings(max_examples=30, deadline=None)
    def test_group_role_broadcast_exact(self, entities, shards):
        def specs():
            return [
                EventSpecification(
                    event_id="grouped",
                    selectors={
                        "x": EntitySelector(kinds={"value"}),
                        "g": EntitySelector(kinds={"value"}),
                    },
                    condition=AttributeCondition(
                        "average", (AttributeTerm("g", "value"),),
                        RelationalOp.GE, 0.5,
                    ),
                    window=12,
                    group_roles=frozenset({"g"}),
                    cooldown=3,
                )
            ]

        assert_exact(specs, entities, shards)

    @given(scattered_entities(), shard_counts, st.integers(0, 10))
    @settings(max_examples=30, deadline=None)
    def test_field_located_entities_broadcast(self, entities, shards, n_fields):
        rng = random.Random(shards * 1000 + n_fields)
        mixed = list(entities)
        for i in range(n_fields):
            mixed.append(field_observation(1000 + i, rng.randrange(0, 30)))
        assert_exact(lambda: [pair_spec()], mixed, shards)


class TestEpsilonBoundary:
    """Halo width exactly at the distance threshold (the EPS class)."""

    def _pair_at(self, separation, y=30.0, tick=0, base=100):
        """Two entities straddling the x=50 grid boundary, exactly
        ``separation`` apart."""
        return [
            observation(base, 50.0 - separation / 2.0, y, tick),
            observation(base + 1, 50.0 + separation / 2.0, y, tick + 1),
        ]

    def test_le_pair_exactly_at_threshold_matches(self):
        radius = 14.0
        entities = self._pair_at(radius)
        for shards in (2, 4):
            single, sharded = assert_exact(
                lambda: [pair_spec(radius=radius, op=RelationalOp.LE)],
                entities,
                shards,
            )
            assert single.stats.matches == 1  # the boundary pair fired

    def test_lt_pair_exactly_at_threshold_never_matches(self):
        radius = 14.0
        entities = self._pair_at(radius)
        for shards in (2, 4):
            single, _ = assert_exact(
                lambda: [pair_spec(radius=radius, op=RelationalOp.LT)],
                entities,
                shards,
            )
            assert single.stats.matches == 0

    def test_just_inside_threshold_across_border(self):
        radius = 14.0
        entities = self._pair_at(radius - 1e-7)
        for shards in (2, 4):
            single, _ = assert_exact(
                lambda: [pair_spec(radius=radius, op=RelationalOp.LT)],
                entities,
                shards,
            )
            assert single.stats.matches == 1

    def test_three_role_chain_spans_two_boundaries(self):
        # a-b and b-c clauses of 10; constituents can span up to 20:
        # place them across both grid boundaries of a 4-shard layout.
        def specs():
            return [
                EventSpecification(
                    event_id="chain",
                    selectors={
                        "a": EntitySelector(kinds={"value"}),
                        "b": EntitySelector(kinds={"value"}),
                        "c": EntitySelector(kinds={"value"}),
                    },
                    condition=all_of(
                        SpatialMeasureCondition(
                            "distance", ("a", "b"), RelationalOp.LE, 10.0
                        ),
                        SpatialMeasureCondition(
                            "distance", ("b", "c"), RelationalOp.LE, 10.0
                        ),
                        TemporalCondition(
                            TimeOf("a"), TemporalOp.BEFORE, TimeOf("c")
                        ),
                    ),
                    window=10,
                )
            ]

        entities = [
            observation(0, 42.0, 50.0, 0),
            observation(1, 50.0, 50.0, 1),
            observation(2, 58.0, 50.0, 2),
        ]
        single, _ = assert_exact(specs, entities, 4)
        assert single.stats.matches >= 1
