"""Unit tests for event specifications, selectors and output policies."""

import pytest

from repro.core.composite import Leaf
from repro.core.conditions import AttributeCondition, AttributeTerm
from repro.core.errors import SpecificationError
from repro.core.event import EventLayer
from repro.core.instance import (
    EventInstance,
    ObserverId,
    ObserverKind,
    PhysicalObservation,
)
from repro.core.operators import RelationalOp
from repro.core.space_model import Circle, PointLocation
from repro.core.spec import (
    EntitySelector,
    EventSpecification,
    OutputAttribute,
    OutputPolicy,
)
from repro.core.time_model import TimePoint


def obs(quantity="temperature", x=0.0, y=0.0):
    return PhysicalObservation(
        "MT1", "SR1", 0, TimePoint(1), PointLocation(x, y), {quantity: 42.0}
    )


def instance(event_id="hot", layer=EventLayer.SENSOR, rho=0.9, x=0.0, y=0.0):
    return EventInstance(
        observer=ObserverId(ObserverKind.SENSOR_MOTE, "MT1"),
        event_id=event_id,
        seq=0,
        generated_time=TimePoint(2),
        generated_location=PointLocation(x, y),
        estimated_time=TimePoint(1),
        estimated_location=PointLocation(x, y),
        confidence=rho,
        layer=layer,
    )


SIMPLE_CONDITION = AttributeCondition(
    "last", (AttributeTerm("x", "temperature"),), RelationalOp.GT, 0.0
)


class TestEntitySelector:
    def test_kind_matches_instance_event_id(self):
        selector = EntitySelector(kinds={"hot"})
        assert selector.matches(instance("hot"))
        assert not selector.matches(instance("cold"))

    def test_kind_matches_observation_attribute(self):
        selector = EntitySelector(kinds={"temperature"})
        assert selector.matches(obs("temperature"))
        assert not selector.matches(obs("humidity"))

    @pytest.mark.parametrize(
        "layer",
        [EventLayer.SENSOR, EventLayer.CYBER_PHYSICAL, EventLayer.CYBER],
        ids=lambda layer: layer.name.lower(),
    )
    def test_kind_selector_matches_every_layer(self, layer):
        selector = EntitySelector(kinds={"hot"})
        assert selector.matches(instance("hot", layer=layer))
        assert not selector.matches(instance("cold", layer=layer))

    def test_region_filter_point(self):
        selector = EntitySelector(region=Circle(PointLocation(0, 0), 5))
        assert selector.matches(obs(x=1, y=1))
        assert not selector.matches(obs(x=9, y=9))

    def test_region_filter_field_entity_intersects(self):
        selector = EntitySelector(region=Circle(PointLocation(0, 0), 5))
        field_instance = EventInstance(
            observer=ObserverId(ObserverKind.SINK_NODE, "S1"),
            event_id="zone",
            seq=0,
            generated_time=TimePoint(1),
            generated_location=PointLocation(0, 0),
            estimated_time=TimePoint(1),
            estimated_location=Circle(PointLocation(4, 0), 2),
            layer=EventLayer.CYBER_PHYSICAL,
        )
        assert selector.matches(field_instance)

    def test_confidence_filter(self):
        selector = EntitySelector(min_confidence=0.5)
        assert selector.matches(instance(rho=0.9))
        assert not selector.matches(instance(rho=0.2))
        assert selector.matches(obs())  # observations: confidence 1.0

    def test_unconstrained_matches_everything(self):
        selector = EntitySelector()
        assert selector.matches(obs())
        assert selector.matches(instance())


class TestOutputPolicy:
    def test_defaults(self):
        policy = OutputPolicy()
        assert policy.time == "earliest"
        assert policy.space == "centroid"
        assert policy.confidence == "min"

    @pytest.mark.parametrize("field, value", [
        ("time", "sometimes"),
        ("space", "everywhere"),
        ("confidence", "vibes"),
    ])
    def test_invalid_choices_rejected(self, field, value):
        with pytest.raises(SpecificationError):
            OutputPolicy(**{field: value})

    def test_output_attribute_needs_terms(self):
        with pytest.raises(SpecificationError):
            OutputAttribute("temp", "avg", ())


class TestEventSpecification:
    def test_valid_spec(self):
        spec = EventSpecification(
            event_id="hot",
            selectors={"x": EntitySelector(kinds={"temperature"})},
            condition=SIMPLE_CONDITION,
            window=10,
        )
        assert spec.roles == ("x",)

    def test_condition_roles_must_be_declared(self):
        with pytest.raises(SpecificationError, match="undeclared"):
            EventSpecification(
                event_id="hot",
                selectors={"y": EntitySelector()},
                condition=SIMPLE_CONDITION,  # references role "x"
            )

    def test_empty_event_id_rejected(self):
        with pytest.raises(SpecificationError):
            EventSpecification(
                event_id="",
                selectors={"x": EntitySelector()},
                condition=SIMPLE_CONDITION,
            )

    def test_no_roles_rejected(self):
        with pytest.raises(SpecificationError):
            EventSpecification(
                event_id="hot", selectors={}, condition=SIMPLE_CONDITION
            )

    # Both are tick counts.  Accepted, a nan window would never evict,
    # a nan cooldown would never hold a match back and True would act
    # as 1.
    @pytest.mark.parametrize("field", ["window", "cooldown"])
    @pytest.mark.parametrize(
        "value", [-1, True, 2.5, 5.0, float("nan"), float("inf"), "5"]
    )
    def test_window_and_cooldown_must_be_non_negative_ints(self, field, value):
        with pytest.raises(SpecificationError, match=field):
            EventSpecification(
                event_id="hot",
                selectors={"x": EntitySelector()},
                condition=SIMPLE_CONDITION,
                **{field: value},
            )

    @pytest.mark.parametrize("field", ["window", "cooldown"])
    def test_window_and_cooldown_accept_zero(self, field):
        spec = EventSpecification(
            event_id="hot",
            selectors={"x": EntitySelector()},
            condition=SIMPLE_CONDITION,
            **{field: 0},
        )
        assert getattr(spec, field) == 0

    def test_group_roles_must_be_declared(self):
        with pytest.raises(SpecificationError, match="group_roles"):
            EventSpecification(
                event_id="hot",
                selectors={"x": EntitySelector()},
                condition=SIMPLE_CONDITION,
                group_roles={"nope"},
            )

    def test_candidate_roles(self):
        spec = EventSpecification(
            event_id="pair",
            selectors={
                "x": EntitySelector(kinds={"temperature"}),
                "y": EntitySelector(kinds={"humidity"}),
            },
            condition=AttributeCondition(
                "last", (AttributeTerm("x", "temperature"),),
                RelationalOp.GT, 0.0,
            ),
        )
        assert spec.candidate_roles(obs("temperature")) == ("x",)
        assert spec.candidate_roles(obs("humidity")) == ("y",)
        assert spec.candidate_roles(obs("pressure")) == ()

    def test_bare_condition_wrapped_as_node(self):
        spec = EventSpecification(
            event_id="hot",
            selectors={"x": EntitySelector()},
            condition=SIMPLE_CONDITION,
        )
        assert spec.condition == Leaf(SIMPLE_CONDITION)


class TestSelectorRouting:
    """candidate_roles routes through the per-spec signature table and
    must stay exactly equivalent to the unrouted full-selector scan."""

    @staticmethod
    def _routed_spec():
        return EventSpecification(
            event_id="routed",
            selectors={
                "a": EntitySelector(kinds={"hot"}),
                "b": EntitySelector(kinds={"hot", "cold"}),
                "c": EntitySelector(),  # accepts anything
                "d": EntitySelector(
                    kinds={"hot"}, region=Circle(PointLocation(0, 0), 5.0)
                ),
                "e": EntitySelector(min_confidence=0.95),
            },
            condition=AttributeCondition(
                "last", (AttributeTerm("a", "hot"),), RelationalOp.GT, 0.0
            ),
        )

    def test_instance_routing_matches_selector_scan(self):
        spec = self._routed_spec()
        entities = [
            instance("hot", EventLayer.SENSOR, rho=0.99, x=1.0),
            instance("hot", EventLayer.SENSOR, rho=0.5, x=30.0),
            instance("cold", EventLayer.SENSOR, rho=0.99),
            instance("hot", EventLayer.CYBER_PHYSICAL, rho=0.99),
            instance("other", EventLayer.SENSOR, rho=0.99),
        ]
        for entity in entities:
            assert spec.candidate_roles(entity) == spec._selector_scan(entity)

    def test_observation_routing_matches_selector_scan(self):
        spec = self._routed_spec()
        for entity in (obs("hot"), obs("cold", x=20.0), obs("other")):
            assert spec.candidate_roles(entity) == spec._selector_scan(entity)

    def test_route_table_is_populated_and_reused(self):
        spec = self._routed_spec()
        assert not spec._route_table
        first = spec.candidate_roles(instance("hot", EventLayer.SENSOR, rho=0.3))
        assert len(spec._route_table) == 1
        second = spec.candidate_roles(instance("hot", EventLayer.SENSOR, rho=0.8))
        assert len(spec._route_table) == 1  # same signature, cached route
        # Confidence-gated role e admits neither (threshold 0.95).
        assert "e" not in first and "e" not in second

    def test_fully_static_signature_returns_cached_tuple(self):
        spec = EventSpecification(
            event_id="static",
            selectors={
                "a": EntitySelector(kinds={"hot"}),
                "b": EntitySelector(),
            },
            condition=AttributeCondition(
                "last", (AttributeTerm("a", "hot"),), RelationalOp.GT, 0.0
            ),
        )
        one = instance("hot", EventLayer.SENSOR)
        first = spec.candidate_roles(one)
        second = spec.candidate_roles(instance("hot", EventLayer.SENSOR, rho=0.1))
        assert first == ("a", "b")
        assert first is second  # zero per-entity work on static routes

    def test_unknown_entity_species_falls_back(self):
        from repro.core.event import Event

        spec = self._routed_spec()
        event = Event(
            kind="hot", event_id="E1",
            occurrence_time=TimePoint(1),
            occurrence_location=PointLocation(0.0, 0.0),
        )
        assert spec.candidate_roles(event) == spec._selector_scan(event)
        assert not spec._route_table  # events never populate the table

    def test_roles_property_precomputed_and_sorted(self):
        spec = self._routed_spec()
        assert spec.roles == ("a", "b", "c", "d", "e")
        assert spec.roles is spec.roles  # cached tuple, not re-sorted
