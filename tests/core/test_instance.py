"""Unit tests for observations and event instances (Defs 4.3-4.4)."""

import gc

import pytest

from repro.core.errors import ObserverError
from repro.core.event import EventLayer
from repro.core.instance import (
    CyberEventInstance,
    CyberPhysicalEventInstance,
    EventInstance,
    ObserverId,
    ObserverKind,
    PhysicalObservation,
    SensorEventInstance,
)
from repro.core.space_model import PointLocation
from repro.core.time_model import TimeInterval, TimePoint

MOTE = ObserverId(ObserverKind.SENSOR_MOTE, "MT1")


def observation(seq=0, value=21.5):
    return PhysicalObservation(
        "MT1", "SR1", seq, TimePoint(10), PointLocation(1, 2),
        {"temperature": value},
    )


def live(cls):
    """Objects of exactly ``cls`` the collector can still see."""
    gc.collect()
    return sum(1 for o in gc.get_objects() if type(o) is cls)


def instance(**overrides):
    defaults = dict(
        observer=MOTE,
        event_id="hot",
        seq=0,
        generated_time=TimePoint(12),
        generated_location=PointLocation(1, 2),
        estimated_time=TimePoint(10),
        estimated_location=PointLocation(1, 2),
        attributes={"temperature": 80.0},
        confidence=0.9,
        layer=EventLayer.SENSOR,
    )
    defaults.update(overrides)
    return EventInstance(**defaults)


class TestPhysicalObservation:
    def test_key_is_paper_3_tuple(self):
        assert observation(seq=4).key == ("MT1", "SR1", 4)

    def test_uniform_entity_accessors(self):
        obs = observation()
        assert obs.occurrence_time == TimePoint(10)
        assert obs.occurrence_location == PointLocation(1, 2)
        assert obs.confidence == 1.0

    def test_attributes_read_only(self):
        with pytest.raises(TypeError):
            observation().attributes["temperature"] = 0


class TestEventInstance:
    def test_key_is_paper_3_tuple(self):
        # The observer is named by its canonical text: a key holds only
        # strings and ints.
        assert instance(seq=7).key == (str(MOTE), "hot", 7) == ("mote:MT1", "hot", 7)

    def test_observer_must_be_an_observer_id(self):
        before = live(EventInstance)
        for observer in ("mote:MT1", ("mote", "MT1"), None):
            with pytest.raises(ObserverError, match="is not an ObserverId"):
                instance(observer=observer)
        assert live(EventInstance) == before

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seq", -1),
            ("seq", 2.5),
            ("seq", True),
            ("seq", "3"),
            ("event_id", 5),
            ("generated_time", None),
            ("generated_time", 1),
        ],
    )
    def test_the_name_and_t_g_are_refused_at_construction(self, field, value):
        # A bad seq or event id would key the instance wrongly, and a t_g
        # that is not a TimePoint failed only later, inside
        # detection_latency.
        before = live(EventInstance)
        with pytest.raises(ObserverError):
            instance(**{field: value})
        assert live(EventInstance) == before

    def test_confidence_bounds_enforced(self):
        with pytest.raises(ObserverError):
            instance(confidence=1.5)
        with pytest.raises(ObserverError):
            instance(confidence=-0.1)

    def test_layer_must_be_observer_layer(self):
        with pytest.raises(ObserverError):
            instance(layer=EventLayer.PHYSICAL)
        with pytest.raises(ObserverError):
            instance(layer=EventLayer.OBSERVATION)

    def test_detection_latency_point(self):
        assert instance().detection_latency == 2

    def test_detection_latency_interval_measured_from_start(self):
        inst = instance(
            estimated_time=TimeInterval(TimePoint(5), TimePoint(9)),
            generated_time=TimePoint(11),
        )
        assert inst.detection_latency == 6

    def test_occurrence_accessors_use_estimates(self):
        inst = instance()
        assert inst.occurrence_time == TimePoint(10)
        assert inst.occurrence_location == PointLocation(1, 2)

    def test_describe_contains_six_tuple(self):
        text = instance().describe()
        for token in ("t_g=", "l_g=", "t_eo=", "l_eo=", "V=", "rho="):
            assert token in text

    def test_classification_properties(self):
        inst = instance(estimated_time=TimeInterval(TimePoint(1), TimePoint(5)))
        assert inst.temporal_class.value == "interval"
        assert inst.spatial_class.value == "point"


class TestLayerAliases:
    def test_sensor_event_layer(self):
        inst = SensorEventInstance(
            observer=MOTE, event_id="s", seq=0,
            generated_time=TimePoint(1), generated_location=PointLocation(0, 0),
            estimated_time=TimePoint(1), estimated_location=PointLocation(0, 0),
        )
        assert inst.layer is EventLayer.SENSOR

    def test_cyber_physical_layer(self):
        inst = CyberPhysicalEventInstance(
            observer=ObserverId(ObserverKind.SINK_NODE, "S1"),
            event_id="cp", seq=0,
            generated_time=TimePoint(1), generated_location=PointLocation(0, 0),
            estimated_time=TimePoint(1), estimated_location=PointLocation(0, 0),
        )
        assert inst.layer is EventLayer.CYBER_PHYSICAL

    def test_cyber_layer(self):
        inst = CyberEventInstance(
            observer=ObserverId(ObserverKind.CCU, "C1"),
            event_id="e", seq=0,
            generated_time=TimePoint(1), generated_location=PointLocation(0, 0),
            estimated_time=TimePoint(1), estimated_location=PointLocation(0, 0),
        )
        assert inst.layer is EventLayer.CYBER


class TestObserverId:
    NAMES = ["", "A", "B", "MT1", "MT10", "MT2", "a", "sink-1", "\u00fc"]

    def test_a_name_with_a_colon_is_rejected(self):
        # The canonical text ``kind:name`` splits one way only, so an
        # instance key never equals an observation key (mote names are
        # observer names).
        for name in (":", "sink:1", "MT1:"):
            with pytest.raises(ObserverError, match="contains ':'"):
                ObserverId(ObserverKind.SENSOR_MOTE, name)
            assert not [
                o for o in gc.get_objects()
                if type(o) is ObserverId and o.name == name
            ]

    def test_repr_and_ordering(self):
        a = ObserverId(ObserverKind.SENSOR_MOTE, "A")
        b = ObserverId(ObserverKind.SENSOR_MOTE, "B")
        assert repr(a) == "mote:A"
        assert a < b

    def test_hash_and_repr_are_stored_answers_to_the_same_questions(self):
        # Both are computed once at construction; what they say is what
        # the generated dataclass methods said.
        for kind in ObserverKind:
            for name in self.NAMES:
                one, other = ObserverId(kind, name), ObserverId(kind, name)
                assert one == other and one is not other
                assert hash(one) == hash(other) == hash((kind, name))
                assert repr(one) == str(one) == f"{kind.value}:{name}"
        everyone = {
            ObserverId(kind, name)
            for kind in ObserverKind for name in self.NAMES for _ in range(2)
        }
        assert len(everyone) == len(ObserverKind) * len(self.NAMES)

    def test_order_is_by_name_within_a_kind_and_undefined_across_kinds(self):
        for kind in ObserverKind:
            ids = [ObserverId(kind, name) for name in reversed(self.NAMES)]
            assert [i.name for i in sorted(ids)] == sorted(self.NAMES)
        a = ObserverId(ObserverKind.CCU, "a")
        assert a <= ObserverId(ObserverKind.CCU, "a")
        assert a > ObserverId(ObserverKind.CCU, "B")
        with pytest.raises(TypeError):
            sorted([a, ObserverId(ObserverKind.SENSOR_MOTE, "a")])
        with pytest.raises(TypeError):
            a < "ccu:a"

    def test_equality_is_by_kind_and_name_and_only_with_its_own_class(self):
        a = ObserverId(ObserverKind.CCU, "a")
        assert a != ObserverId(ObserverKind.SINK_NODE, "a")
        assert a != ObserverId(ObserverKind.CCU, "b")
        assert a != "ccu:a" and a != (ObserverKind.CCU, "a")
        assert a.__eq__("ccu:a") is NotImplemented

    def test_still_a_frozen_two_field_dataclass(self):
        import dataclasses

        a = ObserverId(ObserverKind.CCU, "a")
        assert [f.name for f in dataclasses.fields(a)] == ["kind", "name"]
        renamed = dataclasses.replace(a, name="z")
        assert repr(renamed) == "ccu:z" and hash(renamed) != hash(a)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.name = "b"

    def test_identifies_instances_wherever_a_key_is_hashed(self):
        from repro.cps.database import DatabaseServer
        from repro.sim.kernel import Simulator

        first = instance(observer=ObserverId(ObserverKind.SINK_NODE, "S1"))
        again = instance(observer=ObserverId(ObserverKind.SINK_NODE, "S1"))
        other = instance(observer=ObserverId(ObserverKind.SINK_NODE, "S2"))
        assert first.key == again.key != other.key
        assert {first.key: 1}[again.key] == 1
        database = DatabaseServer("DB", Simulator())
        assert database.store(first)
        assert not database.store(again)  # the same key, a different object
        assert database.store(other)
        assert len(database) == 2
        assert database.query() == [first, other]
