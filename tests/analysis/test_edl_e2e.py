"""Unit tests for the analytical EDL and end-to-end latency models."""

import random

import pytest

from repro.analysis.e2e import EndToEndModel
from repro.analysis.edl import EdlModel
from repro.core.errors import AnalysisError
from repro.network.fabric import DutyCycleMac
from repro.network.link import LinkModel


def link(**kwargs):
    defaults = dict(transmission_ticks=1, backoff_ticks=2, max_retries=3)
    defaults.update(kwargs)
    return LinkModel(random.Random(0), **defaults)


def model(**kwargs):
    defaults = dict(
        sampling_period=10,
        link=link(),
        prr=0.9,
        sink_processing=1,
        bus_latency=1,
        ccu_processing=1,
    )
    defaults.update(kwargs)
    return EdlModel(**defaults)


class TestEdlModel:
    def test_breakdown_composition(self):
        breakdown = model().breakdown(hops=3)
        assert breakdown.sampling == 5.0
        assert breakdown.sensor_edl == 5.0
        assert breakdown.cyber_physical_edl == pytest.approx(
            breakdown.sensor_edl + breakdown.network + 1.0
        )
        assert breakdown.cyber_edl == pytest.approx(
            breakdown.cyber_physical_edl + 2.0
        )

    def test_edl_linear_in_hops(self):
        m = model()
        one = m.expected_cp_edl(1)
        two = m.expected_cp_edl(2)
        three = m.expected_cp_edl(3)
        assert two - one == pytest.approx(three - two)
        assert two - one == pytest.approx(m.expected_hop_delay())

    def test_edl_grows_with_sampling_period(self):
        slow = model(sampling_period=100).expected_sensor_edl()
        fast = model(sampling_period=10).expected_sensor_edl()
        assert slow - fast == pytest.approx(45.0)  # (100-10)/2

    def test_duty_cycle_adds_expected_wait(self):
        base = model().expected_hop_delay()
        cycled = model(mac=DutyCycleMac(10)).expected_hop_delay()
        assert cycled - base == pytest.approx(4.5)

    def test_lower_prr_longer_delay(self):
        good = model(prr=0.95).expected_cp_edl(3)
        bad = model(prr=0.4).expected_cp_edl(3)
        assert bad > good

    def test_worst_case_bounds_expected(self):
        m = model(mac=DutyCycleMac(5))
        for hops in (1, 3, 6):
            assert m.worst_cp_edl(hops) >= m.expected_cp_edl(hops)
            assert m.worst_cyber_edl(hops) >= m.expected_cyber_edl(hops)

    def test_worst_hop_spends_the_wait_and_every_retry(self):
        # (period - 1) wait + 3 retries of (1 transmission + 2 backoff).
        assert model(mac=DutyCycleMac(5)).worst_hop_delay() == 13.0

    def test_tree_average(self):
        m = model()
        histogram = {0: 1, 1: 4, 2: 4}  # root ignored
        average = m.expected_cp_edl_over_tree(histogram)
        expected = (m.expected_cp_edl(1) * 4 + m.expected_cp_edl(2) * 4) / 8
        assert average == pytest.approx(expected)

    def test_tree_average_requires_motes(self):
        with pytest.raises(AnalysisError):
            model().expected_cp_edl_over_tree({0: 1})

    def test_validation(self):
        with pytest.raises(AnalysisError):
            model(sampling_period=0)
        with pytest.raises(AnalysisError):
            model(prr=0.0)
        with pytest.raises(AnalysisError):
            model().expected_network_delay(-1)


class TestEndToEndModel:
    def make(self, **kwargs):
        defaults = dict(
            edl=model(),
            backbone_latency=2,
            actuation_ticks=3,
        )
        defaults.update(kwargs)
        return EndToEndModel(**defaults)

    def test_total_composes_detection_and_actuation(self):
        e2e = self.make()
        total = e2e.expected_total(sensor_hops=2, actor_hops=1)
        detect = model().expected_cyber_edl(2)
        act = e2e.expected_command_delay(1)
        assert total == pytest.approx(detect + act)

    def test_command_delay_linear_in_actor_hops(self):
        e2e = self.make()
        one = e2e.expected_command_delay(1)
        two = e2e.expected_command_delay(2)
        three = e2e.expected_command_delay(3)
        assert two - one == pytest.approx(three - two)

    @pytest.mark.parametrize("actor_hops", [0, 1, 3])
    def test_actor_hop_is_a_loss_free_always_on_link_hop(self, actor_hops):
        # backbone 2 + hops * (1 transmission + 2/2 backoff) + actuation 3
        e2e = self.make()
        assert e2e.expected_command_delay(actor_hops) == 5 + 2 * actor_hops

    @pytest.mark.parametrize("actor_hops", [1, 4])
    def test_worst_actor_hop_spends_every_retry(self, actor_hops):
        # 3 retries of (1 transmission + 2 backoff), no MAC wait.
        e2e = self.make()
        assert e2e.worst_total(2, actor_hops) - e2e.worst_total(2, 0) == (
            9 * actor_hops
        )

    def test_worst_bounds_expected(self):
        e2e = self.make()
        assert e2e.worst_total(2, 2) >= e2e.expected_total(2, 2)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            self.make().expected_command_delay(-1)
