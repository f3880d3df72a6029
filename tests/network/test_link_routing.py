"""Unit tests for the link model and routing trees."""

import random

import pytest

from repro.core.errors import NetworkError, RoutingError
from repro.network.link import LinkModel
from repro.network.radio import UnitDiskRadio
from repro.network.routing import RoutingTree
from repro.network.topology import Topology, grid_topology
from repro.core.space_model import PointLocation


def link(seed=0, **kwargs):
    return LinkModel(random.Random(seed), **kwargs)


class TestLinkModel:
    def test_perfect_link_one_attempt(self):
        outcome = link(backoff_ticks=0).attempt_hop(1.0)
        assert outcome.delivered
        assert outcome.attempts == 1
        assert outcome.delay == 1

    def test_dead_link_exhausts_retries(self):
        model = link(max_retries=3, backoff_ticks=0)
        outcome = model.attempt_hop(0.0)
        assert not outcome.delivered
        assert outcome.attempts == 3
        assert outcome.delay == 3

    def test_prr_validation(self):
        with pytest.raises(NetworkError):
            link().attempt_hop(1.5)

    def test_parameter_validation(self):
        with pytest.raises(NetworkError):
            link(transmission_ticks=0)
        with pytest.raises(NetworkError):
            link(max_retries=0)

    def test_negative_backoff_refused(self):
        with pytest.raises(NetworkError):
            link(backoff_ticks=-1)

    def test_delay_on_success_is_the_attempts_alone(self):
        # One tick per attempt and no backoff: a delivered hop's delay
        # is its attempt count, with nothing added once per hop.
        model = link(seed=1, backoff_ticks=0, max_retries=10)
        outcomes = [model.attempt_hop(0.5) for _ in range(200)]
        assert all(o.delay == o.attempts for o in outcomes if o.delivered)
        assert model.expected_hop_delay(1.0) == 1.0

    def test_expected_delay_matches_monte_carlo(self):
        model = link(seed=11, backoff_ticks=2, max_retries=5)
        prr = 0.7
        expected = model.expected_hop_delay(prr)
        samples = []
        for _ in range(20_000):
            outcome = model.attempt_hop(prr)
            if outcome.delivered:
                samples.append(outcome.delay)
        empirical = sum(samples) / len(samples)
        assert empirical == pytest.approx(expected, rel=0.05)

    def test_expected_delay_monotone_in_prr(self):
        model = link(backoff_ticks=2, max_retries=5)
        delays = [model.expected_hop_delay(p) for p in (0.9, 0.5, 0.2)]
        assert delays == sorted(delays)


class TestRoutingTree:
    def topo(self):
        return grid_topology(3, 3, 10.0, UnitDiskRadio(10.5))

    def test_paths_to_single_root(self):
        tree = RoutingTree(self.topo(), ["MT0_0"])
        assert tree.hops_to_root("MT0_0") == 0
        assert tree.hops_to_root("MT2_2") == 4
        path = tree.path_to_root("MT2_2")
        assert path[0] == "MT2_2" and path[-1] == "MT0_0"
        assert len(path) == 5

    def test_multi_root_assignment(self):
        tree = RoutingTree(self.topo(), ["MT0_0", "MT2_2"])
        assert tree.path_to_root("MT0_1")[-1] == "MT0_0"
        assert tree.path_to_root("MT2_1")[-1] == "MT2_2"

    def test_depth_histogram(self):
        tree = RoutingTree(self.topo(), ["MT0_0"])
        histogram = tree.depth_histogram()
        assert histogram[0] == 1
        assert sum(histogram.values()) == 9
        assert histogram[4] == 1  # the far corner

    def test_etx_weight_prefers_reliable_path(self):
        # Triangle: direct link a-c is weak; a-b and b-c are strong.
        positions = {
            "a": PointLocation(0, 0),
            "b": PointLocation(5, 0),
            "c": PointLocation(10, 0),
        }

        class MixedRadio(UnitDiskRadio):
            def prr(self, p, q):
                distance = p.distance_to(q)
                if distance <= 5.0:
                    return 0.9
                if distance <= 10.0:
                    return 0.2
                return 0.0

        topo = Topology(positions, MixedRadio(10.0))
        tree = RoutingTree(topo, ["c"])
        assert tree.path_to_root("a") == ["a", "b", "c"]
        assert tree.point_to_point("a", "c") == ["a", "b", "c"]

    def test_disconnected_node(self):
        positions = {
            "a": PointLocation(0, 0),
            "b": PointLocation(5, 0),
            "island": PointLocation(100, 100),
        }
        topo = Topology(positions, UnitDiskRadio(10.0))
        tree = RoutingTree(topo, ["a"])
        assert tree.path_to_root("b") == ["b", "a"]
        with pytest.raises(RoutingError):
            tree.path_to_root("island")

    def test_point_to_point(self):
        tree = RoutingTree(self.topo(), ["MT0_0"])
        path = tree.point_to_point("MT2_0", "MT0_2")
        assert path[0] == "MT2_0" and path[-1] == "MT0_2"
        with pytest.raises(RoutingError):
            tree.point_to_point("MT0_0", "ghost")

    def test_point_to_point_without_a_path(self):
        positions = {"a": PointLocation(0, 0), "island": PointLocation(99, 0)}
        tree = RoutingTree(Topology(positions, UnitDiskRadio(10.0)), ["a"])
        with pytest.raises(RoutingError):
            tree.point_to_point("a", "island")

    def test_validation(self):
        with pytest.raises(RoutingError):
            RoutingTree(self.topo(), [])
        with pytest.raises(RoutingError):
            RoutingTree(self.topo(), ["ghost"])
