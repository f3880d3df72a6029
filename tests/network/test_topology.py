"""Unit tests for radio models and topology builders."""

import pytest

from repro.core.errors import NetworkError
from repro.core.space_model import PointLocation
from repro.network.radio import LogDistanceRadio, UnitDiskRadio
from repro.network.topology import Topology, grid_topology


class TestUnitDiskRadio:
    def test_binary_prr(self):
        radio = UnitDiskRadio(10.0)
        assert radio.prr(PointLocation(0, 0), PointLocation(10, 0)) == 1.0
        assert radio.prr(PointLocation(0, 0), PointLocation(10.1, 0)) == 0.0

    def test_in_range(self):
        radio = UnitDiskRadio(10.0)
        assert radio.in_range(PointLocation(0, 0), PointLocation(5, 0))
        assert not radio.in_range(PointLocation(0, 0), PointLocation(15, 0))

    def test_validation(self):
        with pytest.raises(NetworkError):
            UnitDiskRadio(0.0)


class TestLogDistanceRadio:
    def test_monotone_decay(self):
        radio = LogDistanceRadio(d50=10.0, width=2.0)
        origin = PointLocation(0, 0)
        prrs = [
            radio.prr(origin, PointLocation(d, 0)) for d in (1, 5, 10, 15, 30)
        ]
        assert prrs == sorted(prrs, reverse=True)
        assert prrs[2] == pytest.approx(0.5)
        assert prrs[0] > 0.95
        assert prrs[-1] < 0.01

    def test_validation(self):
        with pytest.raises(NetworkError):
            LogDistanceRadio(d50=0.0)


class TestTopology:
    def test_grid_names_and_positions(self):
        topo = grid_topology(2, 3, 5.0, UnitDiskRadio(6.0))
        assert len(topo) == 6
        assert topo.position("MT1_2") == PointLocation(10.0, 5.0)
        assert "MT0_0" in topo and "MT9_9" not in topo

    def test_grid_connectivity(self):
        topo = grid_topology(3, 3, 10.0, UnitDiskRadio(10.5))
        assert topo.is_connected()
        # Only 4-neighbourhood links at this range.
        assert set(topo.neighbors("MT1_1")) == {
            "MT0_1", "MT1_0", "MT1_2", "MT2_1"
        }

    def test_prr_lookup(self):
        topo = grid_topology(1, 2, 5.0, UnitDiskRadio(6.0))
        assert topo.prr("MT0_0", "MT0_1") == 1.0
        topo2 = grid_topology(1, 2, 8.0, UnitDiskRadio(6.0))
        assert topo2.prr("MT0_0", "MT0_1") == 0.0

    def test_unknown_node(self):
        topo = grid_topology(2, 2, 5.0, UnitDiskRadio(6.0))
        with pytest.raises(NetworkError):
            topo.position("ghost")
        with pytest.raises(NetworkError):
            topo.neighbors("ghost")

    def test_add_node_induces_links(self):
        topo = grid_topology(1, 2, 5.0, UnitDiskRadio(6.0))
        topo.add_node("sink", PointLocation(2.5, 3.0))
        assert set(topo.neighbors("sink")) == {"MT0_0", "MT0_1"}
        with pytest.raises(NetworkError):
            topo.add_node("sink", PointLocation(0, 0))

    def test_prr_floor_prunes_weak_links(self):
        radio = LogDistanceRadio(d50=5.0, width=1.0)
        positions = {
            "a": PointLocation(0, 0),
            "b": PointLocation(9, 0),   # PRR ~ 0.018
        }
        sparse = Topology(positions, radio, prr_floor=0.1)
        assert sparse.prr("a", "b") == 0.0
        dense = Topology(positions, radio, prr_floor=0.01)
        assert dense.prr("a", "b") > 0.0

    def test_validation(self):
        with pytest.raises(NetworkError):
            Topology({}, UnitDiskRadio(5.0))
        with pytest.raises(NetworkError):
            Topology(
                {"a": PointLocation(0, 0)}, UnitDiskRadio(5.0), prr_floor=0.0
            )

