"""Unit tests for scalar physical fields."""

import pytest

from repro.core.space_model import PointLocation
from repro.physical.fields import (
    GaussianPlumeField,
    PlumeSource,
    UniformField,
)

ORIGIN = PointLocation(0, 0)


class TestUniformField:
    def test_constant_everywhere(self):
        field = UniformField(21.5)
        assert field.value_at(ORIGIN, 0) == 21.5
        assert field.value_at(PointLocation(100, -50), 999) == 21.5

    def test_trend_applied(self):
        field = UniformField(20.0, trend=lambda tick: 0.1 * tick)
        assert field.value_at(ORIGIN, 0) == 20.0
        assert field.value_at(ORIGIN, 50) == pytest.approx(25.0)


class TestPlumeSource:
    def test_peak_at_center(self):
        source = PlumeSource(ORIGIN, amplitude=100.0, sigma=5.0)
        assert source.contribution(ORIGIN, 0) == pytest.approx(100.0)

    def test_radial_decay(self):
        source = PlumeSource(ORIGIN, amplitude=100.0, sigma=5.0)
        near = source.contribution(PointLocation(2, 0), 0)
        far = source.contribution(PointLocation(10, 0), 0)
        assert near > far > 0

    def test_activation_window(self):
        source = PlumeSource(ORIGIN, 100.0, 5.0, start=10, end=20)
        assert source.contribution(ORIGIN, 9) == 0.0
        assert source.contribution(ORIGIN, 15) == pytest.approx(100.0)
        assert source.contribution(ORIGIN, 21) == 0.0

    def test_ramp(self):
        source = PlumeSource(ORIGIN, 100.0, 5.0, start=0, ramp=10)
        assert source.contribution(ORIGIN, 5) == pytest.approx(50.0)
        assert source.contribution(ORIGIN, 10) == pytest.approx(100.0)
        assert source.contribution(ORIGIN, 50) == pytest.approx(100.0)


class TestGaussianPlumeField:
    def test_base_plus_sources(self):
        field = GaussianPlumeField(base=20.0)
        assert field.value_at(ORIGIN, 0) == 20.0
        field.add_source(PlumeSource(ORIGIN, 80.0, 5.0))
        assert field.value_at(ORIGIN, 0) == pytest.approx(100.0)

    def test_superposition(self):
        field = GaussianPlumeField(
            base=0.0,
            sources=[
                PlumeSource(PointLocation(-5, 0), 10.0, 100.0),
                PlumeSource(PointLocation(5, 0), 10.0, 100.0),
            ],
        )
        middle = field.value_at(ORIGIN, 0)
        assert middle > field.value_at(PointLocation(50, 0), 0)

