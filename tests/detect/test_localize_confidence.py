"""Unit tests for localization and confidence fusion."""

import math
import random

import pytest

from repro.core.errors import ConditionError, SpatialError
from repro.core.space_model import PointLocation
from repro.detect.confidence import confidence_from_margin, fuse
from repro.detect.localize import (
    centroid_estimate,
    trilaterate,
    weighted_centroid,
)


class TestCentroidEstimates:
    def test_centroid(self):
        estimate = centroid_estimate(
            [PointLocation(0, 0), PointLocation(4, 0), PointLocation(2, 6)]
        )
        assert estimate == PointLocation(2, 2)

    def test_empty_rejected(self):
        with pytest.raises(SpatialError):
            centroid_estimate([])

    def test_weighted_centroid(self):
        estimate = weighted_centroid(
            [PointLocation(0, 0), PointLocation(10, 0)], [3.0, 1.0]
        )
        assert estimate == PointLocation(2.5, 0)

    def test_weighted_validation(self):
        points = [PointLocation(0, 0), PointLocation(1, 0)]
        with pytest.raises(SpatialError):
            weighted_centroid(points, [1.0])
        with pytest.raises(SpatialError):
            weighted_centroid(points, [0.0, 0.0])
        with pytest.raises(SpatialError):
            weighted_centroid(points, [-1.0, 2.0])


class TestTrilateration:
    ANCHORS = [
        PointLocation(0, 0),
        PointLocation(10, 0),
        PointLocation(0, 10),
    ]

    def test_exact_recovery(self):
        target = PointLocation(3, 4)
        ranges = [a.distance_to(target) for a in self.ANCHORS]
        estimate = trilaterate(self.ANCHORS, ranges)
        assert estimate.distance_to(target) < 1e-9

    def test_noisy_ranges_approximate(self):
        rng = random.Random(0)
        target = PointLocation(6, 2)
        anchors = self.ANCHORS + [PointLocation(10, 10)]
        ranges = [
            a.distance_to(target) + rng.gauss(0, 0.1) for a in anchors
        ]
        estimate = trilaterate(anchors, ranges)
        assert estimate.distance_to(target) < 1.0

    def test_collinear_anchors_rejected(self):
        anchors = [
            PointLocation(0, 0), PointLocation(5, 0), PointLocation(10, 0)
        ]
        with pytest.raises(SpatialError):
            trilaterate(anchors, [1.0, 1.0, 1.0])

    def test_input_validation(self):
        with pytest.raises(SpatialError):
            trilaterate(self.ANCHORS[:2], [1.0, 1.0])
        with pytest.raises(SpatialError):
            trilaterate(self.ANCHORS, [1.0, 1.0])
        with pytest.raises(SpatialError):
            trilaterate(self.ANCHORS, [1.0, -1.0, 1.0])


class TestConfidenceFromMargin:
    def test_at_threshold_is_half(self):
        assert confidence_from_margin(50.0, 50.0, 2.0) == pytest.approx(0.5)

    def test_far_above_is_certain(self):
        assert confidence_from_margin(60.0, 50.0, 2.0) > 0.999

    def test_far_below_is_zero(self):
        assert confidence_from_margin(40.0, 50.0, 2.0) < 0.001

    def test_zero_sigma_is_hard_decision(self):
        assert confidence_from_margin(51.0, 50.0, 0.0) == 1.0
        assert confidence_from_margin(49.0, 50.0, 0.0) == 0.0

    def test_one_sigma_matches_phi(self):
        expected = 0.5 * (1 + math.erf(1 / math.sqrt(2)))
        assert confidence_from_margin(52.0, 50.0, 2.0) == pytest.approx(expected)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConditionError):
            confidence_from_margin(1.0, 0.0, -1.0)


class TestFusion:
    def test_min(self):
        assert fuse("min", [0.9, 0.5, 0.7]) == 0.5

    def test_mean(self):
        assert fuse("mean", [0.4, 0.8]) == pytest.approx(0.6)

    def test_product(self):
        assert fuse("product", [0.5, 0.5]) == 0.25

    def test_noisy_or(self):
        assert fuse("noisy_or", [0.5, 0.5]) == 0.75
        assert fuse("noisy_or", [1.0, 0.0]) == 1.0

    def test_single_value_passthrough(self):
        for method in ("min", "mean", "product", "noisy_or"):
            assert fuse(method, [0.42]) == pytest.approx(0.42)

    def test_validation(self):
        with pytest.raises(ConditionError):
            fuse("min", [])
        with pytest.raises(ConditionError):
            fuse("min", [1.5])
        with pytest.raises(ConditionError):
            fuse("alchemy", [0.5])
