"""Radio propagation models: who can hear whom, and how well.

The sensor/actor networks of Section 3 are wireless; link existence and
quality derive from a radio model mapping a pair of positions to a
packet reception ratio (PRR).  Two standard models are provided:

* :class:`UnitDiskRadio` — perfect reception inside a range, nothing
  outside; the classic analysis model;
* :class:`LogDistanceRadio` — a smooth PRR curve with a transitional
  region, matching the lossy-link behaviour real WSN deployments show
  (Akyildiz et al., the paper's ref [19]).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.core.errors import NetworkError
from repro.core.space_model import PointLocation

__all__ = ["RadioModel", "UnitDiskRadio", "LogDistanceRadio"]


class RadioModel(ABC):
    """Maps transmitter/receiver positions to a packet reception ratio."""

    @abstractmethod
    def prr(self, a: PointLocation, b: PointLocation) -> float:
        """Packet reception ratio in ``[0, 1]`` for one transmission."""


class UnitDiskRadio(RadioModel):
    """Binary connectivity: PRR 1 within ``range``, 0 beyond.

    Args:
        communication_range: Maximum link distance.
    """

    def __init__(self, communication_range: float):
        if communication_range <= 0:
            raise NetworkError("communication range must be positive")
        self.communication_range = communication_range

    def prr(self, a: PointLocation, b: PointLocation) -> float:
        return 1.0 if a.distance_to(b) <= self.communication_range else 0.0


class LogDistanceRadio(RadioModel):
    """Sigmoid PRR over distance with a gray transitional region.

    PRR(d) = 1 / (1 + exp((d - d50) / width)) — near-perfect links up
    close, a transitional band around ``d50`` and effectively dead links
    beyond.  ``width`` controls how wide the unreliable band is.

    Args:
        d50: Distance at which PRR = 0.5.
        width: Steepness of the transition (smaller = sharper).
    """

    def __init__(self, d50: float, width: float = 2.0):
        if d50 <= 0 or width <= 0:
            raise NetworkError("d50 and width must be positive")
        self.d50 = d50
        self.width = width

    def prr(self, a: PointLocation, b: PointLocation) -> float:
        distance = a.distance_to(b)
        return 1.0 / (1.0 + math.exp((distance - self.d50) / self.width))
