"""Scalar physical phenomena defined over space and time.

Sensors sample *phenomena* — "a physical phenomenon, e.g., room
temperature" (Section 3).  A :class:`ScalarField` maps a location and a
tick to a value; concrete fields model the phenomena the paper's
examples need:

* :class:`UniformField` — a spatially constant ambient value with an
  optional deterministic trend (e.g. ambient temperature);
* :class:`GaussianPlumeField` — superposition of radially decaying
  sources (heat sources, gas leaks, light).

:class:`~repro.physical.fire.FireTemperatureField` is the one field
with dynamics: it turns a fire model's burning cells into temperature.

Fields are *deterministic*; measurement noise belongs to the sensor
model (:class:`repro.cps.sensor.Sensor`), mirroring reality where the
world has a true state and only the instruments are noisy.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.space_model import PointLocation

__all__ = [
    "ScalarField",
    "UniformField",
    "PlumeSource",
    "GaussianPlumeField",
]


class ScalarField(ABC):
    """A scalar quantity defined at every location and tick."""

    @abstractmethod
    def value_at(self, location: PointLocation, tick: int) -> float:
        """True value of the phenomenon at ``location`` and ``tick``."""

    def step(self, tick: int) -> None:
        """Advance internal dynamics to ``tick`` (default: static)."""


class UniformField(ScalarField):
    """Spatially uniform value with an optional temporal trend.

    Args:
        base: Value at tick 0.
        trend: Optional function of the tick added to ``base`` (e.g.
            a diurnal cycle).
    """

    def __init__(self, base: float, trend: Callable[[int], float] | None = None):
        self.base = base
        self.trend = trend

    def value_at(self, location: PointLocation, tick: int) -> float:
        value = self.base
        if self.trend is not None:
            value += self.trend(tick)
        return value


@dataclass
class PlumeSource:
    """One radially decaying source of a plume field.

    Args:
        center: Source location.
        amplitude: Peak contribution at the center.
        sigma: Gaussian decay length (same units as coordinates).
        start: First tick the source is active.
        end: Last active tick (``None`` = forever).
        ramp: Ticks over which the amplitude ramps linearly from 0
            after ``start`` (models gradual onset).
    """

    center: PointLocation
    amplitude: float
    sigma: float
    start: int = 0
    end: int | None = None
    ramp: int = 0

    def contribution(self, location: PointLocation, tick: int) -> float:
        """This source's contribution at a location and tick."""
        if tick < self.start:
            return 0.0
        if self.end is not None and tick > self.end:
            return 0.0
        scale = 1.0
        if self.ramp > 0:
            scale = min(1.0, (tick - self.start) / self.ramp)
        distance = self.center.distance_to(location)
        return (
            self.amplitude
            * scale
            * math.exp(-(distance * distance) / (2.0 * self.sigma * self.sigma))
        )


class GaussianPlumeField(ScalarField):
    """Sum of an ambient base and any number of Gaussian sources.

    Sources may be added while the simulation runs (e.g. a fire igniting
    at tick 500); the field stays deterministic because contributions
    are pure functions of the tick.
    """

    def __init__(self, base: float = 0.0, sources: Sequence[PlumeSource] = ()):
        self.base = base
        self.sources: list[PlumeSource] = list(sources)

    def add_source(self, source: PlumeSource) -> None:
        """Activate another source."""
        self.sources.append(source)

    def value_at(self, location: PointLocation, tick: int) -> float:
        return self.base + sum(
            source.contribution(location, tick) for source in self.sources
        )

