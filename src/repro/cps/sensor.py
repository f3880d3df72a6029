"""Sensors: the physical-to-cyber interface (Section 3).

"A sensor is a device that measures a physical phenomenon ... and
converts physical phenomena into information, which contains the
attributes, sampling timestamp, and/or spacestamp.  In general, one
type of sensor is associated with a single physical phenomenon."

A :class:`Sensor` samples one quantity from the
:class:`~repro.physical.world.PhysicalWorld` with a Gaussian noise
model and a failure probability; it returns a
:class:`~repro.core.instance.PhysicalObservation` (Eq. 5.2).  Note a
sensor is *not* an observer (Definition 4.3): it produces observations,
never event instances — that is the mote's job.

:class:`RangeSensor` measures the distance to one tracked physical
object (the paper's "range measurement of the user A" example).
"""

from __future__ import annotations

import random

from repro.core.errors import ComponentError
from repro.core.instance import PhysicalObservation
from repro.core.space_model import PointLocation
from repro.core.time_model import TimePoint
from repro.physical.world import PhysicalWorld

__all__ = ["Sensor", "RangeSensor"]


class Sensor:
    """A single-quantity sampling device with an error model.

    Args:
        sensor_id: Identifier ``SR_id`` (unique on its mote).
        quantity: The sensed phenomenon name (must match a registered
            world field, e.g. ``"temperature"``).
        noise_sigma: Std-dev of additive Gaussian measurement noise.
        failure_probability: Chance a sample attempt yields nothing.
        rng: Dedicated random stream for this sensor.
    """

    def __init__(
        self,
        sensor_id: str,
        quantity: str,
        rng: random.Random,
        noise_sigma: float = 0.0,
        failure_probability: float = 0.0,
    ):
        if noise_sigma < 0:
            raise ComponentError("noise_sigma must be >= 0")
        if not 0.0 <= failure_probability < 1.0:
            raise ComponentError(
                f"failure probability {failure_probability} not in [0, 1)"
            )
        self.sensor_id = sensor_id
        self.quantity = quantity
        self.noise_sigma = noise_sigma
        self.failure_probability = failure_probability
        self._rng = rng
        self._seq = 0

    def _degrade(self, true_value: float) -> float:
        value = float(true_value)
        if self.noise_sigma > 0:
            value += self._rng.gauss(0.0, self.noise_sigma)
        return value

    def true_value(
        self, world: PhysicalWorld, location: PointLocation, tick: int
    ) -> float:
        """Noise-free reading (ground truth for accuracy scoring)."""
        return world.sample(self.quantity, location, tick)

    def sample(
        self,
        world: PhysicalWorld,
        mote_id: str,
        location: PointLocation,
        tick: int,
    ) -> PhysicalObservation | None:
        """Take one sample; ``None`` models a failed conversion.

        The observation's ``V`` maps the quantity name to the degraded
        reading; ``t_o`` / ``l_o`` are the sampling tick and position.
        """
        if self.failure_probability > 0 and self._rng.random() < self.failure_probability:
            return None
        value = self._degrade(self.true_value(world, location, tick))
        observation = PhysicalObservation(
            mote_id=mote_id,
            sensor_id=self.sensor_id,
            seq=self._seq,
            time=TimePoint(tick),
            location=location,
            attributes={self.quantity: value},
        )
        self._seq += 1
        return observation


class RangeSensor(Sensor):
    """Distance measurement to one tracked physical object.

    The observation attribute is named ``range:<object>`` so selectors
    and conditions can address it, and the true value is the Euclidean
    distance between the mote and the object's current position.

    Args:
        sensor_id: Identifier ``SR_id``.
        target_object: Name of the tracked object ("userA").
        max_range: Readings beyond this yield no observation (the
            target is out of sensing range).
    """

    def __init__(
        self,
        sensor_id: str,
        target_object: str,
        rng: random.Random,
        noise_sigma: float = 0.0,
        max_range: float = float("inf"),
        failure_probability: float = 0.0,
    ):
        super().__init__(
            sensor_id,
            quantity=f"range:{target_object}",
            rng=rng,
            noise_sigma=noise_sigma,
            failure_probability=failure_probability,
        )
        if max_range <= 0:
            raise ComponentError("max_range must be positive")
        self.target_object = target_object
        self.max_range = max_range

    def true_value(
        self, world: PhysicalWorld, location: PointLocation, tick: int
    ) -> float:
        target = world.object(self.target_object)
        return location.distance_to(target.position(tick))

    def sample(
        self,
        world: PhysicalWorld,
        mote_id: str,
        location: PointLocation,
        tick: int,
    ) -> PhysicalObservation | None:
        true_distance = self.true_value(world, location, tick)
        if true_distance > self.max_range:
            return None
        if self.failure_probability > 0 and self._rng.random() < self.failure_probability:
            return None
        value = max(0.0, self._degrade(true_distance))
        observation = PhysicalObservation(
            mote_id=mote_id,
            sensor_id=self.sensor_id,
            seq=self._seq,
            time=TimePoint(tick),
            location=location,
            attributes={self.quantity: value},
        )
        self._seq += 1
        return observation
