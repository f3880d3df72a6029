"""Synthetic entity streams for engine-level benchmarks.

The scalability experiments (E9/E10) need controllable entity streams
without a full physical simulation: Poisson arrivals of observations
with configurable attribute distributions and spatial scatter.  All
generators are deterministic given their random stream.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.core.instance import PhysicalObservation
from repro.core.space_model import BoundingBox, PointLocation
from repro.core.time_model import TimePoint

__all__ = ["poisson_ticks", "synthetic_observations"]


def poisson_ticks(rate: float, rng: random.Random, start: int = 0) -> Iterator[int]:
    """Arrival ticks of a Poisson process with ``rate`` events/tick.

    Inter-arrival gaps are geometric draws rounded up to at least one
    tick, matching the discrete time model.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    tick = start
    while True:
        gap = max(1, round(rng.expovariate(rate)))
        tick += gap
        yield tick


def synthetic_observations(
    count: int,
    rate: float,
    bounds: BoundingBox,
    rng: random.Random,
    quantity: str = "value",
    mean: float = 50.0,
    sigma: float = 10.0,
    mote_pool: int = 20,
) -> list[PhysicalObservation]:
    """``count`` observations with Poisson timing and Gaussian values.

    Args:
        count: Number of observations.
        rate: Mean arrivals per tick.
        bounds: Spatial scatter region.
        rng: Dedicated random stream.
        quantity: Attribute name carried by every observation.
        mean: Mean attribute value.
        sigma: Attribute standard deviation.
        mote_pool: Number of distinct synthetic mote names.
    """
    arrivals = poisson_ticks(rate, rng)
    observations: list[PhysicalObservation] = []
    seqs: dict[str, int] = {}
    for _ in range(count):
        tick = next(arrivals)
        mote = f"MT{rng.randrange(mote_pool)}"
        seq = seqs.get(mote, 0)
        seqs[mote] = seq + 1
        observations.append(
            PhysicalObservation(
                mote_id=mote,
                sensor_id="SR0",
                seq=seq,
                time=TimePoint(tick),
                location=PointLocation(
                    rng.uniform(bounds.min_x, bounds.max_x),
                    rng.uniform(bounds.min_y, bounds.max_y),
                ),
                attributes={quantity: rng.gauss(mean, sigma)},
            )
        )
    return observations

