"""Confidence (``rho``) derivation and fusion.

Equation 4.7 attaches a confidence level ``rho`` to every event
instance but the paper leaves its computation open; DESIGN.md documents
this substitution.  We provide:

* :func:`confidence_from_margin` — a sensor-level confidence: the
  probability that the *true* value clears a threshold given a noisy
  measurement (Gaussian noise model), i.e.
  ``rho = Phi((measured - threshold) / sigma)``;
* :func:`fuse` — combination rules used when an observer derives one
  instance from several input entities: the conservative ``min``, the
  ``mean`` linear opinion pool, independent-``product``, and
  ``noisy_or`` (at least one input is right).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from repro.core.errors import ConditionError

__all__ = ["confidence_from_margin", "fuse", "fusion_rule", "FUSION_METHODS"]


def confidence_from_margin(measured: float, threshold: float, sigma: float) -> float:
    """Probability the true value exceeds ``threshold``.

    Assumes the measurement is the true value plus zero-mean Gaussian
    noise with standard deviation ``sigma``; then
    ``P(true >= threshold) = Phi((measured - threshold) / sigma)``.
    ``sigma = 0`` degenerates to a hard 0/1 decision.

    Returns:
        A confidence in ``[0, 1]``.
    """
    if sigma < 0:
        raise ConditionError(f"sigma cannot be negative: {sigma}")
    if sigma == 0:
        return 1.0 if measured >= threshold else 0.0
    z = (measured - threshold) / sigma
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _fuse_min(values: list[float]) -> float:
    return min(values)


def _fuse_mean(values: list[float]) -> float:
    return sum(values) / len(values)


def _fuse_product(values: list[float]) -> float:
    product = 1.0
    for v in values:
        product *= v
    return product


def _fuse_noisy_or(values: list[float]) -> float:
    miss = 1.0
    for v in values:
        miss *= 1.0 - v
    return 1.0 - miss


FUSION_METHODS = {
    "min": _fuse_min,
    "mean": _fuse_mean,
    "product": _fuse_product,
    "noisy_or": _fuse_noisy_or,
}
"""Available fusion rules, keyed by the OutputPolicy name."""


def fusion_rule(method: str) -> Callable[[Iterable[float]], float]:
    """The fusion function of one method, resolved by name once.

    Args:
        method: One of ``min``, ``mean``, ``product``, ``noisy_or``.

    Returns:
        ``confidences -> rho``: input ``rho`` values (at least one) in,
        the fused confidence, clamped to ``[0, 1]``, out.
    """
    try:
        rule = FUSION_METHODS[method]
    except KeyError:
        raise ConditionError(
            f"unknown fusion method {method!r}; known: {sorted(FUSION_METHODS)}"
        ) from None

    def fused(confidences: Iterable[float]) -> float:
        values = [float(v) for v in confidences]
        if not values:
            raise ConditionError("cannot fuse zero confidences")
        for v in values:
            if not 0.0 <= v <= 1.0:
                raise outside_unit_interval(values)
        return min(1.0, max(0.0, rule(values)))

    return fused


def outside_unit_interval(confidences: Iterable[float]) -> ConditionError:
    """The error :func:`fusion_rule` raises for inputs outside ``[0, 1]``
    (the emitter's straight-line fusion raises the same)."""
    bad = [v for v in confidences if not 0.0 <= v <= 1.0]
    return ConditionError(f"confidences outside [0, 1]: {bad}")


def fuse(method: str, confidences: Iterable[float]) -> float:
    """Combine input confidences into one ``rho``: :func:`fusion_rule`, once."""
    return fusion_rule(method)(confidences)
