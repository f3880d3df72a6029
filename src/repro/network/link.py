"""Per-hop link behaviour: loss, retransmission and latency.

A :class:`LinkModel` turns a link's PRR into concrete per-hop outcomes:
how many transmission attempts a packet needs (geometric in the PRR,
capped at ``max_retries``), whether it is ultimately dropped, and how
many ticks the hop takes (per-attempt transmission time plus CSMA-style
random backoff).  All draws come from a dedicated random stream so link
behaviour is reproducible and independent of other components.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.errors import NetworkError

__all__ = ["HopOutcome", "LinkModel"]


@dataclass(frozen=True)
class HopOutcome:
    """Result of attempting one hop."""

    delivered: bool
    attempts: int
    delay: int


class LinkModel:
    """Retransmitting lossy link with CSMA-like per-attempt backoff.

    Args:
        rng: Dedicated random stream.
        transmission_ticks: Fixed on-air time per attempt.
        backoff_ticks: Upper bound of the uniform random backoff added
            per attempt (models contention).
        max_retries: Attempts before the packet is dropped.
    """

    def __init__(
        self,
        rng: random.Random,
        transmission_ticks: int = 1,
        backoff_ticks: int = 2,
        max_retries: int = 3,
    ):
        if transmission_ticks < 1:
            raise NetworkError("transmission_ticks must be >= 1")
        if backoff_ticks < 0 or max_retries < 1:
            raise NetworkError("invalid link model parameters")
        self._rng = rng
        self.transmission_ticks = transmission_ticks
        self.backoff_ticks = backoff_ticks
        self.max_retries = max_retries

    def attempt_hop(self, prr: float) -> HopOutcome:
        """Simulate one hop over a link with the given PRR."""
        if not 0.0 <= prr <= 1.0:
            raise NetworkError(f"prr {prr} not in [0, 1]")
        delay = 0
        for attempt in range(1, self.max_retries + 1):
            delay += self.transmission_ticks
            if self.backoff_ticks:
                delay += self._rng.randint(0, self.backoff_ticks)
            if self._rng.random() < prr:
                return HopOutcome(True, attempt, delay)
        return HopOutcome(False, self.max_retries, delay)

    def expected_hop_delay(self, prr: float) -> float:
        """Analytical expected delay of a successful hop (for the EDL model).

        Expected attempts for success (truncated geometric, conditioned
        on success within ``max_retries``) times the mean per-attempt
        time.  Falls back to the retry cap for unusable links.
        """
        per_attempt = self.transmission_ticks + self.backoff_ticks / 2.0
        if prr <= 0.0:
            return self.max_retries * per_attempt
        q = 1.0 - prr
        n = self.max_retries
        p_success = 1.0 - q**n
        if p_success <= 0.0:
            return n * per_attempt
        # E[attempts | success within n tries]
        expected_attempts = (
            sum(k * prr * q ** (k - 1) for k in range(1, n + 1)) / p_success
        )
        return expected_attempts * per_attempt
