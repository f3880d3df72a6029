"""Deterministic per-source token-bucket rate limiting.

The bucket is driven by **arrival ticks**, not wall clock: refill is a
pure function of how many ticks elapsed since the last take, so the
same stream admits the same items on every run — rate limiting stays
inside the reproducibility envelope the conformance goldens pin.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ObserverError

__all__ = ["TokenBucket"]


@dataclass
class TokenBucket:
    """A tick-driven token bucket: ``rate`` tokens per tick, ``burst`` cap.

    Args:
        rate: Refill rate in admissions per tick (> 0).
        burst: Bucket capacity — the largest co-arriving group admitted
            at once after a quiet period (>= 1).

    The bucket starts full, so a source's first ``burst`` observations
    always pass; sustained input beyond ``rate`` drains it and further
    arrivals must wait for tick-driven refill (the admission controller
    defers them).
    """

    rate: float
    burst: float = 1.0

    def __post_init__(self) -> None:
        # AdmissionLimits has refused a non-positive rate and a burst
        # below 1 before any bucket is built.
        self._tokens = float(self.burst)
        self._last_tick: int | None = None

    @property
    def tokens(self) -> float:
        """Tokens currently available (before any refill)."""
        return self._tokens

    @property
    def last_tick(self) -> int | None:
        """The tick the bucket's clock stands at (``None`` before the
        first take): no later take may name an earlier one."""
        return self._last_tick

    def refill(self, now: int) -> None:
        """Advance the bucket's clock to ``now`` (monotone)."""
        if self._last_tick is None:
            self._last_tick = now
            return
        if now < self._last_tick:
            raise ObserverError(
                f"token bucket clock regresses from {self._last_tick} to {now}"
            )
        self._tokens = min(
            float(self.burst), self._tokens + self.rate * (now - self._last_tick)
        )
        self._last_tick = now

    def try_take(self, now: int) -> bool:
        """Refill to ``now`` and consume one token if available."""
        self.refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    # -- checkpoint ----------------------------------------------------

    def state(self) -> tuple[float, int | None]:
        """Checkpoint view: ``(tokens, last_tick)``."""
        return self._tokens, self._last_tick

    def restore(self, state: tuple[float, int | None]) -> None:
        """Reload a :meth:`state` the admission controller's
        ``ensure_restorable`` accepted: ``(tokens, last_tick)`` with
        ``0 <= tokens <= burst``."""
        tokens, self._last_tick = state
        self._tokens = float(tokens)
