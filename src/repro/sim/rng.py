"""Named, independent, reproducible random streams.

Distributed-system simulations need *stream separation*: the noise on
mote 7's temperature sensor must not change when packet loss on link
3-4 consumes a different number of random draws.  ``RngStreams`` hands
out one :class:`random.Random` per name, each seeded by a stable hash
of ``(root seed, name)``, so components draw from disjoint, replayable
sequences.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["RngStreams"]


class RngStreams:
    """Factory of named deterministic random streams.

    Args:
        seed: Root seed; two factories with the same seed produce
            identical streams for identical names.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The stream for ``name``, created on first use."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        stream = random.Random(int.from_bytes(digest[:8], "big"))
        self._streams[name] = stream
        return stream

    def gauss(self, name: str, mu: float = 0.0, sigma: float = 1.0) -> float:
        """One Gaussian draw from the named stream."""
        return self.stream(name).gauss(mu, sigma)

    def uniform(self, name: str, a: float = 0.0, b: float = 1.0) -> float:
        """One uniform draw from the named stream."""
        return self.stream(name).uniform(a, b)
