"""Deterministic fault plans: crashes, duplicates, corruption, stalls.

A :class:`FaultPlan` is a *schedule* of transport faults, keyed by
delivery step (the index of an arrival-tick group in the base stream),
that :class:`~repro.stream.resilience.faulty.FaultySource` injects
around any :class:`~repro.stream.source.ObservationSource`:

* **crash** — the source raises :class:`SourceCrash` after delivering a
  prefix of the step, modelling a sink/uplink process dying mid-flight;
  a supervisor reconnects and the source re-delivers everything since
  the last acknowledged step (at-least-once);
* **duplicate** — a burst of recently delivered observations is sent
  again (retransmit storms, acks lost in flight); copies keep their
  original ``(source, seq)`` identity so redelivery dedup can kill them;
* **corrupt** — a bit-flipped copy of an observation arrives alongside
  the intact original (the link layer retransmits a frame that failed
  its checksum); the copy's payload is a :class:`CorruptObservation`
  the quarantine's validator rejects;
* **stall / flap** — the link pauses for a while and every subsequent
  delivery shifts later in arrival time; several stall entries make the
  link flap.

Plans are plain data and therefore reproducible: the same plan against
the same base stream injects byte-identical faults.  The seeded
constructor (:meth:`FaultPlan.seeded`) draws a schedule with guaranteed
minimum coverage — at least the requested number of crashes, duplicate
bursts, corruptions and stalls — which is what the chaos conformance
legs use to prove every registered scenario recovers exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.errors import ObserverError

__all__ = [
    "SourceCrash",
    "CorruptObservation",
    "FaultPlan",
]


class SourceCrash(ObserverError):
    """A source died mid-iteration (injected or real).

    Raised by :class:`~repro.stream.resilience.faulty.FaultySource` at
    scheduled crash steps;
    :class:`~repro.stream.resilience.supervisor.SupervisedRuntime`
    catches it, restores the last checkpoint and reconnects.
    """

    def __init__(self, message: str, step: int, delivered: int):
        super().__init__(message)
        self.step = step
        """Delivery step the crash interrupted."""
        self.delivered = delivered
        """Items of that step delivered before the crash."""


@dataclass(frozen=True)
class CorruptObservation:
    """The payload of a corrupted delivery — garbage where an entity
    should be.

    Carries the identity of the frame it mangled so dead-letter
    inspection can say *what* was corrupted; the default quarantine
    validator rejects any item whose entity is one of these (and the
    intact original, retransmitted by the fault model in the same
    delivery step, flows through untouched).
    """

    source: str
    seq: int
    payload: bytes = b"\x00\xde\xad\xbe\xef"


def _count(value: object) -> bool:
    """Whether ``value`` is a non-negative int (a bool is not)."""
    return type(value) is int and value >= 0


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected transport faults.

    Args:
        crashes: Ordered ``(step, delivered_before_crash)`` entries.
            Each entry is consumed by one delivery attempt: when the
            stream reaches ``step``, the source yields that many of the
            step's items and raises :class:`SourceCrash`.  Several
            entries at the same step crash every retry in turn (a
            flapping uplink); an empty tuple never crashes.
        duplicates: ``step -> burst size`` — after delivering the step,
            re-deliver copies of the most recently delivered
            observations (same ``seq``, same payload, current arrival
            tick).
        corruptions: ``step -> count`` — deliver corrupted copies of the
            step's first ``count`` observations immediately *before*
            their intact originals, in the same arrival group.
        stalls: ``step -> extra ticks`` — from this step on, every
            arrival is delayed by that many additional ticks (applied
            once; cumulative across entries).
    """

    crashes: tuple[tuple[int, int], ...] = ()
    duplicates: Mapping[int, int] = field(default_factory=dict)
    corruptions: Mapping[int, int] = field(default_factory=dict)
    stalls: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for step, delivered in self.crashes:
            if not (_count(step) and _count(delivered)):
                raise ObserverError(
                    f"crash entry ({step!r}, {delivered!r}) must be two "
                    "non-negative ints"
                )
        for label, schedule in (
            ("duplicates", self.duplicates),
            ("corruptions", self.corruptions),
            ("stalls", self.stalls),
        ):
            for step, amount in schedule.items():
                if not _count(step):
                    raise ObserverError(
                        f"{label} step must be a non-negative int: {step!r}"
                    )
                if type(amount) is not int or amount < 1:
                    raise ObserverError(
                        f"{label}[{step}] must be a positive int: {amount!r}"
                    )

    @property
    def fault_count(self) -> int:
        """Total scheduled fault events (crashes + bursts + corruptions
        + stalls)."""
        return (
            len(self.crashes)
            + len(self.duplicates)
            + len(self.corruptions)
            + len(self.stalls)
        )

    @classmethod
    def seeded(
        cls,
        seed: int,
        steps: int,
        *,
        crashes: int = 1,
        duplicate_bursts: int = 1,
        corruptions: int = 1,
        stalls: int = 1,
        max_burst: int = 4,
        max_corrupt: int = 2,
        max_stall: int = 5,
        max_crash_offset: int = 3,
    ) -> "FaultPlan":
        """Draw a deterministic plan with guaranteed minimum coverage.

        Exactly ``crashes`` crash entries, ``duplicate_bursts`` bursts,
        ``corruptions`` corruption entries and ``stalls`` stall entries
        are placed at seeded-random steps of ``[0, steps)`` (same-kind
        entries collapse onto distinct steps where possible).  The same
        ``(seed, steps, ...)`` always yields the identical plan.
        """
        if steps <= 0:
            raise ObserverError(f"steps must be positive: {steps}")
        rng = random.Random(seed)

        def draw_steps(count: int) -> list[int]:
            population = list(range(steps))
            if count <= len(population):
                return sorted(rng.sample(population, count))
            return sorted(rng.randrange(steps) for _ in range(count))

        crash_entries = tuple(
            (step, rng.randint(0, max_crash_offset))
            for step in draw_steps(crashes)
        )
        duplicate_entries = {
            step: rng.randint(1, max_burst)
            for step in draw_steps(duplicate_bursts)
        }
        corruption_entries = {
            step: rng.randint(1, max_corrupt)
            for step in draw_steps(corruptions)
        }
        stall_entries = {
            step: rng.randint(1, max_stall) for step in draw_steps(stalls)
        }
        return cls(
            crashes=crash_entries,
            duplicates=duplicate_entries,
            corruptions=corruption_entries,
            stalls=stall_entries,
        )
