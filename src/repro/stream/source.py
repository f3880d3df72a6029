"""Observation sources: event-time streams in arrival order.

A :class:`StreamItem` distinguishes the paper's two clocks: the
*event tick* (when the observation occurred / when the in-order system
would have submitted it — ``t_o`` of Eq. 5.2) and the *arrival tick*
(when the stream delivers it to the consumer).  Sources yield items in
non-decreasing **arrival** order; nothing constrains the event order,
which is exactly the disorder the reorder buffer and watermark tracker
absorb.

``seq`` is the item's position in the original in-order stream — the
total-order tie-break that lets the reorder buffer restore not just
event-tick order but the *exact* original submission order (two
observations submitted at the same tick must replay in their original
relative order, or binding enumeration diverges).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Protocol, Sequence, runtime_checkable

from repro.core.checkpoint import instance_of, is_count, tuple_of
from repro.core.entity import Entity
from repro.core.errors import ObserverError

__all__ = [
    "StreamItem",
    "ObservationSource",
    "ReplaySource",
    "JitteredSource",
]


@dataclass(frozen=True)
class StreamItem:
    """One stamped observation travelling through a stream.

    Args:
        entity: The observation (any engine-submittable entity).
        event_tick: Tick the in-order system submitted it at.
        seq: Position in the original in-order stream (total order,
            non-negative).
        arrival_tick: Tick the stream delivers it (>= ``event_tick``
            for causal transports).
        source: Name of the producing source (per-source watermarks).

    Raises:
        ObserverError: If a tick or ``seq`` is not an ``int`` (a NaN
            slips past every ordering check), ``seq`` is negative, or the
            item arrives before it occurred.
    """

    entity: Entity
    event_tick: int
    seq: int
    arrival_tick: int
    source: str = "replay"

    def __post_init__(self) -> None:
        if not (
            type(self.event_tick) is type(self.seq) is type(self.arrival_tick)
            is int
            and self.seq >= 0
        ):
            raise ObserverError(
                f"ticks must be ints and seq a non-negative int, got "
                f"{self.event_tick!r}, {self.seq!r}, {self.arrival_tick!r}"
            )
        if self.arrival_tick < self.event_tick:
            raise ObserverError(
                f"observation {self.seq} arrives at tick {self.arrival_tick} "
                f"before it occurred at tick {self.event_tick}"
            )

    @property
    def order_key(self) -> tuple[int, int]:
        """Event-time total order: ``(event_tick, seq)``."""
        return (self.event_tick, self.seq)


STREAM_ITEMS = tuple_of(instance_of(StreamItem))


@runtime_checkable
class ObservationSource(Protocol):
    """A named stream of :class:`StreamItem` in arrival order."""

    name: str

    def __iter__(self) -> Iterator[StreamItem]: ...


class ReplaySource:
    """In-order replay of recorded ``(tick, entities)`` batches.

    The canonical implementation trace capture produces
    (:class:`~repro.stream.capture.StreamTap` builds on it): every
    entity arrives exactly when it occurred, so the stream is already in
    event-time order and the reorder buffer passes it straight through.

    Args:
        batches: ``(tick, entities)`` pairs with non-decreasing ticks.
        name: Source name (watermark key).
    """

    def __init__(
        self,
        batches: Iterable[tuple[int, Sequence[Entity]]],
        name: str = "replay",
    ):
        self.name = name
        self._items: list[StreamItem] = []
        seq = 0
        previous: int | None = None
        for tick, entities in batches:
            if previous is not None and tick < previous:
                raise ObserverError(
                    f"replay batches regress from tick {previous} to {tick}"
                )
            previous = tick
            for entity in entities:
                self._items.append(
                    StreamItem(
                        entity=entity,
                        event_tick=tick,
                        seq=seq,
                        arrival_tick=tick,
                        source=name,
                    )
                )
                seq += 1

    def __iter__(self) -> Iterator[StreamItem]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)


class JitteredSource:
    """Seeded bounded-delay shuffle of another source.

    Every item is delayed by an independent uniform draw from
    ``[0, max_delay]`` ticks and the stream is re-sorted by arrival —
    the textbook bounded-disorder model.  With ``max_delay`` at or below
    the consumer's lateness bound, the reorder buffer provably restores
    the original order with zero late items; beyond it, lates appear
    and are counted.

    Args:
        base: Source to jitter (consumed eagerly).
        max_delay: Inclusive upper bound of the per-item delay.
        seed: Seed of the dedicated jitter stream.

    The jittered source keeps the base source's name.
    """

    def __init__(
        self,
        base: ObservationSource,
        max_delay: int,
        seed: int = 0,
    ):
        if not is_count(max_delay):
            raise ObserverError(
                f"max_delay must be a non-negative int: {max_delay!r}"
            )
        self.name = base.name
        rng = random.Random(seed)
        jittered = [
            replace(
                item,
                arrival_tick=item.event_tick + rng.randint(0, max_delay),
                source=self.name,
            )
            for item in base
        ]
        # Stable arrival order: ties on the arrival tick keep the
        # original sequence (a real transport has *some* deterministic
        # per-tick delivery order; seq is as good as any and keeps runs
        # reproducible).
        jittered.sort(key=lambda item: (item.arrival_tick, item.seq))
        self._items = jittered

    def __iter__(self) -> Iterator[StreamItem]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def is_shuffled(self) -> bool:
        """Whether the jitter actually produced event-time disorder."""
        keys = [item.order_key for item in self._items]
        return keys != sorted(keys)
