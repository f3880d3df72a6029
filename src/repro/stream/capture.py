"""Capturing live observer feeds as replayable observation streams.

A :class:`StreamTap` attaches to an
:class:`~repro.cps.component.ObserverComponent` (via
:meth:`~repro.cps.component.ObserverComponent.attach_stream_tap`) and
records every engine submission the observer performs — the exact
``(tick, entities)`` batches, in order.  The tap *is* an
:class:`~repro.stream.source.ObservationSource`: iterating it yields
the in-order stream, which :class:`~repro.stream.source.JitteredSource`
can then disorder and :class:`~repro.stream.runtime.StreamingDetectionRuntime`
replay.  This is how the conformance harness turns any registered
scenario into an out-of-order ingestion workload without re-simulating
physics or radio.

Entities are shared by reference (immutable), so a tap costs one list
append per batch.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.core.entity import Entity
from repro.stream.source import ReplaySource, StreamItem

__all__ = ["StreamTap"]


class StreamTap:
    """Recorder of one observer's engine-submission stream.

    Args:
        name: Source name — conventionally the observer's component
            name, so per-source watermarks line up with the deployment.
    """

    def __init__(self, name: str = "tap"):
        self.name = name
        self.batches: list[tuple[int, tuple[Entity, ...]]] = []

    def record(self, tick: int, entities: Sequence[Entity]) -> None:
        """Note one engine submission (called by the observer)."""
        self.batches.append((tick, tuple(entities)))

    @property
    def observation_count(self) -> int:
        """Total entities recorded."""
        return sum(len(entities) for _, entities in self.batches)

    def __len__(self) -> int:
        return len(self.batches)

    def __iter__(self) -> Iterator[StreamItem]:
        """The recorded feed as an in-order observation stream."""
        return iter(ReplaySource(self.batches, name=self.name))
