"""Watermark tracking: per-source progress, min-merged release frontier.

A source's *low-watermark* is the promise "no future arrival from me
will carry an event tick at or below W".  Under the bounded-lateness
model a source that has shown event tick ``t`` promises
``W = t - lateness``.  The merged watermark over several sources is the
**minimum** of their promises — one slow source holds the whole
frontier, the standard discipline that keeps multi-input streaming
exact (and the same min-merge
:class:`~repro.shard.engine.ShardedDetectionEngine` applies across its
shard engines' clocks).  Sources close together, once, at the end of
the stream (:meth:`WatermarkTracker.end`): from then on every source has
promised everything and there is no merged watermark left.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.checkpoint import (
    CONFIG,
    TICK_OR_NONE,
    Restorable,
    by_name,
    check,
    declared,
    instance_of,
    is_count,
)
from repro.core.errors import ObserverError

__all__ = ["WatermarkTracker", "WatermarkSnapshot"]


@dataclass(frozen=True)
class WatermarkSnapshot:
    """Checkpoint of a :class:`WatermarkTracker`: the lateness bound it
    was taken under (the restoring tracker must use the same), each
    source's newest event tick (``None`` = registered, silent) and
    whether the stream has ended."""

    lateness: int = declared(CONFIG)
    max_seen: Mapping[str, int | None] = declared(by_name(TICK_OR_NONE))
    ended: bool = declared(instance_of(bool))


class WatermarkTracker(Restorable):
    """Per-source max-event-tick tracking with a min-merged frontier.

    Args:
        lateness: Non-negative disorder bound (ticks).  An observation
            may trail the newest one seen from its source by at most
            this much and still be released in order.
    """

    def __init__(self, lateness: int):
        if not is_count(lateness):
            raise ObserverError(
                f"lateness bound cannot be negative or a non-int: {lateness!r}"
            )
        self.lateness = lateness
        self._max_seen: dict[str, int | None] = {}
        self.ended = False
        """Whether the stream has ended (:meth:`end`)."""

    def ensure_live(self) -> None:
        """Refuse any change once the stream has ended."""
        if self.ended:
            raise ObserverError(
                "the stream has ended: finish() closed every source, so "
                "nothing more can be ingested or registered"
            )

    def register(self, source: str) -> None:
        """Declare a source before its first observation.

        A registered-but-silent source pins the merged watermark at
        ``None`` (no release), which is what makes late joiners safe.
        Refused once the stream has ended.
        """
        self.ensure_live()
        self._max_seen.setdefault(source, None)

    def observe(self, source: str, event_tick: int) -> None:
        """Note one arrival from ``source``."""
        current = self._max_seen.get(source)
        if current is None or event_tick > current:
            self._max_seen[source] = event_tick

    def end(self) -> None:
        """Close every source (end of stream): the frontier is gone."""
        self.ended = True

    def watermark(self) -> int | None:
        """The merged release frontier.

        ``None`` means "cannot promise anything" — no source is known,
        some source has not produced an observation yet, or the stream
        has ended (the caller flushes everything then, see
        :meth:`~repro.stream.reorder.ReorderBuffer.release_all`).
        """
        if self.ended or not self._max_seen:
            return None
        lows: list[int] = []
        for seen in self._max_seen.values():
            if seen is None:
                return None
            lows.append(seen - self.lateness)
        return min(lows)

    def snapshot(self) -> WatermarkSnapshot:
        """Checkpoint view (see :class:`WatermarkSnapshot`)."""
        return WatermarkSnapshot(
            self.lateness, dict(self._max_seen), self.ended
        )

    def ensure_restorable(self, snapshot: WatermarkSnapshot) -> None:
        """Refuse a snapshot taken under another lateness bound (see
        :func:`~repro.core.checkpoint.check`)."""
        check(snapshot, WatermarkSnapshot, lateness=self.lateness)

    def install(self, snapshot: WatermarkSnapshot) -> None:
        """Replace everything with an accepted snapshot."""
        self._max_seen = dict(snapshot.max_seen)
        self.ended = snapshot.ended
