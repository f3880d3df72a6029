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

from repro.core.errors import ObserverError
from repro.stream.source import is_count

__all__ = ["WatermarkTracker"]


class WatermarkTracker:
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

    def snapshot(self) -> tuple[int, dict[str, int | None], bool]:
        """Checkpoint view: ``(lateness, max_seen per source, ended)``."""
        return self.lateness, dict(self._max_seen), self.ended

    def restore(self, snapshot: tuple[int, dict[str, int | None], bool]) -> None:
        """Reload what :meth:`snapshot` returned (replaces everything).

        A snapshot taken under another lateness bound, or one whose
        ticks are not ints, is refused with
        :class:`~repro.core.errors.ObserverError` and changes nothing.
        """
        try:
            lateness, max_seen, ended = snapshot
            max_seen = dict(max_seen)
        except (TypeError, ValueError):
            raise ObserverError(
                f"not a watermark snapshot: {snapshot!r}"
            ) from None
        if lateness != self.lateness:
            raise ObserverError(
                f"checkpoint was taken under lateness {lateness}, this "
                f"tracker uses {self.lateness}: watermark semantics would "
                f"change mid-stream"
            )
        for source, tick in max_seen.items():
            if not isinstance(source, str) or not (
                tick is None or type(tick) is int
            ):
                raise ObserverError(
                    f"watermark snapshot maps {source!r} to {tick!r}: "
                    f"sources are names and ticks ints or None"
                )
        if type(ended) is not bool:
            raise ObserverError(f"watermark snapshot ended flag {ended!r}")
        self._max_seen = max_seen
        self.ended = ended
