"""Watermark tracking: per-source progress, min-merged release frontier.

A source's *low-watermark* is the promise "no future arrival from me
will carry an event tick at or below W".  Under the bounded-lateness
model a source that has shown event tick ``t`` promises
``W = t - lateness``; a closed (exhausted) source promises everything.
The merged watermark over several sources is the **minimum** of the
open sources' promises — one slow source holds the whole frontier, the
standard discipline that keeps multi-input streaming exact (and the
same min-merge :class:`~repro.shard.engine.ShardedDetectionEngine`
applies across its shard engines' clocks).
"""

from __future__ import annotations

from typing import Iterable

from repro.core.errors import ObserverError

__all__ = ["WatermarkTracker"]


class WatermarkTracker:
    """Per-source max-event-tick tracking with a min-merged frontier.

    Args:
        lateness: Non-negative disorder bound (ticks).  An observation
            may trail the newest one seen from its source by at most
            this much and still be released in order.
    """

    def __init__(self, lateness: int):
        if type(lateness) is not int or lateness < 0:
            raise ObserverError(
                f"lateness bound cannot be negative or a non-int: {lateness!r}"
            )
        self.lateness = lateness
        self._max_seen: dict[str, int] = {}
        self._closed: set[str] = set()

    def register(self, source: str) -> None:
        """Declare a source before its first observation.

        A registered-but-silent source pins the merged watermark at
        ``None`` (no release), which is what makes late joiners safe.

        Raises:
            ObserverError: If the name was already closed.  A closed
                source has promised "everything" and stopped holding the
                frontier — re-registering it would *look* like silence
                holds the watermark while it never does, so reuse of an
                exhausted name is rejected loudly instead of silently
                no-op'ing.  Closed names are never re-opened; a late
                joiner must pick a fresh source name.
        """
        if source in self._closed:
            raise ObserverError(
                f"source {source!r} is already closed; a closed source "
                "cannot be re-registered — use a fresh source name"
            )
        self._max_seen.setdefault(source, None)  # type: ignore[arg-type]

    def is_open(self, source: str) -> bool:
        """Whether ``source`` has not been closed (unknown counts open)."""
        return source not in self._closed

    def ensure_open(self, sources: Iterable[str]) -> None:
        """Validate that none of ``sources`` is closed (raise otherwise).

        The pre-mutation check :meth:`StreamingDetectionRuntime.ingest`
        runs over a whole delivery step before touching any state, so a
        bad step is rejected atomically instead of mid-loop.
        """
        closed = sorted({name for name in sources if name in self._closed})
        if closed:
            raise ObserverError(
                f"sources {closed} already closed; the delivery step was "
                "rejected before any item was buffered"
            )

    def observe(self, source: str, event_tick: int) -> None:
        """Note one arrival from ``source`` (re-opens nothing)."""
        if source in self._closed:
            raise ObserverError(f"source {source!r} already closed")
        current = self._max_seen.get(source)
        if current is None or event_tick > current:
            self._max_seen[source] = event_tick

    def close(self, source: str) -> None:
        """Mark a source exhausted; it stops holding the frontier."""
        self._max_seen.setdefault(source, None)  # type: ignore[arg-type]
        self._closed.add(source)

    def close_all(self) -> None:
        """Mark every known source exhausted (end of stream)."""
        for source in self._max_seen:
            self._closed.add(source)

    @property
    def all_closed(self) -> bool:
        """Whether no open source remains (flush everything)."""
        return all(source in self._closed for source in self._max_seen)

    def watermark(self) -> int | None:
        """The merged release frontier.

        ``None`` means "cannot promise anything yet" — either no source
        is known, or some open source has not produced an observation.
        When every source is closed the caller should flush
        unconditionally (see
        :meth:`~repro.stream.reorder.ReorderBuffer.release_all`).
        """
        if not self._max_seen:
            return None
        lows: list[int] = []
        for source, seen in self._max_seen.items():
            if source in self._closed:
                continue
            if seen is None:
                return None
            lows.append(seen - self.lateness)
        if not lows:
            return None
        return min(lows)

    def snapshot(self) -> tuple[int, dict[str, int | None], frozenset[str]]:
        """Checkpoint view: ``(lateness, max_seen per source, closed set)``."""
        return self.lateness, dict(self._max_seen), frozenset(self._closed)

    def restore(
        self, snapshot: tuple[int, dict[str, int | None], frozenset[str]]
    ) -> None:
        """Reload what :meth:`snapshot` returned (replaces everything);
        a snapshot taken under another lateness bound is refused."""
        lateness, max_seen, closed = snapshot
        if lateness != self.lateness:
            raise ObserverError(
                f"checkpoint was taken under lateness {lateness}, this "
                f"tracker uses {self.lateness}: watermark semantics would "
                f"change mid-stream"
            )
        self._max_seen = dict(max_seen)
        self._closed = set(closed)
