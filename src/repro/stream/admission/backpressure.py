"""Cooperative backpressure: a source that slows down when asked.

When the watermark cannot keep up — buffered disorder approaches the
occupancy cap, or rate-limited arrivals pile up in the deferral queue —
admission is engaged
(:meth:`~repro.stream.admission.AdmissionController.engaged`).  A source
that exposes a ``throttle()`` method is called by
:meth:`~repro.stream.runtime.StreamingDetectionRuntime.run` once after
every engaged delivery step; a cooperating producer slows down instead
of forcing the admission layer to shed.

:class:`PacedSource` is the reference cooperating producer: it wraps
any :class:`~repro.stream.source.ObservationSource` and responds to
``throttle`` by pushing every not-yet-delivered item further into the
future (a cumulative arrival-tick offset, so arrival order is
preserved).  Spacing deliveries gives the token buckets time to refill
and the watermark time to drain the reorder buffer — the closed loop
the admission benchmarks measure as "paced vs unpaced" shedding.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator

from repro.core.checkpoint import is_count
from repro.core.errors import ObserverError
from repro.stream.source import ObservationSource, StreamItem

__all__ = ["PacedSource"]


class PacedSource:
    """A source wrapper whose pull loop honors backpressure.

    Args:
        base: The wrapped source (consumed eagerly, like
            :class:`~repro.stream.source.JitteredSource`, whose name
            it keeps).
        slowdown: Arrival-tick delay added per ``throttle`` call.

    Each :meth:`throttle` grows a cumulative offset applied to every
    item not yet yielded; already-delivered items are untouched.  The
    offset only ever grows, so the arrival order the runtime validates
    is preserved, and a run with zero throttles is byte-identical to
    the base source.
    """

    def __init__(
        self,
        base: ObservationSource,
        slowdown: int = 1,
    ):
        if not is_count(slowdown) or slowdown < 1:
            raise ObserverError(
                f"slowdown must be an int >= 1 tick: {slowdown!r}"
            )
        self.name = base.name
        self.slowdown = slowdown
        self.throttle_count = 0
        self._offset = 0
        self._items = list(base)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[StreamItem]:
        for item in self._items:
            if self._offset:
                item = replace(
                    item, arrival_tick=item.arrival_tick + self._offset
                )
            yield item

    def throttle(self) -> None:
        """Slow down once: delay everything still queued."""
        self.throttle_count += 1
        self._offset += self.slowdown
