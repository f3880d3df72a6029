"""Database servers: distributed event-instance logging (Section 3).

"The database server is a distributed data logging service for the
event instances.  The event instances that circulate inside the CPS
network are automatically transferred to the database server after a
certain time for later retrieval."

:class:`DatabaseServer` subscribes to the event bus (or receives
instances directly), stores them indexed by event id and layer, and
answers retrieval queries over the model's native dimensions: event
kind, time range of the estimated occurrence, spatial region, layer,
observer and minimum confidence.  A configurable ``transfer_delay``
models the paper's "after a certain time": instances become queryable
only once that delay has elapsed.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.core.errors import DatabaseError
from repro.core.event import EventLayer
from repro.core.instance import EventInstance, ObserverId
from repro.core.space_model import Field, PointLocation
from repro.core.time_model import TimeInterval, TimePoint
from repro.sim.kernel import Simulator

__all__ = ["DatabaseServer"]


class DatabaseServer:
    """Queryable event-instance log.

    Rows are kept sorted by the tick they become visible, in two columns
    (ticks, instances) so a row adds no object the collector tracks.  The
    clock is monotone, so with a fixed ``transfer_delay`` that is arrival
    order and :meth:`store` appends; it searches for the place only when a
    row would land below the last one.

    Args:
        name: Server identifier.
        sim: Simulation kernel (for ingest timestamps and the transfer
            delay).
        transfer_delay: Ticks between an instance being received and it
            becoming visible to queries.
    """

    def __init__(self, name: str, sim: Simulator, transfer_delay: int = 0):
        if type(transfer_delay) is not int or transfer_delay < 0:
            raise DatabaseError(
                f"transfer_delay must be an int >= 0, got {transfer_delay!r}"
            )
        self.name = name
        self.sim = sim
        self.transfer_delay = transfer_delay
        self._ticks: list[int] = []
        self._instances: list[EventInstance] = []
        self._keys: set = set()

    # -- ingest --------------------------------------------------------

    def store(self, instance: EventInstance) -> bool:
        """Log one instance (idempotent by instance key).

        Returns:
            ``True`` if stored, ``False`` when the key was a duplicate.
        """
        if instance.key in self._keys:
            return False
        self._keys.add(instance.key)
        ticks, visible = self._ticks, self.sim.tick + self.transfer_delay
        if ticks and visible < ticks[-1]:
            # Only after ``transfer_delay`` was lowered mid-run.
            at = bisect_right(ticks, visible)
            ticks.insert(at, visible)
            self._instances.insert(at, instance)
        else:
            ticks.append(visible)
            self._instances.append(instance)
        return True

    def __len__(self) -> int:
        return len(self._ticks)

    # -- queries -------------------------------------------------------

    def _visible(self) -> list[EventInstance]:
        return self._instances[: bisect_right(self._ticks, self.sim.tick)]

    def query(
        self,
        event_id: str | None = None,
        layer: EventLayer | None = None,
        time_range: TimeInterval | None = None,
        region: Field | None = None,
        observer: ObserverId | None = None,
        min_confidence: float = 0.0,
    ) -> list[EventInstance]:
        """Retrieve visible instances matching every given filter.

        Args:
            event_id: Exact event identifier.
            layer: Hierarchy layer.
            time_range: The instance's estimated occurrence must fall
                within (points: containment; intervals: overlap).
            region: The estimated occurrence location must fall inside
                (points) or intersect (fields).
            observer: Exact emitting observer.
            min_confidence: Least acceptable ``rho``.
        """
        results: list[EventInstance] = []
        for instance in self._visible():
            if event_id is not None and instance.event_id != event_id:
                continue
            if layer is not None and instance.layer is not layer:
                continue
            if observer is not None and instance.observer != observer:
                continue
            if instance.confidence < min_confidence:
                continue
            if time_range is not None and not self._time_matches(
                instance, time_range
            ):
                continue
            if region is not None and not self._region_matches(instance, region):
                continue
            results.append(instance)
        return results

    @staticmethod
    def _time_matches(instance: EventInstance, window: TimeInterval) -> bool:
        when = instance.estimated_time
        if isinstance(when, TimePoint):
            return window.contains_point(when)
        if when.end is None:
            # Open interval: overlaps if it started before the window end.
            return window.end is None or when.start <= window.end
        from repro.core.time_model import intersect

        return intersect(when, window) is not None

    @staticmethod
    def _region_matches(instance: EventInstance, region: Field) -> bool:
        location = instance.estimated_location
        if isinstance(location, PointLocation):
            return region.contains_point(location)
        return region.intersects(location)
