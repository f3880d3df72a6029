"""Database servers: distributed event-instance logging (Section 3).

"The database server is a distributed data logging service for the
event instances.  The event instances that circulate inside the CPS
network are automatically transferred to the database server after a
certain time for later retrieval."

:class:`DatabaseServer` subscribes to the event bus (or receives
instances directly), stores them in the order they become visible,
and answers retrieval queries by event kind.  A configurable
``transfer_delay`` models the paper's "after a certain time": instances
become queryable only once that delay has elapsed.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.core.errors import DatabaseError
from repro.core.instance import EventInstance
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

    def query(self, event_id: str | None = None) -> list[EventInstance]:
        """Retrieve visible instances, in visible order.

        Args:
            event_id: Exact event identifier (``None``: every instance).
        """
        visible = self._visible()
        if event_id is None:
            return visible
        return [i for i in visible if i.event_id == event_id]
