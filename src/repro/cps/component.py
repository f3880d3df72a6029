"""Base classes for CPS hardware components and observers.

Section 3 defines the component taxonomy (sensor, actuator, motes,
sink/dispatch nodes, CCU, database server); Definition 4.3 singles out
*observers* — components that "collect data, evaluate these data based
on event conditions, and output the according event instance".

:class:`CPSComponent` carries the shared identity/position/trace
plumbing.  :class:`ObserverComponent` adds the observer machinery: a
detection engine loaded with event specifications, and the emit path.
Each match becomes one row of the observer's
:class:`~repro.detect.output.InstanceLog`, written by
:meth:`~repro.detect.output.InstanceLog.write` exactly as a replay
writes it (a sink's trilateration enters as the :attr:`locate` hook's
estimate); the ``instance.emit`` trace row is rendered from that row,
and the Eq. 4.7 instance read back from it goes to the concrete
component's distribution logic.  What an observer received is in the
trace; it keeps no list of its own.

Ingestion is batch-first: :meth:`ObserverComponent.ingest_batch` feeds
a whole per-tick entity batch to the engine in one
:meth:`~repro.detect.engine.DetectionEngine.submit_batch` call, and it
is the one intake: what a batch emitted is in :attr:`emitted` and the
trace.  Components fed by per-entity callbacks (packet handlers, bus
subscriptions) hand arrivals to :meth:`ObserverComponent.enqueue`:
entities buffer in an inbox and the first of them schedules a flush at
:data:`~repro.sim.kernel.PRIORITY_INGEST`.  That coalesces a tick's
*packets* (delivered at ``PRIORITY_NETWORK``, before the flush) into one
batch; bus deliveries run at ``PRIORITY_DEFAULT``, after it, so on the
bus path nearly every arrival is flushed alone (the counts are on
:meth:`~ObserverComponent.enqueue`).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.entity import Entity
from repro.core.errors import ComponentError
from repro.core.event import EventLayer
from repro.core.instance import EventInstance, ObserverId, ObserverKind
from repro.core.space_model import PointLocation
from repro.core.spec import EventSpecification
from repro.detect.engine import DetectionEngine, Match
from repro.detect.output import InstanceLog
from repro.sim.kernel import PRIORITY_INGEST, Simulator
from repro.sim.trace import TraceRecorder

__all__ = ["CPSComponent", "ObserverComponent"]


class CPSComponent:
    """Common identity, position and tracing for every component.

    Args:
        name: Unique component name within the system.
        location: Fixed deployment position.
        sim: The simulation kernel.
        trace: Optional shared trace recorder.
    """

    def __init__(
        self,
        name: str,
        location: PointLocation,
        sim: Simulator,
        trace: TraceRecorder | None = None,
    ):
        if not name:
            raise ComponentError("component name must be non-empty")
        self.name = name
        self.location = location
        self.sim = sim
        self.trace = trace

    def record(self, category: str, **payload: object) -> None:
        """Write a trace record attributed to this component."""
        if self.trace is not None:
            self.trace.append(self.sim.tick, category, self.name, payload)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class ObserverComponent(CPSComponent):
    """A component that evaluates event conditions and emits instances.

    Args:
        name: Component name.
        location: Deployment position.
        sim: Simulation kernel.
        kind: Observer kind for the emitted ``OB_id``.
        layer: Hierarchy layer of emitted instances.
        instance_cls: Concrete instance dataclass to emit.
        specs: Event specifications to install.
        engine: An empty :class:`~repro.detect.engine.DetectionEngine`
            to install ``specs`` into; defaults to a planned one.
        trace: Optional trace recorder.
    """

    def __init__(
        self,
        name: str,
        location: PointLocation,
        sim: Simulator,
        kind: ObserverKind,
        layer: EventLayer,
        instance_cls: type[EventInstance],
        specs: Sequence[EventSpecification] = (),
        engine: DetectionEngine | None = None,
        trace: TraceRecorder | None = None,
    ):
        super().__init__(name, location, sim, trace)
        self.observer_id = ObserverId(kind, name)
        self.layer = layer
        self.instance_cls = instance_cls
        self.engine = DetectionEngine() if engine is None else engine
        for spec in specs:
            self.engine.add_spec(spec)
        self._inbox: list[Entity] = []
        self._flush_scheduled = False
        self._stream_tap = None
        self.emitted = InstanceLog.of(self)

    def next_seq(self, event_id: str) -> int:
        """Next instance sequence number ``i`` for an event id."""
        return self.emitted.next_seq(event_id)

    def ingest_batch(self, entities: Sequence[Entity]) -> None:
        """Evaluate a batch of co-arriving entities in one engine pass.

        Window/index maintenance and dedup pruning are amortized across
        the batch; matches emit in engine order, each into a row of
        :attr:`emitted`.  Every arrival enters here: sampling rounds
        directly, packets and bus deliveries through :meth:`enqueue`.
        """
        if self._stream_tap is not None:
            self._stream_tap.record(self.sim.tick, entities)
        for match in self.engine.submit_batch(entities, self.sim.tick):
            self._emit_match(match)

    def attach_stream_tap(self, tap) -> None:
        """Record every engine submission into ``tap`` (one per observer).

        ``tap`` is any object with ``record(tick, entities)`` —
        canonically a :class:`~repro.stream.capture.StreamTap`, whose
        recording doubles as an
        :class:`~repro.stream.source.ObservationSource` so the
        observer's live feed can be replayed (jittered, resumed from a
        checkpoint, ...) through the streaming runtime.

        One tap per observer: replacing an attached tap would silently
        truncate its recording mid-stream, so a second attach raises.
        """
        if self._stream_tap is not None:
            raise ComponentError(
                f"observer {self.name!r} already has a stream tap; "
                "replacing it would truncate the first tap's recording"
            )
        self._stream_tap = tap

    def enqueue(self, entity: Entity) -> None:
        """Buffer an entity for ingestion later this tick.

        The first enqueue after a flush schedules the next one at
        :data:`~repro.sim.kernel.PRIORITY_INGEST`.  Packet deliveries
        run before that priority, so a tick's converge-cast burst lands
        in a single :meth:`ingest_batch` call.  Bus deliveries run after
        it (``PRIORITY_DEFAULT``): the flush the first one schedules
        pre-empts the tick's remaining deliveries, each of which then
        schedules its own.  One ``high_density`` medium run makes 45 178
        flushes for 46 235 enqueues — 57 058 ``submit_batch`` calls for
        58 115 entities, the CCU's 44 854 arriving one per batch.
        Running bus deliveries ahead of the flush would change the count
        and order of kernel events every golden trace pins (ROADMAP,
        "bus deliveries defeat batch ingestion").
        """
        self._inbox.append(entity)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.sim.schedule(0, self._flush_inbox, priority=PRIORITY_INGEST)

    def _flush_inbox(self) -> None:
        self._flush_scheduled = False
        batch, self._inbox = self._inbox, []
        if batch:
            self.ingest_batch(batch)

    locate: Callable[[Match], PointLocation | None] | None = None
    """Hook: ``None``, or ``match -> l_eo`` estimate (``None`` keeps the
    output policy's); a sink's trilateration."""

    def _emit_match(self, match: Match) -> None:
        self.emitted.write(match, self.locate)
        self._publish(self.emitted[-1])

    def distribute(self, instance: EventInstance) -> None:
        """Hook: where emitted instances go (network, bus, rules)."""

    def emit_direct(self, instance: EventInstance) -> None:
        """Log, trace and distribute an instance made without a match.

        For the one emitter outside the binding engine, the mote's
        interval tracker: the log appends the finished instance as a
        row, and the trace row and distribution follow as for a match.
        """
        self.emitted.append(instance)
        self._publish(instance)

    def _publish(self, instance: EventInstance) -> None:
        """Trace the log's last row and distribute its instance."""
        if self.trace is not None:
            self.trace.append(
                self.sim.tick, "instance.emit", self.name, self.emitted.payload(-1)
            )
        self.distribute(instance)
