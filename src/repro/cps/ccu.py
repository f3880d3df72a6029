"""CPS control units: the highest observer level (Sections 3 and 5).

"A CCU is an event-driven control unit connected to the CPS network.
It receives cyber-physical events from the sink nodes and cyber-events
from other CCUs and processes them according to certain rules and
generates cyber-events.  Moreover, at this level, actions are
associated with certain cyber-events."

The :class:`ControlUnit`:

* ingests cyber-physical instances (from sinks, over the event bus or
  backbone) and cyber instances (from peer CCUs) into its detection
  engine, emitting :class:`~repro.core.instance.CyberEventInstance`
  tuples (Eq. 5.5);
* applies its :class:`~repro.cps.actions.ActionRule` set to every
  emitted cyber event — Figure 1's "Real-Time Context Aware Logic" —
  and forwards the resulting actuator commands to a dispatch callback;
* republishes its cyber events so peer CCUs and the database server can
  subscribe to them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence

from repro.core.errors import ComponentError
from repro.core.event import EventLayer
from repro.core.instance import CyberEventInstance, EventInstance, ObserverKind
from repro.core.space_model import PointLocation
from repro.core.spec import EventSpecification
from repro.cps.actions import ActionRule, ActuatorCommand
from repro.cps.component import ObserverComponent
from repro.detect.engine import DetectionEngine
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder

__all__ = ["ControlUnit"]

PublishCallback = Callable[[EventInstance], None]
DispatchCallback = Callable[[ActuatorCommand], None]

# An arrival's trace row names its layer.  ``EventLayer.name`` runs
# ``enum``'s Python-level descriptor on every read; a layer hashes as
# its int.
_LAYER_NAMES = {layer: layer.name for layer in EventLayer}


class ControlUnit(ObserverComponent):
    """Highest-level observer plus the Event-Action decision point.

    Args:
        name: CCU identifier.
        location: Deployment position (CCUs are cyber entities but the
            model still records where instances are generated, Eq. 4.7).
        sim: Simulation kernel.
        specs: Cyber event specifications.
        rules: Event-Action rules evaluated on emitted cyber events.
        publish: Downstream instance delivery (event bus).
        dispatch: Command delivery toward dispatch nodes.
        processing_ticks: Decision latency between a match and the
            instance/command leaving the CCU.
        engine: Empty engine to install ``specs`` into (see
            :class:`~repro.cps.component.ObserverComponent`).
        trace: Optional trace recorder.
    """

    def __init__(
        self,
        name: str,
        location: PointLocation,
        sim: Simulator,
        specs: Sequence[EventSpecification] = (),
        rules: Sequence[ActionRule] = (),
        publish: PublishCallback | None = None,
        dispatch: DispatchCallback | None = None,
        processing_ticks: int = 0,
        engine: DetectionEngine | None = None,
        trace: TraceRecorder | None = None,
    ):
        super().__init__(
            name,
            location,
            sim,
            kind=ObserverKind.CCU,
            layer=EventLayer.CYBER,
            instance_cls=CyberEventInstance,
            specs=specs,
            engine=engine,
            trace=trace,
        )
        if type(processing_ticks) is not int or processing_ticks < 0:
            raise ComponentError(
                f"processing_ticks must be an int >= 0, got {processing_ticks!r}"
            )
        self.rules = list(rules)
        self.publish = publish
        self.dispatch = dispatch
        self.processing_ticks = processing_ticks
        self._next_command_id = 1

    def receive_instance(self, instance: EventInstance) -> None:
        """Accept a CP instance from a sink or a cyber instance from a
        peer CCU (never our own — avoids self-feedback loops).

        Arrivals go through the observer inbox
        (:meth:`~repro.cps.component.ObserverComponent.enqueue`) and are
        ingested at :data:`~repro.sim.kernel.PRIORITY_INGEST` later the
        same tick — but the bus delivers at ``PRIORITY_DEFAULT``, so the
        flush of one delivery runs before the next delivery arrives and
        a CCU on the bus ingests its instances one per batch (44 854
        batches for 44 854 instances in a ``high_density`` medium run).
        """
        if instance.observer == self.observer_id:
            return
        self.record(
            "ccu.receive",
            event_id=instance.event_id,
            from_observer=repr(instance.observer),
            layer=_LAYER_NAMES[instance.layer],
        )
        self.enqueue(instance)

    def distribute(self, instance: EventInstance) -> None:
        """Publish the cyber event and run the Event-Action rules."""
        def deliver() -> None:
            if self.publish is not None:
                self.publish(instance)
            self._apply_rules(instance)

        if self.processing_ticks:
            self.sim.schedule(self.processing_ticks, deliver)
        else:
            deliver()

    def _apply_rules(self, instance: EventInstance) -> None:
        for rule in self.rules:
            for command in rule.consider(instance, self.sim.tick):
                # Rule factories leave the dataclass default in place — a
                # process-global counter whose value depends on every
                # command any earlier system in the process issued.
                # Renumber with a per-CCU sequence so same-seed runs
                # trace byte-identically (the golden-trace contract).
                command = replace(command, command_id=self._next_command_id)
                self._next_command_id += 1
                self.record(
                    "ccu.command",
                    kind=command.kind,
                    command_id=command.command_id,
                    cause_event=instance.event_id,
                )
                if self.dispatch is not None:
                    self.dispatch(command)
