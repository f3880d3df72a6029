"""Dispatch nodes: command dissemination into the actor network.

"A dispatch node disseminates the action commands to multiple actor
nodes.  Both [sink and dispatch] nodes serve as a gateway to connect a
sensor and actor network to the rest of the CPS network" (Section 3).

The :class:`DispatchNode` receives actuator commands from CCUs over the
backbone and hands them to each directly connected target actor mote —
or to its default target group when the command names none.  The
simulated actor network has no wireless hop.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.errors import ComponentError
from repro.core.space_model import PointLocation
from repro.cps.actions import ActuatorCommand
from repro.cps.component import CPSComponent
from repro.network.packet import Packet, PacketKind
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder

__all__ = ["DispatchNode"]


class DispatchNode(CPSComponent):
    """Gateway from the CPS network into the actor network.

    Args:
        name: Dispatch node identifier.
        location: Deployment position.
        sim: Simulation kernel.
        default_targets: Actor motes addressed when a command has no
            explicit targets.
        trace: Optional trace recorder.
    """

    def __init__(
        self,
        name: str,
        location: PointLocation,
        sim: Simulator,
        default_targets: Sequence[str] = (),
        trace: TraceRecorder | None = None,
    ):
        super().__init__(name, location, sim, trace)
        self.default_targets = tuple(default_targets)
        self._direct: dict[str, object] = {}
        self.dispatched: list[ActuatorCommand] = []

    def connect_direct(self, target: str, receiver: object) -> None:
        """Register a directly connected actor mote (no wireless hop).

        ``receiver`` must expose ``receive_command(command)``.
        """
        if not hasattr(receiver, "receive_command"):
            raise ComponentError(
                f"receiver for {target!r} lacks receive_command()"
            )
        self._direct[target] = receiver

    def handle_backbone(self, packet: Packet) -> None:
        """Backbone receive handler (register with the WiredBackbone)."""
        if packet.kind is not PacketKind.COMMAND:
            return
        command = packet.payload
        if isinstance(command, ActuatorCommand):
            self.dispatch(command)

    def dispatch(self, command: ActuatorCommand) -> None:
        """Disseminate one command to its targets."""
        targets = command.targets or self.default_targets
        if not targets:
            self.record("dispatch.no_targets", kind=command.kind)
            return
        self.dispatched.append(command)
        for target in targets:
            if target in self._direct:
                receiver = self._direct[target]
                self.sim.schedule(
                    0, lambda r=receiver: r.receive_command(command)
                )
                self.record("dispatch.direct", target=target,
                            command_id=command.command_id)
            else:
                self.record("dispatch.unreachable", target=target,
                            command_id=command.command_id)
