"""Actuators: the cyber-to-physical interface (Section 3).

"An actuator ... is a device that is able to change attributes of a
physical object, e.g., move a chair, or physical phenomena."  An
:class:`Actuator` executes :class:`~repro.cps.actions.ActuatorCommand`
payloads by invoking the physical world's registered actuation handler
— the world, not the actuator, defines the physical semantics, which
keeps scenario physics in one place.
"""

from __future__ import annotations

from repro.core.errors import ComponentError
from repro.cps.actions import ActuatorCommand
from repro.physical.world import PhysicalWorld

__all__ = ["Actuator"]


class Actuator:
    """A device executing one kind of command against the world.

    Args:
        actuator_id: Identifier ``AR_id`` (unique on its actor mote).
        kind: The command kind this actuator implements.
    """

    def __init__(self, actuator_id: str, kind: str):
        self.actuator_id = actuator_id
        self.kind = kind

    def can_execute(self, command: ActuatorCommand) -> bool:
        """Whether this actuator handles the command's kind."""
        return command.kind == self.kind

    def execute(
        self, command: ActuatorCommand, world: PhysicalWorld, tick: int
    ) -> None:
        """Apply the command's physical effect.  (The actor mote traces
        each execution as a ``command.executed`` row: Figure 1's
        executed-commands publication.)

        Raises:
            ComponentError: If the command kind does not match.
        """
        if not self.can_execute(command):
            raise ComponentError(
                f"actuator {self.actuator_id!r} ({self.kind!r}) cannot "
                f"execute {command.kind!r}"
            )
        world.apply_actuation(command.kind, command.payload, tick)
