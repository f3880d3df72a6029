"""Actuators: the cyber-to-physical interface (Section 3).

"An actuator ... is a device that is able to change attributes of a
physical object, e.g., move a chair, or physical phenomena."  An
:class:`Actuator` executes :class:`~repro.cps.actions.ActuatorCommand`
payloads by invoking the physical world's registered actuation handler
— the world, not the actuator, defines the physical semantics, which
keeps scenario physics in one place.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ComponentError
from repro.cps.actions import ActuatorCommand
from repro.physical.world import PhysicalWorld

__all__ = ["ExecutedCommand", "Actuator"]


@dataclass(frozen=True)
class ExecutedCommand:
    """Record of one executed command (for the executed-commands
    publication in Figure 1)."""

    command: ActuatorCommand
    executed_tick: int


class Actuator:
    """A device executing one kind of command against the world.

    Args:
        actuator_id: Identifier ``AR_id`` (unique on its actor mote).
        kind: The command kind this actuator implements.
    """

    def __init__(self, actuator_id: str, kind: str):
        self.actuator_id = actuator_id
        self.kind = kind
        self.executed: list[ExecutedCommand] = []

    def can_execute(self, command: ActuatorCommand) -> bool:
        """Whether this actuator handles the command's kind."""
        return command.kind == self.kind

    def execute(
        self, command: ActuatorCommand, world: PhysicalWorld, tick: int
    ) -> ExecutedCommand:
        """Apply the command's physical effect and record it.

        Raises:
            ComponentError: If the command kind does not match.
        """
        if not self.can_execute(command):
            raise ComponentError(
                f"actuator {self.actuator_id!r} ({self.kind!r}) cannot "
                f"execute {command.kind!r}"
            )
        world.apply_actuation(command.kind, command.payload, tick)
        record = ExecutedCommand(command, tick)
        self.executed.append(record)
        return record
