"""The physical world: phenomena, objects and their joint evolution.

Figure 1's left edge is "Some Aspects of the Physical World / Changing
Physical World".  :class:`PhysicalWorld` is that box: it owns the
scalar fields (one per sensed quantity) and the physical objects, and
advances the fields together one tick at a time under the simulation
kernel (a fire automaton steps with the field that renders it).

Sensors read the world through :meth:`sample`; actuators write it
through :meth:`apply_actuation`, closing the cyber-physical loop.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.core.errors import ReproError
from repro.core.event import PhysicalEvent
from repro.core.space_model import PointLocation
from repro.physical.fields import ScalarField
from repro.physical.objects import PhysicalObject

__all__ = ["PhysicalWorld"]


class PhysicalWorld:
    """Container and stepper for every physical model in a scenario."""

    def __init__(self):
        self._fields: dict[str, ScalarField] = {}
        self._objects: dict[str, PhysicalObject] = {}
        self._actuation_handlers: dict[str, Callable[[Mapping[str, object], int], None]] = {}
        self._ground_truth: list[PhysicalEvent] = []
        self._tick = 0

    # -- construction --------------------------------------------------

    def add_field(self, quantity: str, field: ScalarField) -> None:
        """Register the field backing a sensed quantity ("temperature")."""
        if quantity in self._fields:
            raise ReproError(f"field for {quantity!r} already registered")
        self._fields[quantity] = field

    def add_object(self, obj: PhysicalObject) -> None:
        """Track a physical object."""
        if obj.name in self._objects:
            raise ReproError(f"object {obj.name!r} already registered")
        self._objects[obj.name] = obj

    def on_actuation(
        self,
        command_kind: str,
        handler: Callable[[Mapping[str, object], int], None],
    ) -> None:
        """Register the world-side effect of an actuator command kind.

        The handler receives the command payload and the current tick;
        it mutates world state (add a plume source, move an object...).
        """
        self._actuation_handlers[command_kind] = handler

    # -- queries ---------------------------------------------------------

    @property
    def tick(self) -> int:
        """Tick the world dynamics have been advanced to."""
        return self._tick

    def field(self, quantity: str) -> ScalarField:
        """The field backing a quantity."""
        try:
            return self._fields[quantity]
        except KeyError:
            raise ReproError(
                f"no field registered for quantity {quantity!r}; "
                f"known: {sorted(self._fields)}"
            ) from None

    def sample(self, quantity: str, location: PointLocation, tick: int) -> float:
        """True (noise-free) value of a quantity at a location and tick."""
        return self.field(quantity).value_at(location, tick)

    def object(self, name: str) -> PhysicalObject:
        """A tracked physical object by name."""
        try:
            return self._objects[name]
        except KeyError:
            raise ReproError(
                f"no object named {name!r}; known: {sorted(self._objects)}"
            ) from None

    @property
    def objects(self) -> tuple[PhysicalObject, ...]:
        """All tracked objects."""
        return tuple(self._objects.values())

    # -- dynamics --------------------------------------------------------

    def step(self, tick: int) -> None:
        """Advance every field to ``tick``."""
        self._tick = tick
        for field in self._fields.values():
            field.step(tick)

    def apply_actuation(
        self, command_kind: str, payload: Mapping[str, object], tick: int
    ) -> None:
        """Execute an actuator command's physical effect.

        Raises:
            ReproError: If no handler is registered for the kind —
                actuation without physical semantics is a scenario bug.
        """
        handler = self._actuation_handlers.get(command_kind)
        if handler is None:
            raise ReproError(
                f"no actuation handler for command kind {command_kind!r}"
            )
        handler(payload, tick)

    # -- ground truth ------------------------------------------------------

    def record_ground_truth(self, event: PhysicalEvent) -> None:
        """Log a physical event that truly occurred (for scoring)."""
        self._ground_truth.append(event)

    @property
    def ground_truth(self) -> tuple[PhysicalEvent, ...]:
        """Every recorded ground-truth physical event."""
        return tuple(self._ground_truth)
