"""Actions and Event-Action rules (the "Event-Action" relation, Sec. 1).

"Any CPS task can be represented as an 'Event-Action' relation": the
detection of an event triggers predefined operations.  At the CCU,
:class:`ActionRule` maps a cyber event instance to zero or more
:class:`ActuatorCommand` objects, which flow through dispatch nodes to
actor motes and finally mutate the physical world.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.core.errors import ComponentError
from repro.core.instance import EventInstance

__all__ = ["ActuatorCommand", "ActionRule"]

_command_ids = itertools.count(1)


@dataclass(frozen=True)
class ActuatorCommand:
    """One command for the actuation side of the loop.

    Args:
        kind: Command kind; must match an actuator and a registered
            world actuation handler ("open_valve", "sound_alarm").
        payload: Command parameters.
        targets: Actor mote names to execute on (empty = dispatch
            node's default group).
        issued_tick: When the CCU issued it.
        cause: Key of the event instance that triggered it (provenance
            for the end-to-end latency analysis).
    """

    kind: str
    payload: Mapping[str, object]
    targets: tuple[str, ...]
    issued_tick: int
    cause: object = None
    command_id: int = field(default_factory=lambda: next(_command_ids))

    def __post_init__(self) -> None:
        object.__setattr__(self, "payload", dict(self.payload))
        object.__setattr__(self, "targets", tuple(self.targets))

    def __repr__(self) -> str:
        return f"Command#{self.command_id}({self.kind}->{list(self.targets)})"


CommandFactory = Callable[[EventInstance, int], Sequence[ActuatorCommand]]


class ActionRule:
    """Binds an event id to a command factory at a CCU.

    Args:
        event_id: Cyber event that triggers the rule.
        factory: Called with (instance, tick); returns the commands to
            issue.  A ``None`` return means "no action this time"
            (rules may be conditional on instance attributes).
        cooldown: Minimum ticks between two firings of this rule
            (guards against command storms from repeated detections).
    """

    def __init__(
        self,
        event_id: str,
        factory: CommandFactory,
        cooldown: int = 0,
    ):
        if not event_id:
            raise ComponentError("rule needs an event id")
        if cooldown < 0:
            raise ComponentError("cooldown cannot be negative")
        self.event_id = event_id
        self.factory = factory
        self.cooldown = cooldown
        self._last_fired: int | None = None

    def consider(
        self, instance: EventInstance, tick: int
    ) -> list[ActuatorCommand]:
        """Apply the rule to an instance; return commands (maybe none)."""
        if instance.event_id != self.event_id:
            return []
        if (
            self._last_fired is not None
            and tick - self._last_fired < self.cooldown
        ):
            return []
        commands = list(self.factory(instance, tick) or [])
        if commands:
            self._last_fired = tick
        return commands
