"""CPS architecture components (Section 3, Figure 1)."""

from repro.cps.actions import ActionRule, ActuatorCommand
from repro.cps.actuator import Actuator
from repro.cps.bus import EventBus, Subscription
from repro.cps.ccu import ControlUnit
from repro.cps.component import CPSComponent, ObserverComponent
from repro.cps.database import DatabaseServer
from repro.cps.dispatch import DispatchNode
from repro.cps.mote import ActorMote, IntervalEventConfig, SensorMote
from repro.cps.sensor import RangeSensor, Sensor
from repro.cps.sink import SinkNode
from repro.cps.system import CPSSystem

__all__ = [
    "CPSComponent",
    "ObserverComponent",
    "Sensor",
    "RangeSensor",
    "Actuator",
    "SensorMote",
    "ActorMote",
    "IntervalEventConfig",
    "SinkNode",
    "DispatchNode",
    "ControlUnit",
    "DatabaseServer",
    "EventBus",
    "Subscription",
    "ActionRule",
    "ActuatorCommand",
    "CPSSystem",
]
