"""The CPS network's publish/subscribe layer (Figure 1).

Figure 1 shows sinks publishing cyber-physical event instances, CCUs
publishing cyber events and actuator commands, and every interested
party — CCUs, database servers, humans — *subscribing* to the event
kinds they care about ("Subscribe Interested Cyber-Physical Events and
Cyber Events").

:class:`EventBus` implements topic-based pub/sub with the filters the
event model makes natural: event kind, layer, spatial region of the
estimated occurrence, and minimum confidence.  Deliveries are scheduled
on the simulator one tick after the publish (the end-to-end latency
analysis's ``bus_latency`` term), so subscription delivery takes part
in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.event import EventLayer
from repro.core.instance import EventInstance
from repro.core.space_model import Field, PointLocation
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder

__all__ = ["Subscription", "EventBus"]

Callback = Callable[[EventInstance], None]


@dataclass
class Subscription:
    """One standing interest registration on the bus."""

    callback: Callback
    event_ids: frozenset[str] | None
    layers: frozenset[EventLayer] | None
    region: Field | None
    min_confidence: float

    def matches(self, instance: EventInstance) -> bool:
        """Whether this subscription wants the instance."""
        if self.event_ids is not None and instance.event_id not in self.event_ids:
            return False
        if self.layers is not None and instance.layer not in self.layers:
            return False
        if instance.confidence < self.min_confidence:
            return False
        if self.region is not None:
            location = instance.estimated_location
            if isinstance(location, PointLocation):
                if not self.region.contains_point(location):
                    return False
            elif not self.region.intersects(location):
                return False
        return True


class EventBus:
    """Topic/region/confidence-filtered pub/sub over the CPS network.

    A delivery arrives one tick after its publish.

    Args:
        sim: Simulation kernel (deliveries are scheduled on it).
        trace: Optional trace recorder.
    """

    def __init__(self, sim: Simulator, trace: TraceRecorder | None = None):
        self.sim = sim
        self.trace = trace
        self._subscriptions: list[Subscription] = []
        self.published_count = 0
        self.delivered_count = 0

    def subscribe(
        self,
        callback: Callback,
        event_ids: Iterable[str] | None = None,
        layers: Iterable[EventLayer] | None = None,
        region: Field | None = None,
        min_confidence: float = 0.0,
    ) -> Subscription:
        """Register interest; returns the live subscription object."""
        subscription = Subscription(
            callback=callback,
            event_ids=frozenset(event_ids) if event_ids is not None else None,
            layers=frozenset(layers) if layers is not None else None,
            region=region,
            min_confidence=min_confidence,
        )
        self._subscriptions.append(subscription)
        return subscription

    def publish(self, instance: EventInstance) -> int:
        """Fan the instance out to every matching subscription.

        Returns:
            Number of deliveries scheduled.
        """
        self.published_count += 1
        matched = [s for s in self._subscriptions if s.matches(instance)]
        if self.trace is not None:
            self.trace.append(
                self.sim.tick,
                "bus.publish",
                repr(instance.observer),
                {"event_id": instance.event_id, "matched": len(matched)},
            )
        for subscription in matched:
            def deliver(sub: Subscription = subscription) -> None:
                self.delivered_count += 1
                sub.callback(instance)

            self.sim.schedule(1, deliver)
        return len(matched)

    @property
    def subscription_count(self) -> int:
        """Number of live subscriptions."""
        return len(self._subscriptions)
