"""End-to-end latency model: occurrence to completed actuation.

The second future-work item of Section 6 is "an end-to-end latency
model for CPSs".  The actuation path extends the detection path of
:class:`~repro.analysis.edl.EdlModel` through Figure 1's right half:

    cyber event at CCU -> backbone to dispatch node -> actor-network
    hops to the actor mote -> mechanical actuation delay.

:class:`EndToEndModel` composes both halves and yields expected and
worst-case occurrence-to-actuation latency.  The E7 benchmark
(``benchmarks/bench_edl_analysis.py``) checks it against a forest fire
run: the first ``command.executed`` trace row must come at least half
the expected latency after ignition, and less than 200 ticks past the
worst case (plus three sampling periods).  The simulated system hands
commands from a dispatch node straight to its actor motes, so the
benchmark's expected total takes zero actor hops.
"""

from __future__ import annotations

from repro.analysis.edl import EdlModel
from repro.core.errors import AnalysisError
from repro.network.fabric import DutyCycleMac
from repro.network.link import LinkModel

__all__ = ["EndToEndModel"]


class EndToEndModel:
    """Occurrence-to-actuation latency composition.

    Args:
        edl: The detection-side model (occurrence -> cyber event).
        backbone_latency: CCU -> dispatch delivery ticks.
        actor_link: Actor-network per-hop link model.
        actor_mac: Actor-network MAC (default always-on).
        actor_prr: Representative actor-network per-hop PRR.
        actuation_ticks: Mechanical delay at the actuator.
    """

    def __init__(
        self,
        edl: EdlModel,
        backbone_latency: int = 1,
        actor_link: LinkModel | None = None,
        actor_mac: DutyCycleMac | None = None,
        actor_prr: float = 1.0,
        actuation_ticks: int = 0,
    ):
        if not 0.0 < actor_prr <= 1.0:
            raise AnalysisError(f"actor prr {actor_prr} not in (0, 1]")
        self.edl = edl
        self.backbone_latency = backbone_latency
        self.actor_link = actor_link or edl.link
        self.actor_mac = actor_mac or DutyCycleMac(1)
        self.actor_prr = actor_prr
        self.actuation_ticks = actuation_ticks

    def expected_command_delay(self, actor_hops: int) -> float:
        """Expected CCU-to-actuation delay over ``actor_hops`` hops."""
        if actor_hops < 0:
            raise AnalysisError("hop count cannot be negative")
        per_hop = self.actor_mac.expected_wait + self.actor_link.expected_hop_delay(
            self.actor_prr
        )
        return (
            self.backbone_latency
            + actor_hops * per_hop
            + self.actuation_ticks
        )

    def expected_total(self, sensor_hops: int, actor_hops: int) -> float:
        """Expected occurrence-to-actuation latency."""
        return self.edl.expected_cyber_edl(
            sensor_hops
        ) + self.expected_command_delay(actor_hops)

    def worst_total(self, sensor_hops: int, actor_hops: int) -> float:
        """Worst-case occurrence-to-actuation latency."""
        per_attempt = (
            self.actor_link.transmission_ticks + self.actor_link.backoff_ticks
        )
        worst_hop = (
            (self.actor_mac.period - 1)
            + self.actor_link.max_retries * per_attempt
            + self.actor_link.processing_ticks
        )
        return (
            self.edl.worst_cyber_edl(sensor_hops)
            + self.backbone_latency
            + actor_hops * worst_hop
            + self.actuation_ticks
        )

    def delivery_probability(self, sensor_hops: int, actor_hops: int) -> float:
        """Probability the full sense-decide-act chain survives loss."""
        sense = self.edl.path_delivery_probability(sensor_hops)
        act = self.actor_link.delivery_probability(self.actor_prr) ** actor_hops
        return sense * act
