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
benchmark's expected total takes zero actor hops; an actor-network hop
is modelled as the detection side's link over an always-on, loss-free
radio.
"""

from __future__ import annotations

from repro.analysis.edl import EdlModel
from repro.core.errors import AnalysisError

__all__ = ["EndToEndModel"]


class EndToEndModel:
    """Occurrence-to-actuation latency composition.

    Args:
        edl: The detection-side model (occurrence -> cyber event).
        backbone_latency: CCU -> dispatch delivery ticks.
        actuation_ticks: Mechanical delay at the actuator.
    """

    def __init__(
        self,
        edl: EdlModel,
        backbone_latency: int = 1,
        actuation_ticks: int = 0,
    ):
        self.edl = edl
        self.backbone_latency = backbone_latency
        self.actuation_ticks = actuation_ticks

    def expected_command_delay(self, actor_hops: int) -> float:
        """Expected CCU-to-actuation delay over ``actor_hops`` hops."""
        if actor_hops < 0:
            raise AnalysisError("hop count cannot be negative")
        return (
            self.backbone_latency
            + actor_hops * self.edl.link.expected_hop_delay(1.0)
            + self.actuation_ticks
        )

    def expected_total(self, sensor_hops: int, actor_hops: int) -> float:
        """Expected occurrence-to-actuation latency."""
        return self.edl.expected_cyber_edl(
            sensor_hops
        ) + self.expected_command_delay(actor_hops)

    def worst_total(self, sensor_hops: int, actor_hops: int) -> float:
        """Worst-case occurrence-to-actuation latency."""
        link = self.edl.link
        worst_hop = link.max_retries * (
            link.transmission_ticks + link.backoff_ticks
        )
        return (
            self.edl.worst_cyber_edl(sensor_hops)
            + self.backbone_latency
            + actor_hops * worst_hop
            + self.actuation_ticks
        )
