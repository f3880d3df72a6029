"""Analytical Event Detection Latency model (the paper's future work).

Section 6 names "a formal temporal analysis of Event Detection Latency
(EDL) based on the proposed framework" as the next step; because the
event model keeps ``t_eo`` (estimated occurrence) and ``t_g``
(generation) separate at every layer (Eq. 4.7), EDL is well-defined
per layer and decomposes along the hierarchy of Figure 2:

* **sensor layer** — the mote cannot see an event before its next
  sampling instant: expected delay ``T_s / 2`` (worst case ``T_s``);
  a mote evaluates its conditions in the sampling tick;
* **cyber-physical layer** — adds the multi-hop WSN delay to the sink
  (per-hop expected MAC wait + retransmission-aware transmission time,
  from :meth:`~repro.network.link.LinkModel.expected_hop_delay`) and
  the sink's processing;
* **cyber layer** — adds the event-bus delivery and CCU processing.

:class:`EdlModel` computes expected and worst-case EDL per layer; the
E6 benchmark validates it against the simulator across network sizes
and sampling periods.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import AnalysisError
from repro.network.fabric import DutyCycleMac
from repro.network.link import LinkModel

__all__ = ["EdlModel", "EdlBreakdown"]


@dataclass(frozen=True)
class EdlBreakdown:
    """Per-stage latency contributions (ticks, expected values)."""

    sampling: float
    network: float
    sink_processing: float
    bus: float
    ccu_processing: float

    @property
    def sensor_edl(self) -> float:
        """Expected EDL of sensor event instances (at the mote)."""
        return self.sampling

    @property
    def cyber_physical_edl(self) -> float:
        """Expected EDL of cyber-physical instances (at the sink)."""
        return self.sensor_edl + self.network + self.sink_processing

    @property
    def cyber_edl(self) -> float:
        """Expected EDL of cyber instances (at the CCU)."""
        return self.cyber_physical_edl + self.bus + self.ccu_processing


class EdlModel:
    """Expected / worst-case EDL along the observer hierarchy.

    Args:
        sampling_period: Mote sampling period ``T_s`` (ticks).
        link: The WSN per-hop link model.
        mac: The WSN duty-cycle MAC.
        prr: Representative per-hop packet reception ratio.
        sink_processing: Sink condition-evaluation time (ticks).
        bus_latency: Event-bus delivery latency (ticks).
        ccu_processing: CCU decision latency (ticks).
    """

    def __init__(
        self,
        sampling_period: int,
        link: LinkModel,
        mac: DutyCycleMac | None = None,
        prr: float = 1.0,
        sink_processing: int = 0,
        bus_latency: int = 1,
        ccu_processing: int = 0,
    ):
        if sampling_period < 1:
            raise AnalysisError("sampling period must be >= 1")
        if not 0.0 < prr <= 1.0:
            raise AnalysisError(f"prr {prr} not in (0, 1]")
        self.sampling_period = sampling_period
        self.link = link
        self.mac = mac or DutyCycleMac(1)
        self.prr = prr
        self.sink_processing = sink_processing
        self.bus_latency = bus_latency
        self.ccu_processing = ccu_processing

    # -- expected values -------------------------------------------------

    def expected_hop_delay(self) -> float:
        """Expected one-hop delay: MAC wake-up wait + link service time."""
        return self.mac.expected_wait + self.link.expected_hop_delay(self.prr)

    def expected_network_delay(self, hops: int) -> float:
        """Expected mote-to-sink delay over ``hops`` hops."""
        if hops < 0:
            raise AnalysisError("hop count cannot be negative")
        return hops * self.expected_hop_delay()

    def breakdown(self, hops: int) -> EdlBreakdown:
        """Expected per-stage EDL contributions for a mote at ``hops``."""
        return EdlBreakdown(
            sampling=self.sampling_period / 2.0,
            network=self.expected_network_delay(hops),
            sink_processing=float(self.sink_processing),
            bus=float(self.bus_latency),
            ccu_processing=float(self.ccu_processing),
        )

    def expected_sensor_edl(self) -> float:
        """Expected EDL at the sensor-event layer."""
        return self.breakdown(0).sensor_edl

    def expected_cp_edl(self, hops: int) -> float:
        """Expected EDL at the cyber-physical layer for ``hops`` hops."""
        return self.breakdown(hops).cyber_physical_edl

    def expected_cyber_edl(self, hops: int) -> float:
        """Expected EDL at the cyber layer for ``hops`` hops."""
        return self.breakdown(hops).cyber_edl

    def expected_cp_edl_over_tree(self, depth_histogram: dict[int, int]) -> float:
        """Network-wide expected CP-layer EDL from a routing-depth census.

        Args:
            depth_histogram: Map hop-count -> number of motes (from
                :meth:`~repro.network.routing.RoutingTree.depth_histogram`),
                root entry (0 hops) ignored.
        """
        total = weight = 0.0
        for hops, count in depth_histogram.items():
            if hops == 0:
                continue
            total += self.expected_cp_edl(hops) * count
            weight += count
        if weight == 0:
            raise AnalysisError("depth histogram contains no non-root motes")
        return total / weight

    # -- worst case --------------------------------------------------------

    def worst_hop_delay(self) -> float:
        """Worst-case one-hop delay (all retries, maximal backoff/wait)."""
        per_attempt = self.link.transmission_ticks + self.link.backoff_ticks
        return (self.mac.period - 1) + self.link.max_retries * per_attempt

    def worst_cp_edl(self, hops: int) -> float:
        """Worst-case EDL at the cyber-physical layer."""
        return (
            self.sampling_period
            + hops * self.worst_hop_delay()
            + self.sink_processing
        )

    def worst_cyber_edl(self, hops: int) -> float:
        """Worst-case EDL at the cyber layer."""
        return self.worst_cp_edl(hops) + self.bus_latency + self.ccu_processing
