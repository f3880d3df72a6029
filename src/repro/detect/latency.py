"""Event Detection Latency (EDL) measurement.

The paper's stated future work is "a formal temporal analysis of Event
Detection Latency (EDL)".  This module is a measurement side for the
analytical model in :mod:`repro.analysis.edl`, but nothing outside its
own tests calls it: the E6 benchmark
(``benchmarks/bench_edl_analysis.py``) validates the model against
latencies it reads itself, from the motes' emitted instances and the
sinks' ``sink.receive`` trace rows.  Whether this module becomes that
measured side or goes is an open item of the roadmap.

EDL of an instance is ``t_g - t_eo``: how long after the (estimated)
occurrence the observer generated the instance.  The probe groups
instances by layer so the per-stage decomposition — sampling delay at
the mote, network delay to the sink, processing at the CCU — is
directly visible, and the end-to-end tracker extends the chain through
actuation (the "end-to-end latency model for CPSs" of Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.event import EventLayer
from repro.core.instance import EventInstance
from repro.sim.trace import summarize

__all__ = ["LatencyProbe", "EndToEndTracker"]


class LatencyProbe:
    """Collects per-layer detection latencies from emitted instances."""

    def __init__(self):
        self._samples: dict[EventLayer, list[int]] = {}

    def observe(self, instance: EventInstance) -> None:
        """Record one instance's detection latency."""
        self._samples.setdefault(instance.layer, []).append(
            instance.detection_latency
        )

    def samples(self, layer: EventLayer) -> list[int]:
        """Raw latency samples for a layer."""
        return list(self._samples.get(layer, []))

    def summary(self, layer: EventLayer) -> dict[str, float]:
        """Mean/min/max/percentile summary for a layer."""
        return summarize(self._samples.get(layer, []))

    def layer_means(self) -> dict[EventLayer, float]:
        """Mean EDL per layer (the E6 benchmark's series)."""
        return {
            layer: sum(samples) / len(samples)
            for layer, samples in self._samples.items()
            if samples
        }

    def count(self, layer: EventLayer | None = None) -> int:
        """Number of recorded samples (optionally for one layer)."""
        if layer is not None:
            return len(self._samples.get(layer, []))
        return sum(len(s) for s in self._samples.values())


@dataclass
class _OpenSpan:
    occurred_tick: int
    stages: dict[str, int] = field(default_factory=dict)


class EndToEndTracker:
    """Tracks occurrence -> ... -> actuation spans per physical event.

    Components report stage timestamps under a shared correlation key
    (typically the ground-truth physical event id carried through
    instance provenance); the tracker turns them into per-stage and
    total latencies.
    """

    def __init__(self):
        self._spans: dict[str, _OpenSpan] = {}

    def occurred(self, key: str, tick: int) -> None:
        """Mark the true physical occurrence time of event ``key``."""
        self._spans.setdefault(key, _OpenSpan(tick))

    def stage(self, key: str, stage: str, tick: int) -> None:
        """Record that ``key`` reached a named stage (first time wins).

        Unknown keys are ignored: a stage report for an event whose
        occurrence was never registered cannot be attributed.
        """
        span = self._spans.get(key)
        if span is None:
            return
        span.stages.setdefault(stage, tick)

    def latency(self, key: str, stage: str) -> int | None:
        """Ticks from occurrence to the named stage, if both known."""
        span = self._spans.get(key)
        if span is None or stage not in span.stages:
            return None
        return span.stages[stage] - span.occurred_tick

    def stage_latencies(self, stage: str) -> list[int]:
        """Occurrence-to-stage latencies over all tracked events."""
        out: list[int] = []
        for span in self._spans.values():
            if stage in span.stages:
                out.append(span.stages[stage] - span.occurred_tick)
        return out

    def summary(self, stage: str) -> dict[str, float]:
        """Distribution summary of a stage's latencies."""
        return summarize(self.stage_latencies(stage))

    @property
    def keys(self) -> tuple[str, ...]:
        """All tracked correlation keys."""
        return tuple(sorted(self._spans))
