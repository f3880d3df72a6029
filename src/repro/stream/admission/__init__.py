"""Bounded ingestion for the streaming runtime.

A mempool-style admission front end: per-source token-bucket rate
limiting (:mod:`~repro.stream.admission.limiter`), an occupancy cap on
the reorder buffer enforced by one of two shedding rules
(``drop_oldest_late`` evicts the event-time-oldest buffered item,
``drop_lowest_priority`` sheds the arrival), backpressure on
cooperating sources (:mod:`~repro.stream.admission.backpressure`), and
the controller tying them together
(:mod:`~repro.stream.admission.controller`).  Every observation is in
one admission class.

Every :class:`~repro.stream.runtime.StreamingDetectionRuntime` holds
one: the controller passed as its ``admission=`` argument, or
``AdmissionController()``, which sets no limits, admits every
observation and costs nothing per step.  Every shed, deferral and
backpressure event is an explicit, counted decision.
"""

from repro.stream.admission.backpressure import PacedSource
from repro.stream.admission.controller import (
    AdmissionController,
    AdmissionLimits,
    AdmissionSnapshot,
)
from repro.stream.admission.limiter import TokenBucket

__all__ = [
    "AdmissionController",
    "AdmissionLimits",
    "AdmissionSnapshot",
    "PacedSource",
    "TokenBucket",
]
