"""Bounded ingestion for the streaming runtime.

A mempool-style admission front end: per-source token-bucket rate
limiting (:mod:`~repro.stream.admission.limiter`), priority classes
(:mod:`~repro.stream.admission.priority`), pluggable shedding policies
consulted at the reorder buffer's occupancy cap
(:mod:`~repro.stream.admission.policy`), backpressure signaling to
cooperating sources (:mod:`~repro.stream.admission.backpressure`), and
the controller tying them together
(:mod:`~repro.stream.admission.controller`).

Install one on a :class:`~repro.stream.runtime.StreamingDetectionRuntime`
via its ``admission=`` argument.  With no limits configured the runtime
is behavior-identical to an unbounded one — every shed, deferral and
backpressure event is an explicit, counted decision.
"""

from repro.stream.admission.backpressure import Backpressure, PacedSource
from repro.stream.admission.controller import (
    AdmissionController,
    AdmissionLimits,
    AdmissionSnapshot,
)
from repro.stream.admission.limiter import TokenBucket
from repro.stream.admission.policy import (
    DegradeToSampling,
    DropLowestPriority,
    DropOldestLate,
    SheddingPolicy,
    resolve_policy,
)
from repro.stream.admission.priority import Priority, PriorityMap

__all__ = [
    "AdmissionController",
    "AdmissionLimits",
    "AdmissionSnapshot",
    "Backpressure",
    "DegradeToSampling",
    "DropLowestPriority",
    "DropOldestLate",
    "PacedSource",
    "Priority",
    "PriorityMap",
    "SheddingPolicy",
    "TokenBucket",
    "resolve_policy",
]
