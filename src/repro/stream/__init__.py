"""Event-time streaming runtime: out-of-order ingestion with watermarks.

The detection stack (:mod:`repro.detect`, :mod:`repro.shard`) consumes
observations in non-decreasing tick order — a discipline real sensor
networks do not deliver.  This package closes the gap with the standard
streaming toolkit:

* :mod:`repro.stream.source` — :class:`StreamItem` (an entity stamped
  with its event tick, arrival tick and a total-order sequence number)
  plus the :class:`ObservationSource` protocol and its implementations
  (in-order :class:`ReplaySource`, disorder-injecting
  :class:`JitteredSource`);
* :mod:`repro.stream.reorder` — a bounded :class:`ReorderBuffer` that
  holds out-of-order arrivals and releases them in event-time order,
  counting (never dropping) observations that arrive beyond the
  lateness bound;
* :mod:`repro.stream.watermark` — per-source low-watermarks, min-merged
  into the release frontier;
* :mod:`repro.stream.runtime` — :class:`StreamingDetectionRuntime`,
  the pull-driven loop that feeds a
  :class:`~repro.detect.engine.DetectionEngine` (or the sharded
  backend) from sources, with mid-flight checkpoint/restore;
* :mod:`repro.stream.capture` — :class:`StreamTap`, recording a live
  observer's engine-submission stream so any CPS run can be replayed
  through the streaming runtime;
* :mod:`repro.stream.replay` — :class:`ObserverProfile` /
  :class:`ReplayObserver`, reconstructing an observer's emitted
  instances (and their trace rows) from a replayed stream, which is how
  the conformance harness proves jittered replay reproduces the
  golden digests byte-for-byte;
* :mod:`repro.stream.admission` — bounded ingestion: per-source
  token-bucket rate limits, priority classes, occupancy caps with
  pluggable shedding policies, and backpressure signaling
  (:class:`AdmissionController` installed via the runtime's
  ``admission=`` argument);
* :mod:`repro.stream.resilience` — fault injection and supervised
  crash recovery: deterministic :class:`FaultPlan` schedules injected
  by :class:`FaultySource`, checkpoint-and-reconnect supervision with
  bounded deterministic backoff (:class:`SupervisedRuntime`),
  redelivery dedup (:class:`RedeliveryDeduper`) and a corrupt-payload
  :class:`Quarantine` — at-least-once transports replay the golden
  digests exactly-once.
"""

from repro.stream.admission import (
    AdmissionController,
    AdmissionLimits,
    AdmissionSnapshot,
    Backpressure,
    PacedSource,
    Priority,
    PriorityMap,
)
from repro.stream.capture import StreamTap
from repro.stream.reorder import ReorderBuffer
from repro.stream.replay import ObserverProfile, ReplayObserver, profile_of
from repro.stream.resilience import (
    BackoffPolicy,
    CheckpointPolicy,
    CorruptObservation,
    FaultPlan,
    FaultySource,
    Quarantine,
    RecoveryExhausted,
    RedeliveryDeduper,
    SourceCrash,
    SupervisedRuntime,
)
from repro.stream.runtime import (
    RuntimeCheckpoint,
    StreamingDetectionRuntime,
    StreamStats,
    arrival_groups,
)
from repro.stream.source import (
    JitteredSource,
    ObservationSource,
    ReplaySource,
    StreamItem,
)
from repro.stream.watermark import WatermarkTracker

__all__ = [
    "StreamItem",
    "ObservationSource",
    "ReplaySource",
    "JitteredSource",
    "ReorderBuffer",
    "WatermarkTracker",
    "StreamingDetectionRuntime",
    "RuntimeCheckpoint",
    "StreamStats",
    "arrival_groups",
    "StreamTap",
    "ObserverProfile",
    "ReplayObserver",
    "profile_of",
    "AdmissionController",
    "AdmissionLimits",
    "AdmissionSnapshot",
    "Backpressure",
    "PacedSource",
    "Priority",
    "PriorityMap",
    "FaultPlan",
    "FaultySource",
    "SourceCrash",
    "CorruptObservation",
    "RedeliveryDeduper",
    "Quarantine",
    "SupervisedRuntime",
    "CheckpointPolicy",
    "BackoffPolicy",
    "RecoveryExhausted",
]
