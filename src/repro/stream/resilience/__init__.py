"""Fault injection and supervised crash recovery for the streaming runtime.

The reliability layer the paper's unreliable-CPS setting demands:

* :mod:`repro.stream.resilience.faults` — :class:`FaultPlan`, a
  deterministic seeded schedule of crashes, duplicate bursts, corrupt
  payloads and stalls, plus the typed :class:`SourceCrash` and the
  :class:`CorruptObservation` poison payload;
* :mod:`repro.stream.resilience.faulty` — :class:`FaultySource`, an
  :class:`~repro.stream.source.ObservationSource` wrapper that injects
  a plan around any base source and re-delivers acknowledged suffixes
  on reconnect (at-least-once);
* :mod:`repro.stream.resilience.supervisor` —
  :class:`SupervisedRuntime` with a :class:`CheckpointPolicy` and a
  bounded deterministic backoff: catch the crash, roll the host back to
  the last checkpoint, reconnect, resume;
* :mod:`repro.stream.resilience.dedup` — :class:`RedeliveryDeduper`,
  per-source sequence high-water + in-flight set, turning at-least-once
  redelivery into effectively exactly-once;
* :mod:`repro.stream.resilience.quarantine` — :class:`Quarantine`,
  a validation hook with a bounded dead-letter queue, extending the
  conservation invariant to
  ``released + late + shed + duplicates_dropped + quarantined == offered``.

The contract, pinned by the conformance harness's chaos legs: a supervised,
fault-injected replay of any registered scenario reproduces the
unfaulted golden digest byte-for-byte, at shards 1 and 4.
"""

from repro.stream.resilience.dedup import DedupSnapshot, RedeliveryDeduper
from repro.stream.resilience.faults import (
    CorruptObservation,
    FaultPlan,
    SourceCrash,
)
from repro.stream.resilience.faulty import FaultySource
from repro.stream.resilience.quarantine import (
    QUARANTINE_RETENTION,
    Quarantine,
    QuarantineSnapshot,
    default_validator,
)
from repro.stream.resilience.supervisor import (
    CheckpointPolicy,
    RecoveryExhausted,
    SupervisedRuntime,
    SupervisorCheckpoint,
)

__all__ = [
    "FaultPlan",
    "SourceCrash",
    "CorruptObservation",
    "FaultySource",
    "RedeliveryDeduper",
    "DedupSnapshot",
    "Quarantine",
    "QuarantineSnapshot",
    "default_validator",
    "QUARANTINE_RETENTION",
    "SupervisedRuntime",
    "SupervisorCheckpoint",
    "CheckpointPolicy",
    "RecoveryExhausted",
]
