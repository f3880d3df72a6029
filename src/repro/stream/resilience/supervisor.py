"""Supervised streaming: checkpoint policy, crash recovery, backoff.

:class:`SupervisedRuntime` wraps a streaming *host* — a
:class:`~repro.stream.replay.ReplayObserver`, or anything with its
small protocol: ``runtime``, ``ingest``, ``finish``, ``snapshot`` and
``rollback`` — and drives a source through it under a crash-recovery
contract:

* a :class:`CheckpointPolicy` takes a host checkpoint every N delivery
  steps (plus one at step 0, so a crash before the first periodic
  checkpoint restores to a clean start);
* each checkpoint is **acknowledged** to the source (``ack(step)`` when
  the source offers it), establishing the redelivery floor — the
  consumer-offset pattern;
* a :class:`~repro.stream.resilience.faults.SourceCrash` raised
  mid-iteration is caught: the host is rolled back to the last
  checkpoint (which truncates its own output log), and the source is
  reconnected with a **bounded deterministic exponential backoff**
  measured in arrival ticks (:func:`backoff_delay`) — no wall clock
  anywhere, so recovery is exactly reproducible;
* consecutive crashes without a single delivered step grow the backoff
  exponentially and, past :data:`MAX_ATTEMPTS`, raise
  :class:`RecoveryExhausted`; any successfully ingested step resets the
  attempt counter.

Combined with redelivery dedup
(:class:`~repro.stream.resilience.dedup.RedeliveryDeduper`) in the
runtime, the at-least-once redelivery window becomes effectively
exactly-once: a supervised, fault-injected run leaves the host with the
identical output — matches, instances, trace rows — as the unfaulted
run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.checkpoint import Domain, check, declared, is_count
from repro.core.errors import ObserverError
from repro.stream.resilience.faults import SourceCrash
from repro.stream.runtime import arrival_groups
from repro.stream.source import ObservationSource, StreamItem

__all__ = [
    "CheckpointPolicy",
    "SupervisedRuntime",
    "SupervisorCheckpoint",
    "RecoveryExhausted",
    "MAX_ATTEMPTS",
    "backoff_delay",
]

MAX_ATTEMPTS = 6
"""Consecutive crash recoveries allowed without a delivered step."""

_BASE_DELAY, _FACTOR, _MAX_DELAY = 1, 2, 32


def backoff_delay(attempt: int) -> int:
    """Arrival ticks to wait before the ``attempt``-th consecutive retry
    (1-based): 1, 2, 4, ... capped at 32.

    The delay is handed to the source's ``reconnect`` and shifts the
    redelivered suffix on the arrival clock, so backoff is part of the
    deterministic replay, not wall-clock sleeping.
    """
    return min(_BASE_DELAY * _FACTOR ** (attempt - 1), _MAX_DELAY)


class RecoveryExhausted(ObserverError):
    """Consecutive crash recoveries exceeded :data:`MAX_ATTEMPTS`
    without a single delivered step in between."""


@dataclass(frozen=True)
class CheckpointPolicy:
    """When the supervisor checkpoints its host.

    Args:
        every_steps: Checkpoint after this many delivery steps since the
            last checkpoint.
    """

    every_steps: int = declared(
        Domain("a count >= 1", lambda v: is_count(v) and v > 0), default=8
    )

    def __post_init__(self) -> None:
        check(self, CheckpointPolicy)


@dataclass(frozen=True)
class SupervisorCheckpoint:
    """A host checkpoint plus the step it was taken at."""

    step: int
    """Delivery steps ingested when the checkpoint was taken (also the
    step acknowledged to the source as the redelivery floor)."""
    state: object
    """The host's own snapshot."""


class SupervisedRuntime:
    """Drive a source through a host under crash-recovery supervision.

    Args:
        host: The supervised pipeline — a
            :class:`~repro.stream.replay.ReplayObserver`, or any object
            with a ``runtime`` (the
            :class:`~repro.stream.runtime.StreamingDetectionRuntime` it
            feeds), ``ingest(items)``, ``finish()``, ``snapshot()`` and
            ``rollback(state)``.  A rollback truncates the host's own
            output log, so the host's output stays exactly-once: the
            supervisor keeps no second copy.
        checkpoints: When to checkpoint (default: every 8 steps).

    After :meth:`run`, :attr:`recoveries`, :attr:`checkpoints_taken`
    and :attr:`backoff_delays` record the supervision history;
    ``runtime.stats.recoveries`` and :func:`repro.obs.metrics.collect`
    read it from here.
    """

    def __init__(
        self, host, *, checkpoints: CheckpointPolicy | None = None
    ):
        self.host = host
        self.runtime = host.runtime
        self.runtime.supervisor = self
        self.checkpoints = (
            checkpoints if checkpoints is not None else CheckpointPolicy()
        )
        self.recoveries = 0
        self.checkpoints_taken = 0
        self.backoff_delays: list[int] = []
        """Delay applied at each recovery, in order — the deterministic
        backoff schedule the property suite pins."""

    # -- the supervision loop ------------------------------------------

    def run(self, source: ObservationSource | Iterable[StreamItem]) -> None:
        """Drain ``source`` to completion, recovering from crashes; the
        output is the host's own log."""
        name = getattr(source, "name", None)
        if isinstance(name, str):
            self.runtime.register_source(name)
        every = self.checkpoints.every_steps
        checkpoint = self._take_checkpoint(0)
        self._ack(source, 0)
        step = 0
        attempt = 0
        while True:
            try:
                for _, group in arrival_groups(source):
                    self.host.ingest(group)
                    step += 1
                    attempt = 0
                    if step - checkpoint.step >= every:
                        checkpoint = self._take_checkpoint(step)
                        self._ack(source, step)
                break
            except SourceCrash as crash:
                attempt += 1
                reconnect = getattr(source, "reconnect", None)
                if not callable(reconnect):
                    raise  # a non-reconnectable source's crash is fatal
                if attempt > MAX_ATTEMPTS:
                    raise RecoveryExhausted(
                        f"source {name!r} crashed {attempt} times in a row; "
                        f"giving up after {MAX_ATTEMPTS} recovery attempts"
                    ) from crash
                self.recoveries += 1
                delay = backoff_delay(attempt)
                self.backoff_delays.append(delay)
                self.host.rollback(checkpoint.state)
                step = int(reconnect(delay))
        self.host.finish()

    # -- checkpointing -------------------------------------------------

    def _take_checkpoint(self, step: int) -> SupervisorCheckpoint:
        checkpoint = SupervisorCheckpoint(step=step, state=self.host.snapshot())
        self.checkpoints_taken += 1
        return checkpoint

    def _ack(self, source, step: int) -> None:
        ack = getattr(source, "ack", None)
        if callable(ack):
            ack(step)
