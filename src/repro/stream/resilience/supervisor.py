"""Supervised streaming: checkpoint policy, crash recovery, backoff.

:class:`SupervisedRuntime` wraps a streaming *host* — a
:class:`~repro.stream.runtime.StreamingDetectionRuntime` itself, a
:class:`~repro.stream.replay.ReplayObserver`, or anything exposing the
same small protocol (``ingest`` / ``finish`` / ``snapshot`` and
``restore`` or ``rollback``) — and drives a source through it under a
crash-recovery contract:

* a :class:`CheckpointPolicy` takes a host checkpoint every N delivery
  steps and/or every M released observations (plus one at step 0, so a
  crash before the first periodic checkpoint restores to a clean
  start);
* each checkpoint is **acknowledged** to the source (``ack(step)`` when
  the source offers it), establishing the redelivery floor — the
  consumer-offset pattern;
* a :class:`~repro.stream.resilience.faults.SourceCrash` raised
  mid-iteration is caught: the host is restored (or rolled back) to the
  last checkpoint, the supervisor's collected outputs are truncated to
  the checkpoint's length, and the source is reconnected with a
  **bounded deterministic exponential backoff** measured in arrival
  ticks (:class:`BackoffPolicy`) — no wall clock anywhere, so recovery
  is exactly reproducible;
* consecutive crashes without a single delivered step grow the backoff
  exponentially and, past ``max_attempts``, raise
  :class:`RecoveryExhausted`; any successfully ingested step resets the
  attempt counter.

Combined with redelivery dedup
(:class:`~repro.stream.resilience.dedup.RedeliveryDeduper`) in the
runtime, the at-least-once redelivery window becomes effectively
exactly-once: a supervised, fault-injected run returns the identical
output stream — matches, instances, trace rows — as the unfaulted run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.errors import ObserverError
from repro.detect.output import InstanceLog
from repro.stream.resilience.faults import SourceCrash
from repro.stream.runtime import arrival_groups
from repro.stream.source import ObservationSource, StreamItem

__all__ = [
    "CheckpointPolicy",
    "BackoffPolicy",
    "SupervisedRuntime",
    "SupervisorCheckpoint",
    "RecoveryExhausted",
]


class RecoveryExhausted(ObserverError):
    """Consecutive crash recoveries exceeded the backoff policy's
    ``max_attempts`` without a single delivered step in between."""


@dataclass(frozen=True)
class CheckpointPolicy:
    """When the supervisor checkpoints its host.

    Args:
        every_steps: Checkpoint after this many delivery steps since the
            last checkpoint (``None`` = not step-driven).
        every_released: Checkpoint once this many observations were
            released since the last checkpoint (``None`` = not
            release-driven).  Either trigger suffices; at least one must
            be configured.
    """

    every_steps: int | None = 8
    every_released: int | None = None

    def __post_init__(self) -> None:
        if self.every_steps is None and self.every_released is None:
            raise ObserverError(
                "checkpoint policy needs every_steps and/or every_released"
            )
        for label, value in (
            ("every_steps", self.every_steps),
            ("every_released", self.every_released),
        ):
            if value is not None and (type(value) is not int or value <= 0):
                raise ObserverError(
                    f"{label} must be a positive int or None: {value!r}"
                )

    def due(self, steps_since: int, released_since: int) -> bool:
        """Whether progress since the last checkpoint triggers a new one."""
        if self.every_steps is not None and steps_since >= self.every_steps:
            return True
        return (
            self.every_released is not None
            and released_since >= self.every_released
        )


@dataclass(frozen=True)
class BackoffPolicy:
    """Bounded deterministic exponential backoff, in arrival ticks.

    The ``attempt``-th consecutive crash (1-based) waits
    ``min(base_delay * factor ** (attempt - 1), max_delay)`` arrival
    ticks before redelivery resumes — the delay is handed to the
    source's ``reconnect`` and shifts the redelivered suffix on the
    arrival clock, so backoff is part of the deterministic replay, not
    wall-clock sleeping.
    """

    base_delay: int = 1
    factor: int = 2
    max_delay: int = 32
    max_attempts: int = 6

    def __post_init__(self) -> None:
        for name in ("base_delay", "factor", "max_delay", "max_attempts"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ObserverError(f"{name} must be an int: {value!r}")
        if self.base_delay < 0:
            raise ObserverError(
                f"base_delay cannot be negative: {self.base_delay}"
            )
        if self.factor < 1:
            raise ObserverError(f"factor must be >= 1: {self.factor}")
        if self.max_delay < self.base_delay:
            raise ObserverError(
                f"max_delay {self.max_delay} is below base_delay "
                f"{self.base_delay}"
            )
        if self.max_attempts < 1:
            raise ObserverError(
                f"max_attempts must be positive: {self.max_attempts}"
            )

    def delay(self, attempt: int) -> int:
        """Backoff before the ``attempt``-th consecutive retry (1-based)."""
        if attempt < 1:
            raise ObserverError(f"attempt is 1-based: {attempt}")
        return min(
            self.base_delay * self.factor ** (attempt - 1), self.max_delay
        )

    def schedule(self) -> tuple[int, ...]:
        """The full consecutive-failure delay schedule, for the record."""
        return tuple(
            self.delay(attempt)
            for attempt in range(1, self.max_attempts + 1)
        )


@dataclass(frozen=True)
class SupervisorCheckpoint:
    """A host checkpoint plus the supervisor-level resume coordinates."""

    step: int
    """Delivery steps ingested when the checkpoint was taken (also the
    step acknowledged to the source as the redelivery floor)."""
    released: int
    """Runtime's released-item count at the checkpoint (drives the
    ``every_released`` trigger)."""
    outputs: int
    """Collected outputs at the checkpoint (truncation point for the
    supervisor's exactly-once output log)."""
    state: object
    """The host's own snapshot."""


class SupervisedRuntime:
    """Drive a source through a host under crash-recovery supervision.

    Args:
        host: The supervised pipeline — a
            :class:`~repro.stream.runtime.StreamingDetectionRuntime`, a
            :class:`~repro.stream.replay.ReplayObserver`, or any object
            with ``ingest(items) -> list``, ``finish() -> list``,
            ``snapshot()`` and ``restore(state)`` (or ``rollback(state)``,
            preferred when present: a rollback additionally truncates
            host-internal output logs so recovery stays exactly-once).
            A host whose ``emitted`` is an
            :class:`~repro.detect.output.InstanceLog` keeps its own
            output: the supervisor collects nothing beside it.
        checkpoints: When to checkpoint (default: every 8 steps).
        backoff: Crash-retry policy (default: 1, 2, 4, ... capped at 32
            arrival ticks, 6 consecutive attempts).

    After :meth:`run`, :attr:`recoveries`, :attr:`checkpoints_taken`
    and :attr:`backoff_delays` record the supervision history;
    ``runtime.stats.recoveries`` and :func:`repro.obs.metrics.collect`
    read it from here.
    """

    def __init__(
        self,
        host,
        *,
        checkpoints: CheckpointPolicy | None = None,
        backoff: BackoffPolicy | None = None,
    ):
        self.host = host
        self.runtime = getattr(host, "runtime", host)
        self.runtime.supervisor = self
        self.checkpoints = (
            checkpoints if checkpoints is not None else CheckpointPolicy()
        )
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.recoveries = 0
        self.checkpoints_taken = 0
        self.backoff_delays: list[int] = []
        """Delay applied at each recovery, in order — the deterministic
        backoff schedule the property suite pins."""
        self._outputs: list = []
        log = getattr(host, "emitted", None)
        self._log = log if isinstance(log, InstanceLog) else None

    # -- the supervision loop ------------------------------------------

    def run(self, source: ObservationSource | Iterable[StreamItem]) -> list:
        """Drain ``source`` to completion, recovering from crashes.

        Returns the host's outputs (matches or instances) exactly once
        each, rolled-back emissions excluded: for a host that owns an
        :class:`~repro.detect.output.InstanceLog`, a view of the rows the
        run appended to it.
        """
        name = getattr(source, "name", None)
        if isinstance(name, str):
            self.runtime.register_source(name)
        self._outputs = []
        start = 0 if self._log is None else len(self._log)
        checkpoint = self._take_checkpoint(0)
        self._ack(source, 0)
        step = 0
        attempt = 0
        while True:
            try:
                for _, group in arrival_groups(source):
                    self._collect(self.host.ingest(group))
                    step += 1
                    attempt = 0
                    if self.checkpoints.due(
                        step - checkpoint.step,
                        self.runtime.released_items - checkpoint.released,
                    ):
                        checkpoint = self._take_checkpoint(step)
                        self._ack(source, step)
                break
            except SourceCrash as crash:
                attempt += 1
                reconnect = getattr(source, "reconnect", None)
                if not callable(reconnect):
                    raise  # a non-reconnectable source's crash is fatal
                if attempt > self.backoff.max_attempts:
                    raise RecoveryExhausted(
                        f"source {name!r} crashed {attempt} times in a row; "
                        f"giving up after {self.backoff.max_attempts} "
                        f"recovery attempts"
                    ) from crash
                self.recoveries += 1
                delay = self.backoff.delay(attempt)
                self.backoff_delays.append(delay)
                self._restore(checkpoint)
                step = int(reconnect(delay))
        self._collect(self.host.finish())
        if self._log is not None:
            return self._log.since(start)
        return list(self._outputs)

    def ingest(self, items: Sequence[StreamItem]) -> list:
        """Pass-through ingest for callers driving steps manually
        (no crash supervision outside :meth:`run`)."""
        out = self.host.ingest(items)
        self._collect(out)
        return out

    def _collect(self, outputs) -> None:
        if self._log is None:
            self._outputs.extend(outputs)

    # -- checkpointing and recovery ------------------------------------

    def _take_checkpoint(self, step: int) -> SupervisorCheckpoint:
        checkpoint = SupervisorCheckpoint(
            step=step,
            released=self.runtime.released_items,
            outputs=len(self._outputs),
            state=self.host.snapshot(),
        )
        self.checkpoints_taken += 1
        return checkpoint

    def _ack(self, source, step: int) -> None:
        ack = getattr(source, "ack", None)
        if callable(ack):
            ack(step)

    def _restore(self, checkpoint: SupervisorCheckpoint) -> None:
        rollback = getattr(self.host, "rollback", None)
        if callable(rollback):
            rollback(checkpoint.state)
        else:
            self.host.restore(checkpoint.state)
        del self._outputs[checkpoint.outputs :]
