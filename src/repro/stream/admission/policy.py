"""Pluggable load-shedding policies for the bounded reorder buffer.

A policy is consulted only when the reorder buffer sits at its
occupancy cap and one more observation wants in.  It answers one
question — *who loses?* — by returning either a buffered victim to
evict (the incoming item is admitted in its place) or ``None`` (the
incoming item itself is shed).  Every decision is deterministic and
every shed observation is counted; the performance ledger's
``stream_overload`` workload prices the decision itself
(``stream.admission.make_room.us_per_shed`` at
``stream.admission.shed_share``) and gates the recall of what survives
against the unshedded reference — shedding is a measured trade, never a
silent one.

The decision must not cost more the fuller the buffer it protects is, so
the built-in policies only use the buffer's O(1) reads
(:meth:`~repro.stream.reorder.ReorderBuffer.oldest_pending`,
:meth:`~repro.stream.reorder.ReorderBuffer.weakest`), and evicting the
victim they name is O(1) as well.  A custom policy may still walk
:meth:`~repro.stream.reorder.ReorderBuffer.pending` — the checkpoint
view, O(n log n) per call — and pays for it on every at-cap offer.

Built-in policies (resolvable by name):

* ``drop_oldest_late`` — evict the event-time-oldest buffered item:
  the stalest data goes first, keeping the buffer fresh (and the late
  retention window already drops oldest lates, hence the name);
* ``drop_lowest_priority`` — evict the weakest-class buffered item,
  but only if the incoming item's class is strictly stronger;
  otherwise the incoming item is shed.  A safety-critical observation
  therefore preempts buffered analytics, never the other way around;
* ``degrade_to_sampling`` — under pressure, admit every ``stride``-th
  observation per source (evicting the oldest to make room) and shed
  the rest: graceful degradation to a uniform sample instead of a
  hard tail cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import MutableMapping, Protocol, runtime_checkable

from repro.core.errors import ObserverError
from repro.stream.admission.priority import PriorityMap
from repro.stream.reorder import ReorderBuffer
from repro.stream.source import StreamItem

__all__ = [
    "SheddingPolicy",
    "DropOldestLate",
    "DropLowestPriority",
    "DegradeToSampling",
    "resolve_policy",
]


@runtime_checkable
class SheddingPolicy(Protocol):
    """Decides who loses when the reorder buffer is at its cap."""

    name: str

    def make_room(
        self,
        incoming: StreamItem,
        buffer: ReorderBuffer,
        priorities: PriorityMap,
        state: MutableMapping[str, int],
    ) -> StreamItem | None:
        """Return a buffered victim to evict, or ``None`` to shed
        ``incoming``.  ``state`` is the controller-owned (and
        checkpointed) mutable policy state."""
        ...


@dataclass(frozen=True)
class DropOldestLate:
    """Evict the event-time-oldest buffered item; admit the new one."""

    name: str = "drop_oldest_late"

    def make_room(
        self,
        incoming: StreamItem,
        buffer: ReorderBuffer,
        priorities: PriorityMap,
        state: MutableMapping[str, int],
    ) -> StreamItem | None:
        return buffer.oldest_pending()


@dataclass(frozen=True)
class DropLowestPriority:
    """Evict the weakest buffered class, never one at or above incoming.

    Among equally-weak buffered items the event-time-newest is evicted
    (the oldest of a class is closest to release and has waited
    longest).  When nothing buffered is strictly weaker than the
    incoming item, the incoming item is shed — ties never displace
    already-admitted data.

    Buffered items are compared by the class the buffer filed them under
    when they were offered (its ``rank``, which the runtime wires to the
    controller's own :class:`PriorityMap`); ``priorities`` classifies
    only the incoming item.
    """

    name: str = "drop_lowest_priority"

    def make_room(
        self,
        incoming: StreamItem,
        buffer: ReorderBuffer,
        priorities: PriorityMap,
        state: MutableMapping[str, int],
    ) -> StreamItem | None:
        found = buffer.weakest()
        if found is not None and priorities.of(incoming) < found[0]:
            return found[1]
        return None


@dataclass(frozen=True)
class DegradeToSampling:
    """Admit every ``stride``-th observation per source under pressure.

    The per-source counters advance only while the buffer is at its cap
    (the policy is never consulted otherwise), so an uncongested stream
    is untouched and a congested one degrades to a deterministic
    1-in-``stride`` sample instead of losing a contiguous tail.
    """

    stride: int = 2
    name: str = "degrade_to_sampling"

    def __post_init__(self) -> None:
        if type(self.stride) is not int or self.stride < 1:
            raise ObserverError(
                f"sampling stride must be an int >= 1, got {self.stride!r}"
            )

    def make_room(
        self,
        incoming: StreamItem,
        buffer: ReorderBuffer,
        priorities: PriorityMap,
        state: MutableMapping[str, int],
    ) -> StreamItem | None:
        key = f"sample:{incoming.source}"
        position = state.get(key, 0)
        state[key] = position + 1
        if position % self.stride == 0:
            return buffer.oldest_pending()
        return None


_POLICIES = {
    policy.name: policy
    for policy in (DropOldestLate(), DropLowestPriority(), DegradeToSampling())
}


def resolve_policy(policy: SheddingPolicy | str) -> SheddingPolicy:
    """Resolve a policy instance or a built-in policy name."""
    if isinstance(policy, str):
        try:
            return _POLICIES[policy]
        except KeyError:
            raise ObserverError(
                f"unknown shedding policy {policy!r}; "
                f"built-ins: {sorted(_POLICIES)}"
            ) from None
    return policy
