"""Exact cross-shard match merging: dedup, canonical order, cooldown.

Shard engines evaluate the installed specifications unchanged —
including their cooldowns, which is what lets a shard skip enumeration
entirely while a spec is cooling, exactly like the single engine.  The
merger turns the per-shard candidate streams back into the exact
single-engine match stream:

1. **dedup** — halo routing mirrors boundary-adjacent entities into
   several shards, so the same binding can fire in each of them; the
   canonical binding key (role -> provenance key, exactly the single
   engine's dedup key) collapses the duplicates.  Duplicates are always
   same-tick — a binding is enumerated only when its last constituent
   arrives, and routing delivers every constituent to every target
   shard at its global arrival tick — so dedup state never outlives one
   merge call.
2. **canonical ordering** — the single engine emits matches spec-major,
   then by the arrival order of the triggering (last-arriving) entity,
   then by target-role order, then by the lexicographic window order of
   the remaining role bindings.  Each component is recomputable from
   global arrival sequence numbers (the sharded engine stamps every
   submitted entity), so sorting the deduplicated candidates reproduces
   the single engine's emission order exactly — which is what keeps
   instance sequence numbers and trace digests byte-identical.
3. **cooldown arbitration** — a cooling spec reports at most one
   candidate per shard per tick (each shard's local-first, and the
   shard holding the globally first candidate reports exactly that,
   since shard-local enumeration order is the global order restricted).
   Walking the canonically ordered stream, the first accepted match of
   a spec stamps ``last_match`` and suppresses the rest of the tick —
   the single engine's mid-enumeration cooling break.  The sharded
   engine then copies the authoritative ``last_match`` back into every
   shard (:meth:`~repro.detect.engine.DetectionEngine.set_last_match`),
   so a shard whose local candidate lost the race never starts its
   cooldown clock late or early.  A binding suppressed this way is
   never reconsidered (it is only ever enumerated once) — precisely the
   single engine's behavior.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.core.entity import Entity
from repro.detect.engine import Match

__all__ = ["MatchMerger"]

SeqOf = Callable[[Entity], int]


class MatchMerger:
    """Collapse per-shard candidate matches into the exact match stream."""

    def __init__(self):
        self.last_match: dict[str, int] = {}
        # What merge() saw, which a batch with one contributing shard
        # skips; clear() keeps these, as it keeps an engine's stats.
        self.candidates = 0
        """Per-shard candidate matches entering the merger."""
        self.deduped = 0
        """Halo-duplicate candidates collapsed by the canonical key."""
        self.suppressed = 0
        """Candidates suppressed by cooldown arbitration."""
        self.emitted = 0
        """Matches emitted in canonical single-engine order."""

    def clear(self) -> None:
        """Forget cooldown state (windows cleared)."""
        self.last_match.clear()

    def merge(
        self,
        candidates: Iterable[Match],
        now: int,
        spec_index: Mapping[str, int],
        seq_of: SeqOf,
    ) -> list[Match]:
        """The exact single-engine match list for this tick's batch.

        Args:
            candidates: Matches reported by the shard engines.
            now: The batch tick.
            spec_index: Event id -> spec installation index (the single
                engine evaluates specs in installation order).
            seq_of: Global arrival sequence number of a submitted
                entity (the sharded engine's stamp).
        """
        # The sort key doubles as the dedup key: it is a deterministic
        # function of (spec, binding) via global arrival seqs, so two
        # shards' copies of one binding produce the identical tuple.
        chosen: dict[tuple, Match] = {}
        offered = 0
        for match in candidates:
            offered += 1
            key = self._sort_key(match, spec_index, seq_of)
            if key not in chosen:
                chosen[key] = match

        merged: list[Match] = []
        last = self.last_match
        for _, match in sorted(chosen.items()):
            cooldown = match.spec.cooldown
            if cooldown:
                previous = last.get(match.spec.event_id)
                if previous is not None and now - previous < cooldown:
                    continue
            last[match.spec.event_id] = now
            merged.append(match)
        self.candidates += offered
        self.deduped += offered - len(chosen)
        self.suppressed += len(chosen) - len(merged)
        self.emitted += len(merged)
        return merged

    @staticmethod
    def _sort_key(
        match: Match, spec_index: Mapping[str, int], seq_of: SeqOf
    ) -> tuple:
        """The single engine's emission-order key for one candidate.

        ``(spec installation index, trigger seq, target-role index,
        per-role seq tuple)`` — see the module docstring for why each
        component reproduces the single engine's ordering.
        """
        spec = match.spec
        binding = match.binding
        # The triggering entity is the last-arriving constituent: the
        # single engine enumerates a binding exactly once, when its
        # final member is submitted.
        pinned: Entity | None = None
        pinned_seq = -1
        for role in spec.roles:
            bound = binding[role]
            if isinstance(bound, tuple):
                for entity in bound:
                    seq = seq_of(entity)
                    if seq > pinned_seq:
                        pinned_seq, pinned = seq, entity
            else:
                seq = seq_of(bound)
                if seq > pinned_seq:
                    pinned_seq, pinned = seq, bound
        # The engine tries the trigger's candidate roles in order and a
        # reachable binding fires at the first role that can hold it.
        target_index = 0
        for i, role in enumerate(spec.candidate_roles(pinned)):
            bound = binding.get(role)
            if bound is pinned or (
                isinstance(bound, tuple)
                and any(entity is pinned for entity in bound)
            ):
                target_index = i
                break
        enum_key = tuple(
            tuple(seq_of(entity) for entity in bound)
            if isinstance(bound, tuple)
            else seq_of(bound)
            for bound in (binding[role] for role in spec.roles)
        )
        return (
            spec_index[spec.event_id],
            pinned_seq,
            target_index,
            enum_key,
        )
