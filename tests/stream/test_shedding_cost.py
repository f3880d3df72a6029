"""What enforcing a bound costs, by counts — never by the clock.

Shedding is the path a bounded runtime takes when it is busiest, so its
cost must not grow with the bound it enforces.  Wall-clock thresholds
say nothing on a shared runner (the fixed-ratio timing gates were
removed for that reason); the quantities below repeat exactly:

* classifier calls per at-cap offer — a constant, the same at a cap of
  16 and of 4 096 (walking the buffer made it ``1 + cap``) — and heap
  pops per at-cap offer (the tombstones a decision skips), likewise,
  also when every object is buffered twice (a redelivering feed with no
  deduper in front);
* objects kept alive by a buffer that only ever evicts, or only ever
  releases — a small multiple of the live items, not the stream length
  (a tombstone that is never swept pins its payload for good).
"""

import gc
import heapq
import weakref

import pytest

from repro.stream import (
    AdmissionController,
    AdmissionLimits,
    Priority,
    PriorityMap,
    StreamingDetectionRuntime,
    StreamItem,
)
from repro.stream.reorder import ReorderBuffer

POLICIES = ("drop_oldest_late", "drop_lowest_priority", "degrade_to_sampling")


def item(seq, tick, source="weak"):
    return StreamItem(
        entity=seq, event_tick=tick, seq=seq, arrival_tick=tick, source=source
    )


class TestWorkPerAtCapOffer:
    def work_per_offer(self, monkeypatch, policy, cap, copies, offers=16):
        calls = pops = 0

        def classify(it):
            nonlocal calls
            calls += 1
            return (
                Priority.SAFETY_CRITICAL
                if it.source == "strong"
                else Priority.ANALYTICS
            )

        def heappop(heap):
            nonlocal pops
            pops += 1
            return real_heappop(heap)

        real_heappop = heapq.heappop
        monkeypatch.setattr(heapq, "heappop", heappop)
        runtime = StreamingDetectionRuntime(
            lateness=0,
            admission=AdmissionController(
                AdmissionLimits(max_pending=cap),
                priorities=PriorityMap(classify=classify),
                shedding=policy,
            ),
        )
        for source in ("weak", "strong", "silent"):
            runtime.register_source(source)  # "silent" pins the watermark
        # Fill with the weak class (each object ``copies`` times), then
        # offer at the cap — few enough that weak items remain to lose
        # at either cap: under the class-aware policy a strong arrival
        # evicts a weak one and a weak arrival is itself shed.
        runtime.ingest(
            [
                it
                for seq in range(cap // copies)
                for it in [item(seq, seq)] * copies
            ]
        )
        assert runtime.buffer.occupancy == cap
        calls = pops = 0
        arrivals = [
            item(cap + n, cap + n, "strong" if n % 2 else "weak")
            for n in range(offers // copies)
        ]
        runtime.ingest([it for it in arrivals for _ in range(copies)])
        monkeypatch.undo()
        assert runtime.buffer.occupancy == cap
        assert runtime.stats.shed_observations == offers
        return calls / offers, pops / offers

    @pytest.mark.parametrize("copies", (1, 2))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_constant_and_independent_of_the_cap(
        self, monkeypatch, policy, copies
    ):
        small = self.work_per_offer(monkeypatch, policy, 16, copies)
        large = self.work_per_offer(monkeypatch, policy, 4_096, copies)
        assert small == large
        calls, pops = small
        # At most: classify the incoming item, file it in the buffer,
        # book the loser under its class.
        assert calls <= 3
        # A victim leaves one entry at the top of the heap it was found
        # through; the next decision pops it.
        assert pops <= 1


class TestTombstonesPinNothing:
    CAP = 64
    ROUNDS = 20_000

    def alive(self, refs):
        gc.collect()
        return sum(ref() is not None for ref in refs)

    def test_evicting_the_oldest_without_ever_releasing(self):
        # drop_oldest_late under a pinned watermark: each at-cap offer
        # evicts through the main heap, leaving its class-index entry
        # behind.
        runtime = StreamingDetectionRuntime(
            lateness=0,
            admission=AdmissionController(AdmissionLimits(max_pending=self.CAP)),
        )
        runtime.register_source("weak")
        runtime.register_source("silent")
        refs = []
        for seq in range(self.CAP + self.ROUNDS):
            offered = item(seq, seq)
            refs.append(weakref.ref(offered))
            runtime.ingest([offered])
            del offered
        assert runtime.stats.shed_observations == self.ROUNDS
        assert runtime.released_items == 0
        assert self.alive(refs) <= 4 * self.CAP

    def test_evicting_the_weakest_without_ever_releasing(self):
        # Class-aware eviction goes through the index, leaving the main
        # heap's entry behind; nothing is ever released to surface it.
        buffer = ReorderBuffer(rank=PriorityMap().of)
        refs = []
        for seq in range(self.CAP + self.ROUNDS):
            if buffer.occupancy == self.CAP:
                _, victim = buffer.weakest()
                assert buffer.evict_item(victim)
                del victim
            offered = item(seq, seq)
            refs.append(weakref.ref(offered))
            assert buffer.offer(offered)
            del offered
        assert buffer.occupancy == self.CAP
        assert self.alive(refs) <= 4 * self.CAP

    def test_releasing_without_ever_shedding(self):
        # A bounded runtime that is never full still files every item in
        # the class index; a release must not leave it there for good.
        runtime = StreamingDetectionRuntime(
            lateness=0,
            admission=AdmissionController(AdmissionLimits(max_pending=self.CAP)),
        )
        refs = []
        for seq in range(self.ROUNDS):
            offered = item(seq, seq)
            refs.append(weakref.ref(offered))
            runtime.ingest([offered])
            del offered
        assert runtime.stats.shed_observations == 0
        assert runtime.released_items == self.ROUNDS
        assert self.alive(refs) <= 4 * self.CAP
