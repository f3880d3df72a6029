"""What enforcing a bound costs, by counts — never by the clock.

Shedding is the path a bounded runtime takes when it is busiest, so its
cost must not grow with the bound it enforces.  Wall-clock thresholds
say nothing on a shared runner (the fixed-ratio timing gates were
removed for that reason); the quantities below repeat exactly:

* heap pops per at-cap offer — exactly one under ``drop_oldest_late``
  (the victim is the heap's top) and none under ``drop_lowest_priority``
  (the arrival is shed), the same at a cap of 16 and of 4 096 (walking
  the buffer made the decision ``1 + cap``), also when every object is
  buffered twice (a redelivering feed with no deduper in front);
* objects kept alive by a buffer that only ever evicts, or only ever
  releases — a small multiple of the live items, not the stream length.
"""

import gc
import heapq
import weakref

import pytest

from repro.detect.engine import DetectionEngine
from repro.stream import (
    AdmissionController,
    AdmissionLimits,
    StreamingDetectionRuntime,
    StreamItem,
)

RULES = ("drop_oldest_late", "drop_lowest_priority")


def item(seq, tick, source="live"):
    return StreamItem(
        entity=seq, event_tick=tick, seq=seq, arrival_tick=tick, source=source
    )


class TestWorkPerAtCapOffer:
    def pops_per_offer(self, monkeypatch, rule, cap, copies, offers=16):
        pops = 0

        def heappop(heap):
            nonlocal pops
            pops += 1
            return real_heappop(heap)

        real_heappop = heapq.heappop
        monkeypatch.setattr(heapq, "heappop", heappop)
        runtime = StreamingDetectionRuntime(
            DetectionEngine(),
            lateness=0,
            admission=AdmissionController(
                AdmissionLimits(max_pending=cap), shedding=rule
            ),
        )
        for source in ("live", "silent"):
            runtime.register_source(source)  # "silent" pins the watermark
        # Fill to the cap (each object ``copies`` times), then offer at
        # the cap.
        runtime.ingest(
            [
                it
                for seq in range(cap // copies)
                for it in [item(seq, seq)] * copies
            ]
        )
        assert runtime.buffer.occupancy == cap
        pops = 0
        arrivals = [item(cap + n, cap + n) for n in range(offers // copies)]
        runtime.ingest([it for it in arrivals for _ in range(copies)])
        monkeypatch.undo()
        assert runtime.buffer.occupancy == cap
        assert runtime.stats.shed_observations == offers
        return pops / offers

    @pytest.mark.parametrize("copies", (1, 2))
    @pytest.mark.parametrize("rule", RULES)
    def test_constant_and_independent_of_the_cap(
        self, monkeypatch, rule, copies
    ):
        # Evicting the victim pops the heap's top once.  Shedding the
        # arrival touches no heap.
        expected = 1 if rule == "drop_oldest_late" else 0
        for cap in (16, 4_096):
            assert self.pops_per_offer(monkeypatch, rule, cap, copies) == expected


class TestTheBufferPinsOnlyWhatItHolds:
    CAP = 64
    ROUNDS = 20_000

    def alive(self, refs):
        gc.collect()
        return sum(ref() is not None for ref in refs)

    def test_evicting_the_oldest_without_ever_releasing(self):
        # drop_oldest_late under a pinned watermark: each at-cap offer
        # evicts the top of the heap.
        runtime = StreamingDetectionRuntime(
            DetectionEngine(),
            lateness=0,
            admission=AdmissionController(AdmissionLimits(max_pending=self.CAP)),
        )
        runtime.register_source("live")
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

    def test_releasing_without_ever_shedding(self):
        # A bounded runtime that is never full: what it releases leaves
        # nothing behind.
        runtime = StreamingDetectionRuntime(
            DetectionEngine(),
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
