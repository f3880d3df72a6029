"""What enforcing a bound costs, by counts — never by the clock.

Shedding is the path a bounded runtime takes when it is busiest, so its
cost must not grow with the bound it enforces.  Wall-clock thresholds
say nothing on a shared runner (the fixed-ratio timing gates were
removed for that reason); the quantities below repeat exactly.

The reorder buffer keeps one list per buffered event tick.  Once the
buffer is at its cap, the tests swap each bucket for a list that counts
what is done to it, then offer at the cap:

* removals per at-cap offer — exactly one ``pop`` under
  ``drop_oldest_late`` (the victim leaves the lowest tick's bucket) and
  none under ``drop_lowest_priority`` (the arrival is shed);
* sorts — at most one per bucket (its first eviction puts it in
  eviction order), so the items sorted are one per offer, amortised;
* inserts — one per at-cap offer that lands on the tick being evicted
  (a bisect insert into the bucket, never a re-sort), none otherwise.

Each count is the same at a cap of 16 and of 4 096 (walking the buffer
made the decision ``1 + cap``), also when every object is buffered
twice (a redelivering feed with no deduper in front).  A last test
bounds the objects kept alive by a buffer that only ever evicts, or
only ever releases: a small multiple of the live items, not the stream
length.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.detect.engine import DetectionEngine
from repro.stream import (
    AdmissionController,
    AdmissionLimits,
    StreamingDetectionRuntime,
    StreamItem,
)

RULES = ("drop_oldest_late", "drop_lowest_priority")
WIDTH = 4  # items per event tick when filling to the cap
OFFERS = 16


def item(seq, tick, source="live"):
    return StreamItem(
        entity=seq, event_tick=tick, seq=seq, arrival_tick=tick, source=source
    )


class CountingBucket(list):
    """A bucket that tallies the work done on it into ``tally``."""

    def __init__(self, items, tally):
        super().__init__(items)
        self.tally = tally
        self.sorts = 0

    def pop(self, *index):
        self.tally["pops"] += 1
        return super().pop(*index)

    def insert(self, index, value):
        self.tally["inserts"] += 1
        super().insert(index, value)

    def sort(self, **how):
        self.sorts += 1
        self.tally["sorted"] += len(self)
        super().sort(**how)


class TestWorkPerAtCapOffer:
    def work(self, rule, cap, copies, on_the_evicted_tick):
        runtime = StreamingDetectionRuntime(
            DetectionEngine(),
            lateness=0,
            admission=AdmissionController(
                AdmissionLimits(max_pending=cap), shedding=rule
            ),
        )
        for source in ("live", "silent"):
            runtime.register_source(source)  # "silent" pins the watermark
        # Fill to the cap, WIDTH items a tick (each object ``copies``
        # times), then offer at the cap: past every buffered tick, or on
        # the lowest one, the tick being evicted.
        runtime.ingest(
            [
                it
                for seq in range(cap // copies)
                for it in [item(seq, seq * copies // WIDTH)] * copies
            ]
        )
        buffer = runtime.buffer
        assert buffer.occupancy == cap
        tally = Counter()
        counted = [
            (tick, CountingBucket(bucket, tally))
            for tick, bucket in buffer._buckets.items()
        ]
        buffer._buckets = dict(counted)
        arrivals = [
            item(cap + n, 0 if on_the_evicted_tick else cap + n)
            for n in range(OFFERS // copies)
        ]
        runtime.ingest([it for it in arrivals for _ in range(copies)])
        assert buffer.occupancy == cap
        assert runtime.stats.shed_observations == OFFERS
        assert max(bucket.sorts for _, bucket in counted) <= 1
        return {
            "pops": tally["pops"] / OFFERS,
            "inserts": tally["inserts"] / OFFERS,
            "sorted": tally["sorted"] / OFFERS,
        }

    @pytest.mark.parametrize("copies", (1, 2))
    @pytest.mark.parametrize("rule", RULES)
    def test_constant_and_independent_of_the_cap(self, rule, copies):
        # Evicting the victim pops one bucket once, and each bucket it
        # empties was sorted once.  Shedding the arrival touches none.
        evicting = rule == "drop_oldest_late"
        expected = {
            "pops": 1 if evicting else 0,
            "inserts": 0,
            "sorted": 1 if evicting else 0,
        }
        for cap in (16, 4_096):
            assert self.work(rule, cap, copies, False) == expected

    @pytest.mark.parametrize("copies", (1, 2))
    @pytest.mark.parametrize("rule", RULES)
    def test_offers_onto_the_tick_being_evicted(self, rule, copies):
        # Every arrival joins the bucket the victims leave: one sort of
        # its WIDTH first items in all, then one pop and one bisect
        # insert per offer.  Shedding the arrival touches none.
        evicting = rule == "drop_oldest_late"
        expected = {
            "pops": 1 if evicting else 0,
            "inserts": 1 if evicting else 0,
            "sorted": WIDTH / OFFERS if evicting else 0,
        }
        for cap in (16, 4_096):
            assert self.work(rule, cap, copies, True) == expected


class TestTheBufferPinsOnlyWhatItHolds:
    CAP = 64
    ROUNDS = 20_000

    def alive(self, refs):
        gc.collect()
        return sum(ref() is not None for ref in refs)

    def test_evicting_the_oldest_without_ever_releasing(self):
        # drop_oldest_late under a pinned watermark: each at-cap offer
        # evicts the oldest buffered item.
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
