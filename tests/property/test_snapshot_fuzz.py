"""Snapshot fuzz: every declared field of every checkpoint record, out of
its domain (hypothesis).

One table below lists, per restorable part, how to build it with some
state, how to build a fresh one the same way, and the kind of value each
field of its snapshot record holds.  The kinds are this file's own: a
count, a tick or ``None``, a bool, a tuple, a map, a record, or the
part's configuration, with the out-of-domain values of each drawn from
bools, negatives, floats, strings, ``None`` and the wrong container.
For every draw the part must raise ``ObserverError`` and keep its
``snapshot()``; its own snapshot must still restore into a fresh part
built the same way, with an equal snapshot.  The admission controller's
bucket states are fuzzed one level down, tokens and tick apart, and so
are the telemetry's trace rows, stamp by stamp.
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.errors import ObserverError
from repro.detect.engine import DetectionEngine
from repro.obs.tracing import Telemetry
from repro.stream import (
    AdmissionController,
    AdmissionLimits,
    Quarantine,
    RedeliveryDeduper,
    ReorderBuffer,
    ReplayObserver,
    WatermarkTracker,
)
from tests.stream.test_checkpoint import (
    _admission,
    _dedup,
    _half_run,
    _quarantine,
    _reorder,
    _telemetry,
    _tracker,
    feed,
    pair_spec,
    stream,
)
from tests.stream.test_replay import PROFILE, delivery_steps, near_pair

_CONTAINERS = (
    st.lists(st.integers(), max_size=3)
    | st.tuples(st.integers())
    | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
    | st.frozensets(st.integers(), max_size=2)
)
_SCALARS = st.booleans() | st.floats() | st.text(max_size=5) | st.none()

BAD = {
    "count": _SCALARS | st.integers(max_value=-1) | _CONTAINERS,
    "tick or None": st.booleans() | st.floats() | st.text(max_size=5)
    | _CONTAINERS,
    "bool": st.integers() | st.floats() | st.text(max_size=5) | st.none()
    | _CONTAINERS,
    "tuple": _SCALARS | st.integers()
    | st.lists(st.integers(), max_size=3)
    | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    "map": _SCALARS | st.integers() | st.tuples(st.text(), st.integers())
    | st.lists(st.tuples(st.text(max_size=3), st.integers()), max_size=2),
    "record": _SCALARS | st.integers() | _CONTAINERS,
    "config": _SCALARS | st.integers(max_value=-1) | _CONTAINERS,
}


def _engine():
    engine = DetectionEngine([pair_spec()])
    feed(engine, stream(10))
    return engine


def _runtime():
    return _half_run(
        6,
        engine=DetectionEngine([pair_spec()]),
        dedup=RedeliveryDeduper(),
        quarantine=Quarantine(),
    )


def _fresh_runtime():
    return _half_run(
        0,
        engine=DetectionEngine([pair_spec()]),
        dedup=RedeliveryDeduper(),
        quarantine=Quarantine(),
    )


def _replay(steps=8):
    profile = replace(PROFILE, specs=(near_pair(),))
    replayer = ReplayObserver(profile, lateness=0)
    replayer.runtime.register_source("replay")
    for group in delivery_steps()[:steps]:
        replayer.ingest(group)
    return replayer


def _admission_fresh():
    return AdmissionController(
        AdmissionLimits(rate=0.5, burst=1.0, max_deferred=1)
    )


# name: (a part with state, a fresh part built the same way,
#        {snapshot field: kind}).
PARTS = {
    "quarantine": (_quarantine, Quarantine, {
        "items": "tuple", "count": "count",
    }),
    "dedup": (_dedup, RedeliveryDeduper, {
        "high_water": "map", "in_flight": "map",
        "duplicates_dropped": "count",
    }),
    "admission": (_admission, _admission_fresh, {
        "limits": "config", "shedding": "config", "deferred": "tuple",
        "buckets": "map", "shed_total": "count", "deferred_total": "count",
    }),
    "reorder": (_reorder, ReorderBuffer, {
        "pending": "tuple", "late": "tuple", "late_count": "count",
        "released_through": "tick or None",
        "highest_offered": "tick or None", "peak_occupancy": "count",
    }),
    "watermark": (_tracker, lambda: WatermarkTracker(lateness=2), {
        "lateness": "config", "max_seen": "map", "ended": "bool",
    }),
    "telemetry": (_telemetry, lambda: Telemetry.create(trace_every=1), {
        "trace_every": "config", "offered": "count", "active": "tuple",
        "completed": "tuple", "residency": "tuple", "sampled": "count",
        "finished": "count", "discarded": "tuple", "now": "tick or None",
    }),
    "engine": (_engine, lambda: DetectionEngine([pair_spec()]), {
        "spec_ids": "config", "windows": "map", "seen": "map",
        "last_match": "map", "watermark": "tick or None",
        "stats": "record", "tallies": "map",
    }),
    "runtime": (_runtime, _fresh_runtime, {
        "stages": "map", "stats": "record",
    }),
    "replay": (_replay, lambda: _replay(0), {
        "runtime": "record", "seq": "map", "emitted_count": "count",
    }),
}


def _same(a, b):
    return type(a) is type(b) and a == b


def _restore(part, snapshot):
    # A replay observer rewinds itself through rollback, the crash
    # recovery path; every other part through restore.
    if isinstance(part, ReplayObserver):
        part.rollback(snapshot)
    else:
        part.restore(snapshot)


def _round_trip(name, snapshot):
    """A fresh part built the same way takes ``snapshot`` and gives it
    back (a restored replay starts its emission log empty)."""
    fresh = PARTS[name][1]()
    fresh.restore(snapshot)
    expected = snapshot
    if name == "replay":
        expected = replace(snapshot, emitted_count=0)
    assert fresh.snapshot() == expected


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_a_field_out_of_its_domain_is_refused_and_changes_nothing(data):
    name = data.draw(st.sampled_from(sorted(PARTS)), label="part")
    build, _, kinds = PARTS[name]
    field = data.draw(st.sampled_from(sorted(kinds)), label="field")
    part = build()
    before = part.snapshot()
    bad = data.draw(BAD[kinds[field]], label="value")
    assume(not _same(bad, getattr(before, field)))
    record = type(before).__name__
    with pytest.raises(ObserverError, match=f"{record}.{field} "):
        _restore(part, replace(before, **{field: bad}))
    assert part.snapshot() == before
    _round_trip(name, before)


_TOKENS = (
    st.booleans() | st.integers(max_value=-1) | st.integers(min_value=2)
    | st.floats().filter(lambda tokens: not 0 <= tokens <= 1.0)
    | st.text(max_size=3) | st.none() | _CONTAINERS
)
_BUCKET_TICK = (
    st.booleans() | st.floats() | st.text(max_size=3) | _CONTAINERS
)


@settings(max_examples=100, deadline=None)
@given(
    spoil=st.sampled_from(["tokens", "tick"]),
    tokens=_TOKENS,
    tick=_BUCKET_TICK,
)
def test_an_out_of_domain_bucket_state_is_refused(spoil, tokens, tick):
    controller = _admission()
    before = controller.snapshot()
    ((source, (good_tokens, good_tick)),) = before.buckets.items()
    state = (tokens, good_tick) if spoil == "tokens" else (good_tokens, tick)
    with pytest.raises(ObserverError, match="AdmissionSnapshot.buckets"):
        controller.restore(replace(before, buckets={source: state}))
    assert controller.snapshot() == before
    _round_trip("admission", before)


_NOT_A_TICK = (
    st.booleans() | st.floats() | st.text(max_size=3) | st.none() | _CONTAINERS
)
_NOT_A_NAME = (
    st.booleans() | st.floats() | st.integers() | st.none() | _CONTAINERS
)


def _spoil(row: tuple, position: int, bad) -> tuple:
    return row[:position] + (bad,) + row[position + 1:]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_an_out_of_domain_trace_row_is_refused(data):
    """Trace rows are fuzzed one level down: the source, seq and two
    ticks of an in-flight row, and the stage name and two ticks of each
    of a completed row's three spans."""
    telemetry = _telemetry()
    before = telemetry.snapshot()
    field = data.draw(st.sampled_from(["active", "completed"]), label="field")
    (row,) = getattr(before, field)
    if field == "active":
        position = data.draw(st.integers(0, 3), label="position")
        bad = data.draw(
            (_NOT_A_NAME, BAD["count"], _NOT_A_TICK, _NOT_A_TICK)[position],
            label="value",
        )
        spoiled = _spoil(row, position, bad)
    else:
        source, seq, spans = row
        stage = data.draw(st.integers(0, len(spans) - 1), label="stage")
        position = data.draw(st.integers(0, 2), label="position")
        name = spans[stage][0]
        bad = data.draw(
            _NOT_A_NAME | st.text(max_size=15).filter(lambda n: n != name)
            if position == 0 else _NOT_A_TICK,
            label="value",
        )
        spans = _spoil(spans, stage, _spoil(spans[stage], position, bad))
        spoiled = (source, seq, spans)
    with pytest.raises(ObserverError, match=f"TelemetrySnapshot.{field} "):
        telemetry.restore(replace(before, **{field: (spoiled,)}))
    assert telemetry.snapshot() == before
    _round_trip("telemetry", before)


@pytest.mark.parametrize("name", sorted(PARTS))
def test_every_part_has_state_to_fuzz(name):
    """The builders leave something in every part, so a refusal that
    kept ``snapshot()`` is not vacuous."""
    build, fresh, kinds = PARTS[name]
    snapshot = build().snapshot()
    assert snapshot != fresh().snapshot()
    assert set(kinds) == {spec.name for spec in fields(snapshot)}
