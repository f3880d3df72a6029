"""The metrics registry: named counters, gauges and histograms.

One :class:`MetricsRegistry` is the flat, label-addressed metric store
behind the whole observability layer (:mod:`repro.obs`).  Design
constraints, in priority order:

* **deterministic** — iteration (:meth:`MetricsRegistry.collect`),
  snapshots and exports enumerate metric families in creation order and
  label sets in sorted order, so two identical runs produce
  byte-identical exports.  Values derived from wall clocks must be
  registered ``volatile=True``; deterministic exports and digests skip
  them.
* **read-only with respect to the pipeline** — nothing in this module
  draws randomness, reads wall clocks or touches pipeline state: a
  registry can only be *written into* by instrumentation points, so
  attaching one can never perturb a golden digest.
* **mergeable** — :meth:`MetricsRegistry.merge` folds another registry
  (or snapshot) into this one, which is how per-shard registries roll
  up: counters and histogram buckets sum, gauges follow their declared
  merge mode (``"max"`` for levels like occupancy peaks, ``"sum"`` for
  mirrored flow counters, ``"last"`` for plain readings).
* **checkpointable** — :meth:`MetricsRegistry.snapshot` /
  :meth:`MetricsRegistry.restore` capture and reinstall the exact value
  state, with the same family-shape validation discipline the stream
  checkpoints use.

Label keys are free-form, but the canonical ones used by the built-in
instrumentation are ``spec``, ``source``, ``shard`` and ``priority``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.core.errors import ObserverError

__all__ = [
    "DEFAULT_TICK_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSample",
    "MetricsRegistry",
    "RegistrySnapshot",
]

LabelSet = tuple[tuple[str, str], ...]

DEFAULT_TICK_BUCKETS: tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64)
"""Default residency-histogram upper bounds, in ticks (a final +Inf
bucket is implicit).  Fixed at creation: histograms never resize, so
bucket counts merge exactly across shards and checkpoints."""

_GAUGE_MODES = ("max", "sum", "last")


def _label_set(labels: Mapping[str, object]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotone counter (ints or float totals like seconds)."""

    __slots__ = ("value",)

    def __init__(self, value: int | float = 0):
        self.value = value

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ObserverError(f"counter increment cannot be negative: {amount}")
        self.value += amount


class Gauge:
    """Point-in-time reading; merge behavior is declared per family."""

    __slots__ = ("value",)

    def __init__(self, value: int | float = 0):
        self.value = value

    def set(self, value: int | float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram with cumulative-``le`` export semantics.

    ``bounds`` are inclusive upper edges; one overflow (+Inf) bucket is
    appended.  ``counts`` are per-bucket (not cumulative) so merging is
    element-wise addition; exporters cumulate on the way out.
    """

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_TICK_BUCKETS):
        ordered = tuple(bounds)
        if not ordered or list(ordered) != sorted(set(ordered)):
            raise ObserverError(
                f"histogram bounds must be non-empty and strictly "
                f"increasing: {bounds}"
            )
        self.bounds = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.total: int | float = 0
        self.count = 0

    def observe(self, value: int | float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def cumulative(self) -> tuple[int, ...]:
        """Cumulative counts per bound, +Inf last (Prometheus ``le``)."""
        running = 0
        out = []
        for bucket in self.counts:
            running += bucket
            out.append(running)
        return tuple(out)

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile.

        A bucketed estimate (exact only up to bucket resolution), which
        is what the report CLI prints as p50/p95/p99.  Empty histogram
        reports ``0.0``.
        """
        if not 0 <= q <= 1:
            raise ObserverError(f"quantile must be in [0, 1]: {q}")
        if not self.count:
            return 0.0
        rank = q * self.count
        running = 0
        for bound, bucket in zip(self.bounds, self.counts):
            running += bucket
            if running >= rank:
                return float(bound)
        return float("inf")


@dataclass(frozen=True)
class MetricSample:
    """One collected series: a family's metadata plus one label set's value."""

    name: str
    kind: str
    help: str
    labels: LabelSet
    volatile: bool
    value: int | float | None = None
    bounds: tuple[float, ...] | None = None
    counts: tuple[int, ...] | None = None
    total: int | float | None = None
    count: int | None = None


@dataclass(frozen=True)
class RegistrySnapshot:
    """Exact value state of a registry (family shapes + series payloads)."""

    families: tuple[tuple, ...]


class _Family:
    """All series of one metric name (shared kind/help/mode/bounds)."""

    __slots__ = ("name", "kind", "help", "mode", "volatile", "bounds", "series")

    def __init__(self, name, kind, help_text, mode, volatile, bounds):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.mode = mode
        self.volatile = volatile
        self.bounds = bounds
        self.series: dict[LabelSet, Counter | Gauge | Histogram] = {}

    def shape(self) -> tuple:
        return (self.name, self.kind, self.mode, self.volatile, self.bounds)


class MetricsRegistry:
    """Deterministically iterable store of labeled metric families."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    # -- instrument access (get-or-create) -----------------------------

    def counter(
        self,
        name: str,
        help: str = "",
        *,
        volatile: bool = False,
        **labels: object,
    ) -> Counter:
        """The counter series ``name{labels}`` (created on first use).

        ``volatile=True`` marks a wall-clock-derived total (e.g.
        per-spec evaluation seconds); deterministic exports skip it.
        """
        family = self._family(name, "counter", help, "sum", volatile, None)
        return self._series(family, labels)

    def gauge(
        self,
        name: str,
        help: str = "",
        *,
        mode: str = "max",
        volatile: bool = False,
        **labels: object,
    ) -> Gauge:
        """The gauge series ``name{labels}``.

        Args:
            mode: Roll-up rule when registries merge — ``"max"`` (levels:
                peaks, occupancy), ``"sum"`` (mirrored flow counters) or
                ``"last"`` (plain readings; the merged-in value wins).
            volatile: Mark the family wall-clock-derived; deterministic
                exports and digests exclude it.
        """
        if mode not in _GAUGE_MODES:
            raise ObserverError(
                f"unknown gauge merge mode {mode!r}; pick one of {_GAUGE_MODES}"
            )
        family = self._family(name, "gauge", help, mode, volatile, None)
        return self._series(family, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        buckets: tuple[float, ...] = DEFAULT_TICK_BUCKETS,
        **labels: object,
    ) -> Histogram:
        """The histogram series ``name{labels}`` (fixed bucket bounds)."""
        family = self._family(
            name, "histogram", help, "sum", False, tuple(buckets)
        )
        return self._series(family, labels)

    def _family(self, name, kind, help_text, mode, volatile, bounds) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help_text, mode, volatile, bounds)
            self._families[name] = family
            return family
        if family.kind != kind:
            raise ObserverError(
                f"metric {name!r} is a {family.kind}, not a {kind}"
            )
        if kind == "gauge" and family.mode != mode:
            raise ObserverError(
                f"gauge {name!r} was created with merge mode "
                f"{family.mode!r}, not {mode!r}"
            )
        if kind == "histogram" and family.bounds != bounds:
            raise ObserverError(
                f"histogram {name!r} was created with buckets "
                f"{family.bounds}, not {bounds}"
            )
        return family

    @staticmethod
    def _series(family: _Family, labels: Mapping[str, object]):
        key = _label_set(labels)
        instrument = family.series.get(key)
        if instrument is None:
            if family.kind == "counter":
                instrument = Counter()
            elif family.kind == "gauge":
                instrument = Gauge()
            else:
                instrument = Histogram(family.bounds)
            family.series[key] = instrument
        return instrument

    # -- deterministic iteration ---------------------------------------

    def collect(self) -> Iterator[MetricSample]:
        """Every series, families in creation order, labels sorted."""
        for family in self._families.values():
            for labels in sorted(family.series):
                instrument = family.series[labels]
                if family.kind == "histogram":
                    yield MetricSample(
                        name=family.name,
                        kind=family.kind,
                        help=family.help,
                        labels=labels,
                        volatile=family.volatile,
                        bounds=instrument.bounds,
                        counts=tuple(instrument.counts),
                        total=instrument.total,
                        count=instrument.count,
                    )
                else:
                    yield MetricSample(
                        name=family.name,
                        kind=family.kind,
                        help=family.help,
                        labels=labels,
                        volatile=family.volatile,
                        value=instrument.value,
                    )

    def __len__(self) -> int:
        return sum(len(family.series) for family in self._families.values())

    # -- checkpoint / restore ------------------------------------------

    def snapshot(self) -> RegistrySnapshot:
        """Capture every family's shape and series payloads."""
        families = []
        for family in self._families.values():
            if family.kind == "histogram":
                series = tuple(
                    (
                        labels,
                        (
                            tuple(instrument.counts),
                            instrument.total,
                            instrument.count,
                        ),
                    )
                    for labels, instrument in family.series.items()
                )
            else:
                series = tuple(
                    (labels, instrument.value)
                    for labels, instrument in family.series.items()
                )
            families.append((family.shape(), family.help, series))
        return RegistrySnapshot(families=tuple(families))

    def restore(self, snapshot: RegistrySnapshot) -> None:
        """Reinstall the exact captured value state, **in place**.

        Instrument objects are mutated, never replaced: instrumentation
        points cache their series handles (the tracer's residency
        histograms, the runtime's stream series), and those handles must
        stay live across a checkpoint restore.  Series that exist here
        but not in the snapshot reset to zero — that is exactly the
        value they implicitly held when the snapshot was taken.  A
        family whose shape (kind/mode/buckets) disagrees with the
        snapshot's is a wiring bug and is rejected.
        """
        snapshot_names = set()
        for shape, help_text, series in snapshot.families:
            name, kind, mode, volatile, bounds = shape
            snapshot_names.add(name)
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text, mode, volatile, bounds)
                self._families[name] = family
            elif family.shape() != shape:
                raise ObserverError(
                    f"cannot restore metric {name!r}: family shape "
                    f"{family.shape()} does not match the snapshot's "
                    f"{shape}"
                )
            captured = dict(series)
            for labels, instrument in family.series.items():
                if labels not in captured:
                    self._reset(kind, instrument)
            for labels, payload in series:
                instrument = self._series(family, dict(labels))
                if kind == "histogram":
                    counts, total, count = payload
                    instrument.counts = list(counts)
                    instrument.total = total
                    instrument.count = count
                else:
                    instrument.value = payload
        for name, family in self._families.items():
            if name not in snapshot_names:
                for instrument in family.series.values():
                    self._reset(family.kind, instrument)

    @staticmethod
    def _reset(kind: str, instrument) -> None:
        if kind == "histogram":
            instrument.counts = [0] * len(instrument.counts)
            instrument.total = 0
            instrument.count = 0
        else:
            instrument.value = 0

    # -- shard roll-up --------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (per-shard roll-up).

        Counters and histogram buckets sum; gauges follow their family
        merge mode.  Families present only in ``other`` are adopted
        whole; a family present in both must agree on kind, mode and
        bucket bounds (a mismatch is a wiring bug, not data).
        """
        for theirs in other._families.values():
            mine = self._families.get(theirs.name)
            if mine is None:
                mine = _Family(
                    theirs.name,
                    theirs.kind,
                    theirs.help,
                    theirs.mode,
                    theirs.volatile,
                    theirs.bounds,
                )
                self._families[theirs.name] = mine
            elif mine.shape() != theirs.shape():
                raise ObserverError(
                    f"cannot merge metric {theirs.name!r}: family shapes "
                    f"differ ({mine.shape()} vs {theirs.shape()})"
                )
            for labels, instrument in theirs.series.items():
                target = self._series(mine, dict(labels))
                if mine.kind == "histogram":
                    for i, bucket in enumerate(instrument.counts):
                        target.counts[i] += bucket
                    target.total += instrument.total
                    target.count += instrument.count
                elif mine.kind == "counter":
                    target.value += instrument.value
                elif mine.mode == "sum":
                    target.value += instrument.value
                elif mine.mode == "max":
                    if instrument.value > target.value:
                        target.value = instrument.value
                else:  # "last"
                    target.value = instrument.value

    @classmethod
    def merged(cls, parts: Iterable["MetricsRegistry"]) -> "MetricsRegistry":
        """A fresh registry holding the roll-up of ``parts``."""
        total = cls()
        for part in parts:
            total.merge(part)
        return total
