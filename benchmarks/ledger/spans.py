"""In-memory span recorder for the ledger's traced run.

The ledger measures every layer from outside: :meth:`SpanRecorder.patch`
swaps a public method of a ``src/`` class for a wrapper that records one
span ``(name, start_ns, end_ns, parent, step)`` per call and restores the
original on :meth:`SpanRecorder.unpatch`.  Nothing under ``src/`` knows it
is being traced, and the untraced run never imports this module's wrappers
into the hot path.

Spans live in one flat ``array('q')`` (five slots each) until the run
ends; :meth:`SpanRecorder.totals` folds them into per-name call counts,
inclusive time and self time (a span's duration minus the part its child
spans cover), and :meth:`SpanRecorder.write_jsonl` dumps them.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Iterator

__all__ = ["SpanRecorder", "SpanTotals"]

_WIDTH = 5  # name id, start ns, end ns, parent span index, step id


@dataclass
class SpanTotals:
    """Aggregate of every span sharing one name."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


class SpanRecorder:
    """Records nested call spans; single-threaded by construction."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._rows = array("q")
        self._open = -1
        self._patched: list[tuple[type, str, object]] = []
        self.step = -1
        """Identifier shared by the spans of one delivery step / tick;
        the driver loop sets it before each step."""

    def __len__(self) -> int:
        return len(self._rows) // _WIDTH

    # -- recording -----------------------------------------------------

    def wrap(self, fn: Callable, name: str) -> Callable:
        """Return ``fn`` wrapped so every call records a span ``name``."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        rows = self._rows
        clock = perf_counter_ns

        def traced(*args, **kwargs):
            # The row is reserved on entry so children index above their
            # parent and can name it before it has an end stamp.
            base = len(rows)
            parent = self._open
            rows.extend((name_id, 0, 0, parent, self.step))
            self._open = base // _WIDTH
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rows[base + 2] = clock()
                rows[base + 1] = start
                self._open = parent

        return traced

    def patch(self, cls: type, attr: str, name: str) -> None:
        """Trace every call of ``cls.attr`` (all instances) as ``name``."""
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name))

    def unpatch(self) -> None:
        """Restore every method :meth:`patch` replaced."""
        while self._patched:
            cls, attr, original = self._patched.pop()
            setattr(cls, attr, original)

    # -- reading -------------------------------------------------------

    def spans(self) -> Iterator[tuple[str, int, int, int, int]]:
        """``(name, start_ns, end_ns, parent, step)`` in start order."""
        rows = self._rows
        names = self.names
        for base in range(0, len(rows), _WIDTH):
            yield (
                names[rows[base]],
                rows[base + 1],
                rows[base + 2],
                rows[base + 3],
                rows[base + 4],
            )

    def totals(self) -> dict[str, SpanTotals]:
        """Per-name calls, inclusive time and self time."""
        rows = self._rows
        count = len(self)
        child_ns = [0] * count
        out = {name: SpanTotals() for name in self.names}
        by_id = [out[name] for name in self.names]
        # Children start after their parent, so a reverse sweep has every
        # span's child time complete by the time the span itself is read.
        for index in range(count - 1, -1, -1):
            base = index * _WIDTH
            duration = rows[base + 2] - rows[base + 1]
            parent = rows[base + 3]
            if parent >= 0:
                child_ns[parent] += duration
            entry = by_id[rows[base]]
            entry.calls += 1
            entry.total_ns += duration
            entry.self_ns += duration - child_ns[index]
        return out

    def root_ns(self) -> int:
        """Time covered by spans that have no parent."""
        rows = self._rows
        return sum(
            rows[base + 2] - rows[base + 1]
            for base in range(0, len(rows), _WIDTH)
            if rows[base + 3] < 0
        )

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, step) in enumerate(
                self.spans()
            ):
                handle.write(
                    json.dumps(
                        {
                            "span": index,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "step": step,
                        }
                    )
                )
                handle.write("\n")
