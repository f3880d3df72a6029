"""Retention — what the cyclic collector re-walks in a live deployment.

A live run keeps everything it produces: every emitted instance stays in
its observer's ``emitted`` log and in the database, and the trace keeps
a row per hop.  Each full collection re-walks whatever of that the
collector still tracks, so what one retained record costs is paid again
on every generation-2 collection for the rest of the run.  This bench
runs one live ``high_density`` pass the way the ledger's ``live_dense``
workload does — process state frozen with ``gc.freeze()`` before the
system is built, collector on, the system stepped one tick at a time —
and prints:

* the collector's share of the pass, from a ``gc.callbacks`` timer;
* the number of collections per generation and the generation-2 seconds;
* tracked objects the finished run retains, per emitted instance, and
  tracked objects the trace holds, per trace row;
* the time of one full collection of the finished run (best of three).

Run it directly for the medium preset (the ledger's size)::

    PYTHONPATH=src python benchmarks/bench_retention.py --preset medium

``pytest benchmarks/ -q --quick`` runs it once at the small preset.
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.workloads import build_scenario  # noqa: E402

SCENARIO = "high_density"


class CollectorTimer:
    """``gc.callbacks`` hook: seconds and count of collections per generation."""

    def __init__(self):
        self.seconds = [0.0, 0.0, 0.0]
        self.collections = [0, 0, 0]
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter()
            return
        generation = info["generation"]
        self.seconds[generation] += perf_counter() - self._started
        self.collections[generation] += 1

    def __enter__(self) -> "CollectorTimer":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def tracked_under(root: object) -> int:
    """Tracked objects reachable from ``root`` (``root`` excluded), not
    counting classes and whatever only a class reaches.

    An untracked container holds nothing tracked, so the walk follows
    tracked objects only.
    """
    seen = {id(root)}
    stack = [root]
    count = 0
    while stack:
        for referent in gc.get_referents(stack.pop()):
            if (
                id(referent) in seen
                or not gc.is_tracked(referent)
                or isinstance(referent, type)
            ):
                continue
            seen.add(id(referent))
            count += 1
            stack.append(referent)
    return count


def timed_collection() -> float:
    """Seconds one full collection takes."""
    started = perf_counter()
    gc.collect()
    return perf_counter() - started


@dataclass
class Retention:
    preset: str
    wall_s: float
    gc_s: float
    collections: list[int]
    gen2_s: float
    instances: int
    trace_rows: int
    retained: int
    trace_tracked: int
    full_collection_ms: float

    @property
    def gc_share(self) -> float:
        return self.gc_s / self.wall_s

    def lines(self) -> list[str]:
        g0, g1, g2 = self.collections
        return [
            f"[retention] live {SCENARIO} preset={self.preset}: pass "
            f"{self.wall_s:.2f} s, collector {self.gc_s:.3f} s "
            f"({100 * self.gc_share:.1f} %)",
            f"  collections gen0/gen1/gen2 : {g0} / {g1} / {g2} "
            f"(gen2 {self.gen2_s:.3f} s)",
            f"  retained tracked objects   : {self.retained} "
            f"({self.retained / self.instances:.2f} per emitted instance, "
            f"{self.instances} instances)",
            f"  trace tracked objects      : {self.trace_tracked} "
            f"({self.trace_tracked / self.trace_rows:.3f} per row, "
            f"{self.trace_rows} rows)",
            f"  full collection of the run : {self.full_collection_ms:.1f} ms "
            "(best of 3)",
        ]


def measure(preset: str = "medium", seed: int = 0) -> Retention:
    """One live pass, measured as the module docstring describes."""
    # Compiles the scenario's specification texts, as the ledger's
    # set-up does before it freezes.
    build_scenario(SCENARIO, preset=preset, seed=seed)
    gc.collect()
    gc.freeze()
    try:
        baseline = len(gc.get_objects())
        built = build_scenario(SCENARIO, preset=preset, seed=seed)
        system = built.system
        with CollectorTimer() as timer:
            started = perf_counter()
            for tick in range(1, built.params["horizon"] + 1):
                system.run(tick)
            wall_s = perf_counter() - started
        gc.collect()
        retained = len(gc.get_objects()) - baseline
        full_collection_ms = min(timed_collection() for _ in range(3)) * 1e3
        return Retention(
            preset=preset,
            wall_s=wall_s,
            gc_s=sum(timer.seconds),
            collections=timer.collections,
            gen2_s=timer.seconds[2],
            instances=sum(system.instances_by_layer().values()),
            trace_rows=len(system.trace),
            retained=retained,
            trace_tracked=tracked_under(system.trace),
            full_collection_ms=full_collection_ms,
        )
    finally:
        gc.unfreeze()


def test_retention(report, quick):
    result = measure("small" if quick else "medium")
    report("", *result.lines())
    assert result.instances > 0 and result.trace_rows > result.instances
    # A trace row of strings and numbers is one untracked tuple.
    assert result.trace_tracked < 0.05 * result.trace_rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="medium")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    print("\n".join(measure(args.preset, args.seed).lines()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
