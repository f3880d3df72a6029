"""One clock: nothing under ``src/repro`` reads a wall or CPU clock.

Every value the library computes is in the tick domain, so two runs of
one input produce identical bytes, and time is measured by the
performance ledger's span clock, from outside.  This scans every module
with :mod:`ast` for an import or call of a clock from :mod:`time`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

CLOCKS = frozenset(
    name + suffix
    for name in ("perf_counter", "time", "monotonic", "process_time")
    for suffix in ("", "_ns")
)


def clock_uses(source: str) -> list[str]:
    """Every clock ``source`` imports from, or calls on, :mod:`time`."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "time"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            found += [
                f"from time import {alias.name}"
                for alias in node.names
                if alias.name in CLOCKS
            ]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in CLOCKS
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from time import perf_counter", ["from time import perf_counter"]),
        ("from time import sleep, monotonic_ns",
         ["from time import monotonic_ns"]),
        ("import time\nstart = time.time()", ["time.time"]),
        ("import time as clock\nclock.process_time()",
         ["clock.process_time"]),
        ("import time\ntime.sleep(1)", []),
        ("record.time + event.perf_counter", []),
    ],
)
def test_the_scan_finds_clocks(source, expected):
    assert clock_uses(source) == expected


def test_no_module_reads_a_clock():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50
    offenders = {
        str(path.relative_to(SRC)): uses
        for path in modules
        if (uses := clock_uses(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}
