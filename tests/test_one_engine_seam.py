"""One engine seam: only the replay observer reaches the sharded backend.

Live observers (motes, sinks, CCUs) run one
:class:`~repro.detect.engine.DetectionEngine` each, and
:class:`~repro.stream.replay.ReplayObserver` is the one place that can
build a :class:`~repro.shard.engine.ShardedDetectionEngine`.  This scans
every module outside :mod:`repro.shard` with :mod:`ast` for an import of
it, so an engine choice cannot be threaded back through the system.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

SEAM = "stream/replay.py"
"""The one module outside ``repro/shard`` allowed to import it."""


def shard_imports(source: str) -> list[str]:
    """Every import of :mod:`repro.shard` or a submodule in ``source``."""

    def is_shard(module: str | None) -> bool:
        return module is not None and (
            module == "repro.shard" or module.startswith("repro.shard.")
        )

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if is_shard(alias.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if is_shard(node.module):
                found.append(node.module)
            elif node.module == "repro":
                found += [
                    f"repro.{alias.name}"
                    for alias in node.names
                    if alias.name == "shard"
                ]
    return found


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from repro.shard.engine import X", ["repro.shard.engine"]),
        ("import repro.shard", ["repro.shard"]),
        ("from repro import shard, stream", ["repro.shard"]),
        ("def f():\n    from repro.shard import X", ["repro.shard"]),
        ("from repro.sharding import X", []),
        ('"""See :mod:`repro.shard`."""', []),
    ],
)
def test_the_scan_finds_shard_imports(source, expected):
    assert shard_imports(source) == expected


def test_only_the_replay_observer_imports_the_sharded_backend():
    modules = sorted(
        path
        for path in SRC.rglob("*.py")
        if path.relative_to(SRC).parts[0] != "shard"
    )
    assert len(modules) > 50
    importers = {
        path.relative_to(SRC).as_posix()
        for path in modules
        if shard_imports(path.read_text(encoding="utf-8"))
    }
    assert importers == {SEAM}
