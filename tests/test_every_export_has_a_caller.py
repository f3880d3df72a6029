"""Every export has a caller: no ``repro`` name exists only for its tests.

A name in a module's ``__all__`` is public surface someone has to keep
working.  This scans ``src/``, ``examples/`` and ``benchmarks/`` with
:mod:`ast` for a referrer of each exported name: a load of it as a
``Name`` or an ``Attribute``, or a ``from ... import`` of it.  Two
things do not count: a package ``__init__``'s imports (re-exports, not
use) and references inside the name's own top-level ``def`` or
``class``.  The scan matches names, not objects, so an export that
shares its name with a method or attribute in use passes.  The few
exports kept without a caller are listed, each group with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "examples", "benchmarks")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

ALLOWED: dict[str, str] = {
    **dict.fromkeys(
        ("build_instance", "fuse"),
        "the references tests/detect/test_emitter.py compares the lowered "
        "emitter against",
    ),
    **dict.fromkeys(
        ("from_jsonl", "parse_prometheus", "trace_rows_digest"),
        "the reading side of an export format, or a digest tests pin runs "
        "with; ROADMAP item 11's diff command is their first caller",
    ),
    **dict.fromkeys(
        ("make_physical_event", "threshold_intervals", "precision_recall"),
        "scoring against ground truth; no run scores its detections until "
        "ROADMAP item 9 wires it in",
    ),
}


def exports(source: str) -> list[str]:
    """The names in ``source``'s module-level ``__all__``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return [element.value for element in node.value.elts]
    return []


def referrers(
    source: str, own: frozenset[str] = frozenset(), package: bool = False
) -> set[str]:
    """Every name ``source`` refers to.

    ``own`` are the names the module exports: a reference inside the
    top-level definition of the same name is not a caller.  A
    ``package`` module's imports are re-exports and count for nothing.
    """
    tree = ast.parse(source)
    inside: dict[int, str] = {
        id(sub): node.name
        for node in tree.body
        if isinstance(node, _DEFS) and node.name in own
        for sub in ast.walk(node)
    }
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if not package:
                found.update(alias.name for alias in node.names)
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            continue
        if inside.get(id(node)) != name:
            found.add(name)
    return found


def unreferenced(root: Path = ROOT) -> set[str]:
    """Exported names of ``repro`` modules nothing in the tree refers to."""
    exported: dict[Path, frozenset[str]] = {
        path: frozenset(exports(path.read_text(encoding="utf-8")))
        for path in sorted((root / "src" / "repro").rglob("*.py"))
        if path.name != "__init__.py"
    }
    found: set[str] = set()
    for directory in SEARCHED:
        for path in sorted((root / directory).rglob("*.py")):
            found |= referrers(
                path.read_text(encoding="utf-8"),
                own=exported.get(path, frozenset()),
                package=path.name == "__init__.py",
            )
    return set().union(*exported.values()) - found


@pytest.mark.parametrize(
    "source, own, package, expected",
    [
        ("from repro.x import a, b", (), False, {"a", "b"}),
        ("from repro.x import a", (), True, set()),
        ("a(1)\nm.b.c", (), False, {"a", "m", "b", "c"}),
        ("a = 1\nm.b = 2", (), False, {"m"}),
        ("def a():\n    return a()", ("a",), False, set()),
        ("def a():\n    return b()\ndef b():\n    return a()",
         ("a", "b"), False, {"a", "b"}),
        ("class A:\n    def make(self):\n        return A()", ("A",), False,
         set()),
        ("class T:\n    def a(self):\n        return a(self)", ("a",), False,
         {"a", "self"}),
    ],
    ids=[
        "import",
        "package-reexport",
        "name-and-attribute",
        "stores",
        "own-recursion",
        "sibling-call",
        "own-class",
        "same-named-method",
    ],
)
def test_the_scan_finds_referrers(source, own, package, expected):
    assert referrers(source, frozenset(own), package) == expected


@pytest.mark.parametrize(
    "caller, flagged",
    [
        ("src/repro/user.py", set()),
        ("examples/demo.py", set()),
        ("benchmarks/bench_demo.py", set()),
        ("tests/test_demo.py", {"helper"}),
        ("src/repro/__init__.py", {"helper"}),
    ],
    ids=["src", "examples", "benchmarks", "tests-only", "re-export-only"],
)
def test_the_scan_counts_callers_where_it_searches(tmp_path, caller, flagged):
    files = {
        "src/repro/mod.py": '__all__ = ["helper"]\n\n\n'
        "def helper(n):\n    return helper(n - 1) if n else 0\n",
        caller: "from repro.mod import helper\n",
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    assert unreferenced(tmp_path) == flagged


def test_the_scan_reads_all():
    assert exports('"""Doc."""\n__all__ = ["a", "B"]\nx = 1') == ["a", "B"]
    assert exports("x = 1") == []


def test_every_export_has_a_caller():
    missing = unreferenced()
    assert len(ALLOWED) <= 8
    # Equality both ways: a new export without a caller fails, and so
    # does an allowed name that has since gained one.
    assert sorted(missing - ALLOWED.keys()) == []
    assert sorted(ALLOWED.keys() - missing) == []
