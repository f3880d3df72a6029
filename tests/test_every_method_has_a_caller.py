"""Every method has a caller: no ``repro.stream`` or ``repro.obs`` method
or property exists only for its tests.

A public method is surface someone has to keep working, so some code
should use it.  This scans ``src/``, ``examples/`` and ``benchmarks/``
with :mod:`ast` for a reference to each public method and property of
each public class (listed in its module's ``__all__``) of
:data:`PACKAGES`: a load of its name as a ``Name`` or an ``Attribute``,
or a string constant equal to it (the performance ledger names the
methods it wraps as strings).  A reference inside the method's own
definition does not count.  The scan matches names, not objects, so a
method that shares its name with another one in use passes.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from tests.test_every_export_has_a_caller import exports

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "examples", "benchmarks")
PACKAGES = ("stream", "obs")

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def methods(source: str) -> set[str]:
    """``"Class.method"`` for each public method or property of each
    public class ``source`` defines."""
    public = set(exports(source))
    return {
        f"{node.name}.{method.name}"
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and node.name in public
        for method in node.body
        if isinstance(method, _FUNCTIONS) and not method.name.startswith("_")
    }


def references(source: str) -> set[tuple[str, str | None]]:
    """``(name, own)`` for every name ``source`` refers to.

    ``own`` is ``"Class.method"`` when the reference sits inside the
    definition of a method of that same name, and ``None`` otherwise.
    """
    tree = ast.parse(source)
    inside: dict[int, tuple[str, str]] = {
        id(sub): (node.name, method.name)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for method in node.body
        if isinstance(method, _FUNCTIONS)
        for sub in ast.walk(method)
    }
    found: set[tuple[str, str | None]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        cls, method = inside.get(id(node), (None, None))
        found.add((name, f"{cls}.{name}" if method == name else None))
    return found


def uncalled(root: Path = ROOT) -> set[str]:
    """``"Class.method"`` for each method of :data:`PACKAGES` nothing in
    the searched tree refers to outside its own definition."""
    defined: set[str] = set()
    for package in PACKAGES:
        for path in sorted((root / "src" / "repro" / package).rglob("*.py")):
            defined |= methods(path.read_text(encoding="utf-8"))
    owners: dict[str, set[str | None]] = {}
    for directory in SEARCHED:
        for path in sorted((root / directory).rglob("*.py")):
            for name, own in references(path.read_text(encoding="utf-8")):
                owners.setdefault(name, set()).add(own)
    return {
        qualified
        for qualified in defined
        if not owners.get(qualified.split(".")[1], set()) - {qualified}
    }


_MODULE = '__all__ = ["Box"]\n\n\nclass Box:\n'


@pytest.mark.parametrize(
    "source, expected",
    [
        (_MODULE + "    def put(self):\n        pass\n"
         "    @property\n    def size(self):\n        return 0\n",
         {"Box.put", "Box.size"}),
        (_MODULE + "    def _put(self):\n        pass\n"
         "    def __len__(self):\n        return 0\n", set()),
        ("class Box:\n    def put(self):\n        pass\n", set()),
    ],
    ids=["method-and-property", "private", "unexported"],
)
def test_the_scan_reads_methods(source, expected):
    assert methods(source) == expected


@pytest.mark.parametrize(
    "source, expected",
    [
        ("box.put(1)", {("box", None), ("put", None)}),
        ('patch(Box, "put")', {("patch", None), ("Box", None),
                               ("put", None)}),
        ("box.put = 1", {("box", None)}),
        ("class Box:\n    def put(self):\n        return self.put()\n",
         {("self", None), ("put", "Box.put")}),
        ("class Box:\n    def take(self):\n        return self.put()\n",
         {("self", None), ("put", None)}),
    ],
    ids=["attribute", "string", "store", "own-recursion", "sibling-call"],
)
def test_the_scan_finds_references(source, expected):
    assert references(source) == expected


@pytest.mark.parametrize(
    "caller, text, flagged",
    [
        ("examples/demo.py", "box.put()", set()),
        ("benchmarks/bench_demo.py", 'wrap(Box, "put")', set()),
        ("src/repro/user.py", "box.put()", set()),
        ("tests/test_demo.py", "box.put()", {"Box.put"}),
        ("src/repro/stream/mod.py", "", {"Box.put"}),
    ],
    ids=["examples", "benchmarks-string", "src", "tests-only",
         "own-definition-only"],
)
def test_the_scan_counts_callers_where_it_searches(
    tmp_path, caller, text, flagged
):
    files = {
        "src/repro/stream/mod.py": _MODULE
        + "    def put(self):\n        return self.put()\n"
    }
    files[caller] = files.get(caller, "") + text + "\n"
    for name, content in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    assert uncalled(tmp_path) == flagged


def test_every_method_has_a_caller():
    assert sorted(uncalled()) == []
