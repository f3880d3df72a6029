"""Every method has a caller: no ``repro`` method or property exists
only for its tests.

A public method is surface someone has to keep working, so some code
should use it.  This scans ``src/``, ``examples/`` and ``benchmarks/``
with :mod:`ast` for a reference to each public method and property of
each public class (listed in its module's ``__all__``) of every module
under ``src/repro`` except the packages in :data:`EXCLUDED`: a load of
its name as an ``Attribute`` (``thing.method``), or a string constant
equal to it (the performance ledger names the methods it wraps as
strings).  A bare name does not count: a local variable or parameter
that shares a method's name is not a call of it.  A reference inside
the method's own definition does not count either.  The scan matches
names, not objects, so a method that shares its name with another
method or attribute in use passes.  The few methods kept without a
caller are listed in :data:`ALLOWED` with their reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from tests.test_every_export_has_a_caller import exports

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "examples", "benchmarks")
EXCLUDED: dict[str, str] = {"shard": "deleted whole by ROADMAP item 2"}

ALLOWED: dict[str, str] = dict.fromkeys(
    (
        "PhysicalWorld.record_ground_truth",
        "PhysicalWorld.ground_truth",
        "FireModel.is_burning_at",
        "FireModel.state_of",
        "MatchResult.timing_errors",
        "MatchResult.localization_errors",
    ),
    "ground truth of physical events (Eq. 5.1) and its scoring, which "
    "ROADMAP item 9 wires into every family; item 9 deletes them if no "
    "family's truth can be stated",
)

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
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        cls, method = inside.get(id(node), (None, None))
        found.add((name, f"{cls}.{name}" if method == name else None))
    return found


def disagreements(
    root: Path = ROOT, allowed: dict[str, str] = ALLOWED
) -> dict[str, list[str]]:
    """Where :func:`uncalled` and ``allowed`` differ, both ways."""
    missing = uncalled(root)
    return {
        "uncalled": sorted(missing - allowed.keys()),
        "allowed but called": sorted(allowed.keys() - missing),
    }


def uncalled(root: Path = ROOT) -> set[str]:
    """``"Class.method"`` for each method of a ``repro`` module outside
    :data:`EXCLUDED` that nothing in the searched tree refers to outside
    its own definition."""
    package = root / "src" / "repro"
    defined: set[str] = set()
    for path in sorted(package.rglob("*.py")):
        if path.relative_to(package).parts[0] not in EXCLUDED:
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
        ("box.put(1)", {("put", None)}),
        ('patch(Box, "put")', {("put", None)}),
        ("box.put = 1", set()),
        ("class Box:\n    def put(self):\n        return self.put()\n",
         {("put", "Box.put")}),
        ("class Box:\n    def take(self):\n        return self.put()\n",
         {("put", None)}),
        ("def take(put):\n    cumulative = put + 1\n    return cumulative\n",
         set()),
    ],
    ids=["attribute", "string", "store", "own-recursion", "sibling-call",
         "local-variable"],
)
def test_the_scan_finds_references(source, expected):
    assert references(source) == expected


def write_tree(root: Path, files: dict[str, str]) -> None:
    for name, content in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")


_STREAM = "src/repro/stream/mod.py"


@pytest.mark.parametrize(
    "definer, caller, text, flagged",
    [
        (_STREAM, "examples/demo.py", "box.put()", set()),
        (_STREAM, "benchmarks/bench_demo.py", 'wrap(Box, "put")', set()),
        (_STREAM, "src/repro/user.py", "box.put()", set()),
        (_STREAM, "tests/test_demo.py", "box.put()", {"Box.put"}),
        (_STREAM, _STREAM, "", {"Box.put"}),
        ("src/repro/mod.py", "tests/test_demo.py", "box.put()",
         {"Box.put"}),
        ("src/repro/stream/sub/mod.py", "tests/test_demo.py", "box.put()",
         {"Box.put"}),
        ("src/repro/shard/mod.py", "tests/test_demo.py", "box.put()",
         set()),
    ],
    ids=["examples", "benchmarks-string", "src", "tests-only",
         "own-definition-only", "top-level-module", "nested-subpackage",
         "excluded-package"],
)
def test_the_scan_counts_callers_where_it_searches(
    tmp_path, definer, caller, text, flagged
):
    files = {definer: _MODULE + "    def put(self):\n        return self.put()\n"}
    files[caller] = files.get(caller, "") + text + "\n"
    write_tree(tmp_path, files)
    assert uncalled(tmp_path) == flagged


@pytest.mark.parametrize(
    "caller, expected",
    [
        ("tests/test_demo.py", {"uncalled": [], "allowed but called": []}),
        ("examples/demo.py",
         {"uncalled": [], "allowed but called": ["Box.put"]}),
    ],
    ids=["still-uncalled", "gained-a-caller"],
)
def test_an_allowed_method_that_gains_a_caller_is_reported(
    tmp_path, caller, expected
):
    write_tree(tmp_path, {
        _STREAM: _MODULE + "    def put(self):\n        pass\n",
        caller: "box.put()\n",
    })
    assert disagreements(tmp_path, {"Box.put": "a reason"}) == expected


def test_every_method_has_a_caller():
    # Equality both ways: a new method without a caller fails, and so
    # does an allowed one that has since gained a caller.
    assert disagreements() == {"uncalled": [], "allowed but called": []}
