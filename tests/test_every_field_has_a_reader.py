"""Every field has a reader: no ``repro`` object stores a fact that only
its tests read.

State that nothing reads is kept in step, snapshotted and documented for
no one.  This scans every module under ``src/repro`` except the packages
in :data:`EXCLUDED` for the facts each class stores: an attribute one of
its methods assigns on ``self`` (``self.x = ...``, ``self.x: T = ...``,
``self.x += ...``), and an annotated field of its body (a dataclass or
``NamedTuple`` field, but not a ``ClassVar``).  Each fact needs a read
in ``src/``, ``examples/`` or ``benchmarks/``: a load of its name as an
``Attribute`` (``thing.x``), or a string constant equal to it
(``getattr(thing, "x")``).  Three loads do not count, because they only
write: the receiver of a mutating call (``self.x.append(...)`` and the
other names in :data:`MUTATORS`), the target of an augmented assignment
(``self.x += 1``) and a subscript store (``self.x[k] = v``).  A field
declared with ``declared(...)`` counts as read, because
:func:`repro.core.checkpoint.check` reads every such field of a
snapshot.  The scan matches names, not objects, so a fact that shares
its name with another one in use passes.  The few facts kept without a
reader are listed in :data:`ALLOWED` with their reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "examples", "benchmarks")
EXCLUDED: dict[str, str] = {"shard": "deleted whole by ROADMAP item 2"}

MUTATORS = frozenset(
    {"append", "extend", "add", "update", "clear", "appendleft", "discard",
     "remove", "insert"}
)

ALLOWED: dict[str, str] = dict.fromkeys(
    ("ScenarioSpec.description", "ScenarioSpec.paper_section"),
    "the catalog record tests/test_registry.py requires of every family",
)

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _self_targets(target: ast.expr) -> list[str]:
    """The attribute names ``target`` assigns on ``self``."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for item in target.elts for name in _self_targets(item)]
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return [target.attr]
    return []


def _is_declared(value: ast.expr | None) -> bool:
    return (
        isinstance(value, ast.Call)
        and ast.unparse(value.func).split(".")[-1] == "declared"
    )


def facts(source: str) -> tuple[set[str], set[str]]:
    """``("Class.name", ...)`` for each fact ``source``'s classes store,
    and the subset declared with ``declared(...)``."""
    stored: set[str] = set()
    declared: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for statement in node.body:
            if (
                isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
                and "ClassVar" not in ast.unparse(statement.annotation)
            ):
                name = f"{node.name}.{statement.target.id}"
                stored.add(name)
                if _is_declared(statement.value):
                    declared.add(name)
            elif isinstance(statement, _FUNCTIONS):
                for sub in ast.walk(statement):
                    if isinstance(sub, ast.Assign):
                        targets = sub.targets
                    elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                        targets = [sub.target]
                    else:
                        continue
                    stored |= {
                        f"{node.name}.{name}"
                        for target in targets
                        for name in _self_targets(target)
                    }
    return stored, declared


def _writes_only(node: ast.Attribute, parents: dict[int, ast.AST]) -> bool:
    """Whether the load ``node`` only feeds a write: a mutating call on
    it, or a subscript store into it."""
    parent = parents.get(id(node))
    if isinstance(parent, ast.Subscript) and parent.value is node:
        return not isinstance(parent.ctx, ast.Load)
    if isinstance(parent, ast.Attribute) and parent.attr in MUTATORS:
        call = parents.get(id(parent))
        return isinstance(call, ast.Call) and call.func is parent
    return False


def reads(source: str) -> set[str]:
    """Every name ``source`` reads as an attribute or names in a string."""
    tree = ast.parse(source)
    parents = {
        id(child): node
        for node in ast.walk(tree)
        for child in ast.iter_child_nodes(node)
    }
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if not _writes_only(node, parents):
                found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def unread(root: Path = ROOT) -> set[str]:
    """``"Class.name"`` for each fact a ``repro`` module outside
    :data:`EXCLUDED` stores that nothing in the searched tree reads."""
    package = root / "src" / "repro"
    stored: set[str] = set()
    read: set[str] = set()
    for path in sorted(package.rglob("*.py")):
        if path.relative_to(package).parts[0] not in EXCLUDED:
            mine, declared = facts(path.read_text(encoding="utf-8"))
            stored |= mine
            read |= declared
    names: set[str] = set()
    for directory in SEARCHED:
        for path in sorted((root / directory).rglob("*.py")):
            names |= reads(path.read_text(encoding="utf-8"))
    return {
        fact for fact in stored - read if fact.split(".")[1] not in names
    }


def disagreements(
    root: Path = ROOT, allowed: dict[str, str] = ALLOWED
) -> dict[str, list[str]]:
    """Where :func:`unread` and ``allowed`` differ, both ways."""
    missing = unread(root)
    return {
        "unread": sorted(missing - allowed.keys()),
        "allowed but read": sorted(allowed.keys() - missing),
    }


_BOX = "class Box:\n    def __init__(self):\n        self.x = []\n"


@pytest.mark.parametrize(
    "source, expected",
    [
        (_BOX, {"Box.x"}),
        ("class Box:\n    def put(self, v):\n        self.a, self.b = v\n"
         "        self.c: int = 0\n        self.d += 1\n",
         {"Box.a", "Box.b", "Box.c", "Box.d"}),
        ("class Box(NamedTuple):\n    x: int\n    y: int = 0\n",
         {"Box.x", "Box.y"}),
        ("@dataclass\nclass Box:\n    x: ClassVar[int] = 0\n"
         "    y: typing.ClassVar[int] = 0\n", set()),
        ("class Box:\n    def put(self, other):\n        other.x = 1\n",
         set()),
    ],
    ids=["init", "tuple-annotated-augmented", "namedtuple", "classvar",
         "other-object"],
)
def test_the_scan_reads_facts(source, expected):
    assert facts(source)[0] == expected


@pytest.mark.parametrize(
    "source, expected",
    [
        ("print(box.x)", {"x"}),
        ('getattr(box, "x")', {"x"}),
        ("box.x.append(1)", {"append"}),
        ("box.x.appendleft(1)", {"appendleft"}),
        ("box.x += 1", set()),
        ("box.x[0] = 1", set()),
        ("del box.x[0]", set()),
        ("box.x = 1", set()),
        ("box.x[0] += 1", set()),
        ("print(box.x[0])", {"x"}),
        ("box.x.pop()", {"x", "pop"}),
        ("f = box.x.append", {"x", "append"}),
        ("print(x)", set()),
    ],
    ids=["attribute", "string", "append", "appendleft", "augmented",
         "subscript-store", "subscript-delete", "store",
         "subscript-augmented", "subscript-load", "non-mutating-call",
         "bound-mutator", "bare-name"],
)
def test_the_scan_finds_reads(source, expected):
    assert reads(source) == expected


def write_tree(root: Path, files: dict[str, str]) -> None:
    for name, content in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")


_MODULE = "src/repro/stream/mod.py"


@pytest.mark.parametrize(
    "definer, reader, text, flagged",
    [
        (_MODULE, "src/repro/user.py", "box.x.append(1)", {"Box.x"}),
        (_MODULE, "src/repro/user.py", "box.x += 1", {"Box.x"}),
        (_MODULE, "examples/demo.py", 'getattr(box, "x")', set()),
        (_MODULE, "benchmarks/bench_demo.py", "print(box.x)", set()),
        (_MODULE, "tests/test_demo.py", "print(box.x)", {"Box.x"}),
        (_MODULE, _MODULE, "print(Box().x)", set()),
        ("src/repro/shard/mod.py", "tests/test_demo.py", "print(box.x)",
         set()),
    ],
    ids=["append-only", "augmented-only", "getattr-string", "benchmarks",
         "tests-only", "own-module", "excluded-package"],
)
def test_the_scan_counts_readers_where_it_searches(
    tmp_path, definer, reader, text, flagged
):
    files = {definer: _BOX}
    files[reader] = files.get(reader, "") + text + "\n"
    write_tree(tmp_path, files)
    assert unread(tmp_path) == flagged


@pytest.mark.parametrize(
    "field, flagged",
    [
        ("x: int = declared(COUNT)", set()),
        ("x: int = checkpoint.declared(TICK, default=0)", set()),
        ("x: ClassVar[int] = 0", set()),
        ("x: int = field(default=0)", {"Box.x"}),
    ],
    ids=["declared", "module-declared", "classvar", "plain-field"],
)
def test_the_scan_counts_declared_fields_as_read(tmp_path, field, flagged):
    write_tree(tmp_path, {
        _MODULE: f"@dataclass(frozen=True)\nclass Box:\n    {field}\n",
        "tests/test_demo.py": "print(box.x)\n",
    })
    assert unread(tmp_path) == flagged


@pytest.mark.parametrize(
    "reader, expected",
    [
        ("tests/test_demo.py", {"unread": [], "allowed but read": []}),
        ("examples/demo.py", {"unread": [], "allowed but read": ["Box.x"]}),
    ],
    ids=["still-unread", "gained-a-reader"],
)
def test_an_allowed_fact_that_gains_a_reader_is_reported(
    tmp_path, reader, expected
):
    write_tree(tmp_path, {_MODULE: _BOX, reader: "print(box.x)\n"})
    assert disagreements(tmp_path, {"Box.x": "a reason"}) == expected


def test_every_field_has_a_reader():
    # Equality both ways: a new fact that only tests read fails, and so
    # does an allowed one that has since gained a reader.
    assert disagreements() == {"unread": [], "allowed but read": []}
