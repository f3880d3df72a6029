"""Every option has a setter: no ``repro.stream`` or ``repro.obs`` setting
exists only for its tests.

A defaulted parameter of a public constructor is a configuration that
tests must cover and the docs must explain, so some workload should set
it.  This scans ``src/``, ``examples/`` and ``benchmarks/`` with
:mod:`ast` for a call that sets each one, by keyword or by position,
outside the module that defines it.  Public means listed in the
module's ``__all__``.  The constructors are a class's ``__init__``
(written out, or the one ``@dataclass`` generates from its fields) and
each of its ``@classmethod``\\ s.  Calls are matched by name:
``Name(...)`` and ``anything.Name(...)`` call the class ``Name``, and
``Name.method(...)`` calls its classmethod.  The generated constructors
of records (snapshots, checkpoints, counters, samples and the plain-data
values in ``RECORDS``) are out of scope: their fields are data, not
options.  An option kept without a setter would be listed in
``ALLOWED`` with its reason; none is.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from tests.test_every_export_has_a_caller import exports

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "examples", "benchmarks")
PACKAGES = ("stream", "obs")

RECORDS = {
    "StreamStats": "the runtime's counters",
    "MetricSample": "one exported series",
    "StreamItem": "one stamped observation",
    "CorruptObservation": "the payload of a corrupted delivery",
    "FaultPlan": "a fault schedule is plain data; FaultPlan.seeded draws it",
}
"""Classes whose generated constructor is a record's, beside every
``*Snapshot`` and ``*Checkpoint``."""

ALLOWED: dict[str, str] = {}


OPTION_BUDGET = 31
"""The most defaulted ``repro.stream`` / ``repro.obs`` constructor
options there may be.  A change that needs another option raises this
in its own diff."""


def _is_record(name: str) -> bool:
    return name in RECORDS or name.endswith(("Snapshot", "Checkpoint"))


def _decorated(node: ast.ClassDef | ast.FunctionDef, name: str) -> bool:
    """Whether ``node`` carries ``@name``, ``@name(...)`` or ``@x.name``."""
    return any(
        ast.unparse(decorator).split("(")[0].split(".")[-1] == name
        for decorator in node.decorator_list
    )


def _fields(node: ast.ClassDef) -> tuple[list[str], list[str]]:
    """A dataclass's ``__init__`` parameters and the defaulted ones."""
    names, defaulted = [], []
    for statement in node.body:
        if not (
            isinstance(statement, ast.AnnAssign)
            and isinstance(statement.target, ast.Name)
        ) or "ClassVar" in ast.unparse(statement.annotation):
            continue
        value = statement.value
        if isinstance(value, ast.Call) and any(
            keyword.arg == "init" for keyword in value.keywords
        ):
            continue
        names.append(statement.target.id)
        if value is not None:
            defaulted.append(statement.target.id)
    return names, defaulted


def _parameters(node: ast.FunctionDef) -> tuple[list[str], list[str]]:
    """A method's parameters after ``self`` / ``cls`` that a call can
    pass by position, and every parameter with a default."""
    arguments = node.args
    positional = [a.arg for a in arguments.posonlyargs + arguments.args][1:]
    with_default = positional[len(positional) - len(arguments.defaults):]
    return positional, with_default + [
        a.arg
        for a, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
        if default is not None
    ]


def options(source: str) -> dict[str, tuple[list[str], list[str]]]:
    """``{callable: (positional parameters, defaulted parameters)}`` for
    each public constructor ``source`` defines: ``"Class"`` for its
    ``__init__``, ``"Class.method"`` for a classmethod."""
    public = set(exports(source))
    found: dict[str, tuple[list[str], list[str]]] = {}
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef) or node.name not in public:
            continue
        if _decorated(node, "dataclass") and not _is_record(node.name):
            found[node.name] = _fields(node)
        for method in node.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            if method.name == "__init__" and not _is_record(node.name):
                found[node.name] = _parameters(method)
            elif _decorated(method, "classmethod"):
                found[f"{node.name}.{method.name}"] = _parameters(method)
    return found


def calls(source: str) -> list[tuple[str, int, set[str]]]:
    """``(callable, positional count, keywords)`` of each call in
    ``source``, under every name it may call (see the module doc)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        positional = sum(not isinstance(a, ast.Starred) for a in node.args)
        keywords = {keyword.arg for keyword in node.keywords if keyword.arg}
        func = node.func
        names = []
        if isinstance(func, ast.Name):
            names.append(func.id)
        elif isinstance(func, ast.Attribute):
            names.append(func.attr)
            if isinstance(func.value, ast.Name):
                names.append(f"{func.value.id}.{func.attr}")
        found += [(name, positional, keywords) for name in names]
    return found


def constructors(root: Path = ROOT) -> dict[str, tuple[Path, list[str], list[str]]]:
    """``{callable: (defining module, positional, defaulted)}`` over the
    public constructors of :data:`PACKAGES`."""
    found: dict[str, tuple[Path, list[str], list[str]]] = {}
    for package in PACKAGES:
        for path in sorted((root / "src" / "repro" / package).rglob("*.py")):
            for name, (positional, defaulted) in options(
                path.read_text(encoding="utf-8")
            ).items():
                found[name] = (path, positional, defaulted)
    return found


def unset(root: Path = ROOT) -> set[str]:
    """``"Callable.parameter"`` for each defaulted option nothing in the
    searched tree sets outside its defining module."""
    defined = constructors(root)
    set_: set[str] = set()
    for directory in SEARCHED:
        for path in sorted((root / directory).rglob("*.py")):
            for name, count, keywords in calls(path.read_text(encoding="utf-8")):
                if name not in defined or defined[name][0] == path:
                    continue
                positional = defined[name][1]
                set_ |= {f"{name}.{p}" for p in positional[:count]}
                set_ |= {f"{name}.{k}" for k in keywords}
    return {
        f"{name}.{parameter}"
        for name, (_, _, defaulted) in defined.items()
        for parameter in defaulted
    } - set_


_MODULE = '__all__ = ["Box", "TickSnapshot"]\n\n'


@pytest.mark.parametrize(
    "source, expected",
    [
        (_MODULE + "class Box:\n    def __init__(self, a, b=1, *, c=2, d):"
         "\n        pass",
         {"Box": (["a", "b"], ["b", "c"])}),
        (_MODULE + "class Box:\n    @classmethod\n    def make(cls, a=1):"
         "\n        pass",
         {"Box.make": (["a"], ["a"])}),
        ("from dataclasses import dataclass, field\nfrom typing import "
         "ClassVar\n" + _MODULE + "@dataclass(frozen=True)\nclass Box:\n"
         "    a: int\n    b: int = 1\n    c: ClassVar[int] = 2\n"
         "    d: list = field(init=False)\n",
         {"Box": (["a", "b"], ["b"])}),
        (_MODULE + "@dataclass\nclass TickSnapshot:\n    a: int = 0\n"
         "    @classmethod\n    def of(cls, b=0):\n        pass\n",
         {"TickSnapshot.of": (["b"], ["b"])}),
        (_MODULE + "class _Box:\n    def __init__(self, a=1):\n        pass",
         {}),
    ],
    ids=["init", "classmethod", "dataclass", "record", "private"],
)
def test_the_scan_reads_constructors(source, expected):
    assert options(source) == expected


@pytest.mark.parametrize(
    "source, expected",
    [
        ("Box(1, *rest, c=3, **more)", [("Box", 1, {"c"})]),
        ("m.Box(b=2)", [("Box", 0, {"b"}), ("m.Box", 0, {"b"})]),
        ("Box.make(1)", [("make", 1, set()), ("Box.make", 1, set())]),
    ],
    ids=["name", "attribute", "classmethod"],
)
def test_the_scan_reads_calls(source, expected):
    assert calls(source) == expected


@pytest.mark.parametrize(
    "caller, text, flagged",
    [
        ("examples/demo.py", "Box(1, 2)", set()),
        ("benchmarks/bench_demo.py", "Box(1, b=2)", set()),
        ("src/repro/user.py", "Box(1)", {"Box.b"}),
        ("tests/test_demo.py", "Box(1, b=2)", {"Box.b"}),
        ("src/repro/stream/mod.py", "Box(1, b=2)", {"Box.b"}),
    ],
    ids=["positional", "keyword", "default-only", "tests-only",
         "own-module"],
)
def test_the_scan_counts_setters_where_it_searches(
    tmp_path, caller, text, flagged
):
    files = {
        "src/repro/stream/mod.py": '__all__ = ["Box"]\n\n\nclass Box:\n'
        "    def __init__(self, a, b=1):\n        pass\n"
    }
    files[caller] = files.get(caller, "") + text + "\n"
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    assert unset(tmp_path) == flagged


def test_every_option_has_a_setter():
    missing = unset()
    # Equality both ways: a new option that only tests set fails, and
    # so does an allowed one that has since gained a setter.
    assert sorted(missing - ALLOWED.keys()) == []
    assert sorted(ALLOWED.keys() - missing) == []


def test_the_option_count_stays_within_budget():
    count = sum(len(defaulted) for _, _, defaulted in constructors().values())
    assert count <= OPTION_BUDGET
