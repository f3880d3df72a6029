"""Every option has a setter: no ``repro`` setting exists only for its
tests.

A defaulted parameter of a public constructor of any module under
``src/repro`` is a configuration that tests must cover and the docs
must explain, so some workload should set it.  This scans ``src/``,
``examples/`` and ``benchmarks/`` with :mod:`ast` for a call that sets
each one, by keyword or by position, outside the module that defines
it.  Public means listed in the module's ``__all__``.  The constructors
are a class's ``__init__`` (written out, or the one ``@dataclass``
generates from its fields) and each of its ``@classmethod``\\ s.  Calls
are matched by name: ``Name(...)`` and ``anything.Name(...)`` call the
class ``Name``, ``Name.method(...)`` calls its classmethod, and a
``super().__init__(...)`` inside a class calls each base its ``class``
statement names.  The generated constructors of records (snapshots,
checkpoints, counters, samples and the plain-data values in
``RECORDS``) are out of scope: their fields are data, not options.  An
option kept without a setter would be listed in ``ALLOWED`` with its
reason; none is.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from tests.test_every_export_has_a_caller import exports

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "examples", "benchmarks")

RECORDS = {
    "StreamStats": "the runtime's counters",
    "MetricSample": "one exported series",
    "StreamItem": "one stamped observation",
    "CorruptObservation": "the payload of a corrupted delivery",
    "FaultPlan": "a fault schedule is plain data; FaultPlan.seeded draws it",
    "Event": "one spatio-temporal event (Eq. 4.1)",
    "PhysicalObservation": "one sensor reading (Eq. 5.2)",
    **dict.fromkeys(
        (
            "EventInstance",
            "SensorEventInstance",
            "CyberPhysicalEventInstance",
            "CyberEventInstance",
        ),
        "one emitted event instance (Eq. 4.7)",
    ),
    "Match": "one satisfied binding",
    "EngineStats": "the engine's counters",
    "RouterStats": "the shard router's counters",
    "EvaluationPlan": "the clauses compile_plan extracted from a spec",
    "ActuatorCommand": "one command a rule's factory issues",
    "Packet": "one unit of network traffic",
    "TraceRecord": "one trace row as a reader sees it",
    "ScenarioSpec": "one registered family; @family builds it",
    "Deployment": "what one family deploys; its plan builds it",
    "Scenario": "a built system and its handles; build_scenario builds it",
}
"""Classes whose generated constructor is a record's, beside every
``*Snapshot`` and ``*Checkpoint``."""

ALLOWED: dict[str, str] = {}


OPTION_BUDGET = 129
"""The most defaulted ``repro`` constructor options there may be.  A
change that needs another option raises this in its own diff."""


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


def _is_super_init(node: ast.AST) -> bool:
    """Whether ``node`` is a ``super().__init__(...)`` call."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__init__"
        and isinstance(node.func.value, ast.Call)
        and isinstance(node.func.value.func, ast.Name)
        and node.func.value.func.id == "super"
    )


def calls(source: str) -> list[tuple[str, int, set[str]]]:
    """``(callable, positional count, keywords)`` of each call in
    ``source``, under every name it may call (see the module doc)."""
    tree = ast.parse(source)
    bases: dict[int, list[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            named = [ast.unparse(base).split(".")[-1] for base in node.bases]
            bases |= {
                id(sub): named for sub in ast.walk(node) if _is_super_init(sub)
            }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        positional = sum(not isinstance(a, ast.Starred) for a in node.args)
        keywords = {keyword.arg for keyword in node.keywords if keyword.arg}
        func = node.func
        names = []
        if id(node) in bases:
            names += bases[id(node)]
        elif isinstance(func, ast.Name):
            names.append(func.id)
        elif isinstance(func, ast.Attribute):
            names.append(func.attr)
            if isinstance(func.value, ast.Name):
                names.append(f"{func.value.id}.{func.attr}")
        found += [(name, positional, keywords) for name in names]
    return found


def constructors(root: Path = ROOT) -> dict[str, tuple[Path, list[str], list[str]]]:
    """``{callable: (defining module, positional, defaulted)}`` over the
    public constructors of every module under ``src/repro``."""
    found: dict[str, tuple[Path, list[str], list[str]]] = {}
    for path in sorted((root / "src" / "repro").rglob("*.py")):
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
        ('__all__ = ["Packet"]\n\n@dataclass\nclass Packet:\n'
         "    hops: int = 0\n",
         {}),
        (_MODULE + "class Box:\n    def __init__(self, a, /, b=1):"
         "\n        pass",
         {"Box": (["a", "b"], ["b"])}),
        ("from dataclasses import dataclass, field\n" + _MODULE
         + "@dataclass\nclass Box:\n"
         "    d: list = field(default_factory=list)\n",
         {"Box": (["d"], ["d"])}),
        ('__all__ = ["RunCheckpoint"]\n\nclass RunCheckpoint:\n'
         "    def __init__(self, a=1):\n        pass",
         {}),
        (_MODULE + "class Box:\n    @staticmethod\n    def make(a=1):"
         "\n        pass",
         {}),
        (_MODULE + "class Box:\n    class Inner:\n"
         "        def __init__(self, a=1):\n            pass",
         {}),
    ],
    ids=["init", "classmethod", "dataclass", "record", "private",
         "listed-record", "positional-only", "default-factory",
         "checkpoint-init", "staticmethod", "inner-class"],
)
def test_the_scan_reads_constructors(source, expected):
    assert options(source) == expected


@pytest.mark.parametrize(
    "source, expected",
    [
        ("Box(1, *rest, c=3, **more)", [("Box", 1, {"c"})]),
        ("m.Box(b=2)", [("Box", 0, {"b"}), ("m.Box", 0, {"b"})]),
        ("Box.make(1)", [("make", 1, set()), ("Box.make", 1, set())]),
        ("class Sub(m.Box, Mixin):\n    def __init__(self):\n"
         "        super().__init__(b=2)",
         [("Box", 0, {"b"}), ("Mixin", 0, {"b"}), ("super", 0, set())]),
        ("class Outer(A):\n    class Inner(B):\n"
         "        def __init__(self):\n            super().__init__(x=1)",
         [("B", 0, {"x"}), ("super", 0, set())]),
        ("def build(self):\n    super().__init__(1)",
         [("__init__", 1, set()), ("super", 0, set())]),
        ("Box(*rest, **more)", [("Box", 0, set())]),
        ("a.b.Box(1)", [("Box", 1, set())]),
    ],
    ids=["name", "attribute", "classmethod", "super", "nested-super",
         "super-outside-a-class", "splat-only", "deep-attribute"],
)
def test_the_scan_reads_calls(source, expected):
    assert calls(source) == expected


_SUBCLASS = (
    "from repro.stream.mod import Box\n\n\nclass Sub(Box):\n"
    "    def __init__(self):\n        super().__init__(1, b=2)"
)


@pytest.mark.parametrize(
    "module, caller, text, flagged",
    [
        ("stream", "examples/demo.py", "Box(1, 2)", set()),
        ("stream", "benchmarks/bench_demo.py", "Box(1, b=2)", set()),
        ("stream", "src/repro/user.py", "Box(1)", {"Box.b"}),
        ("stream", "tests/test_demo.py", "Box(1, b=2)", {"Box.b"}),
        ("stream", "src/repro/stream/mod.py", "Box(1, b=2)", {"Box.b"}),
        ("stream", "src/repro/cps/sub.py", _SUBCLASS, set()),
        ("cps", "tests/test_demo.py", "Box(1, b=2)", {"Box.b"}),
        ("stream", "examples/demo.py",
         "import repro.stream.mod as mod\nmod.Box(1, b=2)", set()),
        ("stream", "tests/test_sub.py", _SUBCLASS, {"Box.b"}),
        ("stream", "src/repro/cps/sub.py",
         _SUBCLASS.replace("(Box)", "(Other)"), {"Box.b"}),
        ("stream", "src/repro/cps/sub.py",
         _SUBCLASS.replace("(1, b=2)", "(1, 2)"), set()),
    ],
    ids=["positional", "keyword", "default-only", "tests-only",
         "own-module", "super-init", "other-package", "module-attribute",
         "super-init-in-tests", "super-init-of-another-base",
         "super-init-by-position"],
)
def test_the_scan_counts_setters_where_it_searches(
    tmp_path, module, caller, text, flagged
):
    files = {
        f"src/repro/{module}/mod.py": '__all__ = ["Box"]\n\n\nclass Box:\n'
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
