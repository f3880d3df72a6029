"""One evaluator: the program judges a condition only as it lowers.

A condition's meaning is the closure :meth:`Condition.lower` returns,
compiled by :func:`repro.detect.compiler.compile_condition`; the test
suite states the same meaning independently in ``tests/reference``.
A second semantics in the package (an ``evaluate`` method on a
condition class) would be code only a flag reaches, and an engine
switch (``use_planner``) is that flag.  This scans every module under
``src/repro`` with :mod:`ast` for a class that defines ``evaluate``, and
every module under ``src``, ``benchmarks`` and ``examples`` for a name,
keyword, parameter or string that says ``use_planner``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
SHIPPED = ("src", "benchmarks", "examples")
FLAG = "use_planner"


def evaluate_methods(source: str) -> list[str]:
    """``Class.evaluate`` for each class in ``source`` defining one."""
    return [
        f"{node.name}.{item.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name == "evaluate"
    ]


def flag_uses(source: str) -> list[int]:
    """Lines of ``source`` whose names or strings say :data:`FLAG`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            text = node.id
        elif isinstance(node, ast.Attribute):
            text = node.attr
        elif isinstance(node, (ast.keyword, ast.arg)):
            text = node.arg or ""
        elif isinstance(node, ast.alias):
            text = node.asname or node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        else:
            continue
        if FLAG in text:
            lines.append(node.lineno)
    return sorted(set(lines))


@pytest.mark.parametrize(
    "source, expected",
    [
        ("class A:\n    def evaluate(self, b):\n        return True",
         ["A.evaluate"]),
        ("class A:\n    class B:\n        def evaluate(self):\n            pass",
         ["B.evaluate"]),
        ("def evaluate(node, binding):\n    return True", []),
        ("class A:\n    def lower(self):\n        return self.evaluate", []),
    ],
)
def test_the_scan_finds_evaluate_methods(source, expected):
    assert evaluate_methods(source) == expected


@pytest.mark.parametrize(
    "source, expected",
    [
        ("DetectionEngine(specs, use_planner=False)", [1]),
        ("def deploy(plan, use_planner=True):\n    pass", [1]),
        ("x = 1\nif engine.use_planner:\n    pass", [2]),
        ('"""Pass ``use_planner=False`` for the baseline."""', [1]),
        ("planner = compile_plan(spec)", []),
    ],
)
def test_the_scan_finds_the_flag(source, expected):
    assert flag_uses(source) == expected


def test_no_class_in_the_package_defines_evaluate():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50
    offenders = {
        str(path.relative_to(SRC)): found
        for path in modules
        if (found := evaluate_methods(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_no_shipped_file_names_an_engine_switch():
    modules = sorted(
        path for tree in SHIPPED for path in (ROOT / tree).rglob("*.py")
    )
    assert len(modules) > 60
    offenders = {
        str(path.relative_to(ROOT)): lines
        for path in modules
        if (lines := flag_uses(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}
