"""The census's logic over a tiny package (the real census runs as
``python -m tests.census``; this takes seconds)."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from tests.census import (
    ALLOWED,
    CONFIGURATION,
    HOOK,
    INPUT_ERROR,
    ITEM,
    REFERENCE,
    ROOT,
    Reason,
    definitions,
    disagreements,
    entered,
    entry_points,
    functions,
    reason_problems,
)
from tests.test_every_field_has_a_reader import write_tree

_MODULE = '''\
import abc
import functools


def reached():
    return 1


def unreached():
    return 2


@functools.lru_cache(maxsize=None)
def decorated():
    return 3


@functools.lru_cache(
    maxsize=None,
)
def decorated_unreached():
    return 4


def child_only():
    return 5


def thread_only():
    return 6


def outer():
    def inner():
        return 7
    return inner


class Base(abc.ABC):
    @abc.abstractmethod
    def run(self):
        return 0

    def __repr__(self):
        return "Base"

    def stub(self):
        """Only a docstring."""
'''

_MAIN = '''\
import subprocess
import sys
import threading

from pkg import mod

mod.reached()
mod.decorated()
subprocess.run(
    [sys.executable, "-c", "from pkg import mod; mod.child_only()"],
    check=True,
)
thread = threading.Thread(target=mod.thread_only)
thread.start()
thread.join(timeout=60)
assert not thread.is_alive()
'''


@pytest.fixture(scope="module")
def tiny_root(tmp_path_factory):
    """A directory holding the package under ``src/`` and ``main.py``."""
    root = tmp_path_factory.mktemp("tiny")
    write_tree(root, {
        "src/pkg/__init__.py": "",
        "src/pkg/mod.py": _MODULE,
        "src/pkg/skipped/__init__.py": "def elsewhere():\n    return 0\n",
        "main.py": _MAIN,
    })
    return root


@pytest.fixture(scope="module")
def tiny(tiny_root):
    """``(defined, reached, failures)`` of one census over the package."""
    root = tiny_root
    defined = definitions(root / "src", excluded=("skipped",))
    reached, failures = entered([("main.py",)], root, root / "src")
    return defined, reached, failures


def test_the_census_sees_the_main_process_a_child_and_a_thread(tiny):
    defined, reached, failures = tiny
    assert failures == []
    assert disagreements(defined, reached, {}) == {
        "never entered": [
            "pkg.mod.decorated_unreached",
            "pkg.mod.outer",
            "pkg.mod.outer.inner",
            "pkg.mod.unreached",
        ],
        "allowed but entered": [],
        "allowed but not defined": [],
    }


def test_dunders_abstract_methods_stubs_and_excluded_packages_are_exempt(
    tiny,
):
    defined, _, _ = tiny
    assert sorted(defined.values()) == [
        "pkg.mod.child_only",
        "pkg.mod.decorated",
        "pkg.mod.decorated_unreached",
        "pkg.mod.outer",
        "pkg.mod.outer.inner",
        "pkg.mod.reached",
        "pkg.mod.thread_only",
        "pkg.mod.unreached",
    ]


def test_a_decorated_function_is_keyed_on_its_first_decorator(tiny):
    defined, _, _ = tiny
    lines = {name: line for (_, line, _), name in defined.items()}
    source = _MODULE.splitlines()
    assert source[lines["pkg.mod.decorated"] - 1].startswith("@functools")
    assert source[lines["pkg.mod.decorated_unreached"] - 1].startswith(
        "@functools"
    )


def test_allowed_is_checked_both_ways(tiny):
    defined, reached, _ = tiny
    reason = Reason(ITEM, "a reason", item="20")
    allowed = dict.fromkeys(
        ("pkg.mod.unreached", "pkg.mod.reached", "pkg.mod.gone"), reason
    )
    assert disagreements(defined, reached, allowed) == {
        "never entered": [
            "pkg.mod.decorated_unreached",
            "pkg.mod.outer",
            "pkg.mod.outer.inner",
        ],
        "allowed but entered": ["pkg.mod.reached"],
        "allowed but not defined": ["pkg.mod.gone"],
    }


@pytest.mark.parametrize(
    "body, exempt",
    [
        ('"""Docs."""', True),
        ("...", True),
        ("pass", True),
        ('"""Docs."""\n    raise NotImplementedError', True),
        ('raise NotImplementedError("subclass")', True),
        ("return None", False),
        ('"""Docs."""\n    return 1', False),
        ("raise ValueError", False),
    ],
    ids=["docstring", "ellipsis", "pass", "not-implemented",
         "not-implemented-call", "return", "docstring-and-return",
         "other-raise"],
)
def test_interface_stubs_are_exempt(tmp_path, body, exempt):
    path = tmp_path / "mod.py"
    path.write_text(f"def f():\n    {body}\n", encoding="utf-8")
    assert (functions(path, "mod") == {}) is exempt


def test_a_name_defined_twice_in_one_scope_is_numbered(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "def make(flag):\n"
        "    if flag:\n"
        "        def run():\n"
        "            return 1\n"
        "    else:\n"
        "        def run():\n"
        "            return 2\n"
        "    return run\n",
        encoding="utf-8",
    )
    assert sorted(functions(path, "mod").values()) == [
        "mod.make", "mod.make.run", "mod.make.run#2",
    ]


@pytest.mark.parametrize(
    "reason, problem",
    [
        (Reason(ITEM, "why", item="20"), None),
        (Reason(ITEM, "why", item="2"), "item '2' is not open"),
        (Reason(REFERENCE, "why"), None),
        (Reason(INPUT_ERROR, "why", test="tests/test_census.py"
                "::test_interface_stubs_are_exempt"), None),
        (Reason(CONFIGURATION, "why", test="tests/test_census.py::nothing"),
         "no test 'tests/test_census.py::nothing'"),
        (Reason(CONFIGURATION, "why"), "no test None"),
        (Reason("hunch", "why"), "unknown kind 'hunch'"),
    ],
    ids=["open-item", "closed-item", "reference", "test-exists",
         "test-missing", "no-test", "unknown-kind"],
)
def test_every_reason_is_one_of_four_kinds(reason, problem):
    expected = [] if problem is None else [f"f: {problem}"]
    assert reason_problems({"f": reason}) == expected


def test_every_allowed_entry_names_a_function_and_a_valid_reason():
    # The static half of the census, cheap enough for every run: a stale
    # entry or a reason that names a deleted test fails here first.
    defined = set(definitions(ROOT / "src").values())
    assert sorted(ALLOWED.keys() - defined) == []
    assert reason_problems(ALLOWED) == []


def test_two_runs_enter_the_same_functions(tiny, tiny_root):
    defined, reached, _ = tiny
    again, failures = entered([("main.py",)], tiny_root, tiny_root / "src")
    assert failures == []
    assert defined.keys() & again == defined.keys() & reached


def test_a_function_is_matched_by_position_not_by_name(tmp_path):
    # A name scan passes B.run because A.run is called; the census does
    # not.
    write_tree(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/mod.py": (
            "class A:\n"
            "    def run(self):\n"
            "        return 1\n"
            "\n"
            "\n"
            "class B:\n"
            "    def run(self):\n"
            "        return 2\n"
        ),
        "main.py": "from pkg import mod\nmod.A().run()\n",
    })
    defined = definitions(tmp_path / "src")
    reached, failures = entered([("main.py",)], tmp_path, tmp_path / "src")
    assert failures == []
    assert disagreements(defined, reached, {})["never entered"] == [
        "pkg.mod.B.run"
    ]


def test_another_code_object_on_a_def_line_does_not_enter_it(tmp_path):
    # A generator expression in a default argument runs when the module
    # is imported, and a lambda in a decorator's arguments when the
    # decorator calls it; each starts on its function's first line.
    write_tree(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/mod.py": (
            "def register(check):\n"
            "    check()\n"
            "    return lambda function: function\n"
            "\n"
            "\n"
            "def never(xs=tuple(i for i in range(3))):\n"
            "    return xs\n"
            "\n"
            "\n"
            "@register(lambda: 0)\n"
            "def also_never():\n"
            "    return 1\n"
        ),
        "main.py": "from pkg import mod\n",
    })
    defined = definitions(tmp_path / "src")
    reached, failures = entered([("main.py",)], tmp_path, tmp_path / "src")
    assert failures == []
    assert {(line, name) for _, line, name in reached} >= {
        (6, "<genexpr>"), (10, "<lambda>"), (1, "register"),
    }
    assert disagreements(defined, reached, {})["never entered"] == [
        "pkg.mod.also_never", "pkg.mod.never",
    ]


def test_the_census_follows_a_child_of_a_child(tmp_path):
    spawn = (
        "import subprocess, sys\n"
        "subprocess.run([sys.executable, {script!r}], check=True)\n"
    )
    write_tree(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/mod.py": "def grandchild_only():\n    return 1\n",
        "main.py": spawn.format(script="child.py"),
        "child.py": spawn.format(script="grandchild.py"),
        "grandchild.py": "from pkg import mod\nmod.grandchild_only()\n",
    })
    defined = definitions(tmp_path / "src")
    reached, failures = entered([("main.py",)], tmp_path, tmp_path / "src")
    assert failures == []
    assert disagreements(defined, reached, {})["never entered"] == []


def test_a_run_that_exits_non_zero_is_reported(tmp_path):
    write_tree(tmp_path, {
        "src/pkg/__init__.py": "",
        "ok.py": "",
        "bad.py": (
            "import sys\n"
            "print('boom', file=sys.stderr)\n"
            "sys.exit(3)\n"
        ),
    })
    _, failures = entered(
        [("ok.py",), ("bad.py",)], tmp_path, tmp_path / "src"
    )
    assert failures == ["bad.py exited 3: boom"]


@pytest.mark.parametrize("switched_on", [False, True], ids=["off", "on"])
def test_the_hook_runs_only_when_the_environment_names_an_output(
    tmp_path, switched_on
):
    (tmp_path / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    env = {
        key: value for key, value in os.environ.items()
        if key != "REPRO_CENSUS_OUT"
    }
    env["PYTHONPATH"] = str(tmp_path)
    if switched_on:
        env["REPRO_CENSUS_OUT"] = str(out)
    done = subprocess.run(
        [sys.executable, "-c", "import sys; print(sys.getprofile() is None)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.strip() == str(not switched_on)
    assert len(list(out.iterdir())) == int(switched_on)


def test_methods_are_named_by_their_classes(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import sys\n"
        "\n"
        "\n"
        "class Outer:\n"
        "    def method(self):\n"
        "        return 1\n"
        "\n"
        "    class Inner:\n"
        "        def method(self):\n"
        "            return 2\n"
        "\n"
        "\n"
        "async def fetch():\n"
        "    return 3\n"
        "\n"
        "\n"
        "if sys.platform:\n"
        "    def _private():\n"
        "        return 4\n",
        encoding="utf-8",
    )
    assert sorted(functions(path, "mod").values()) == [
        "mod.Outer.Inner.method", "mod.Outer.method", "mod._private",
        "mod.fetch",
    ]


@pytest.mark.parametrize(
    "spelling", ["abc.abstractmethod", "abstractmethod"],
    ids=["qualified", "bare"],
)
def test_an_abstract_method_is_exempt_however_it_is_imported(
    tmp_path, spelling
):
    path = tmp_path / "mod.py"
    path.write_text(
        "import abc\n"
        "from abc import abstractmethod\n"
        "\n"
        "\n"
        "class Base(abc.ABC):\n"
        f"    @{spelling}\n"
        "    def run(self):\n"
        "        return 0\n",
        encoding="utf-8",
    )
    assert functions(path, "mod") == {}


def test_definitions_name_packages_and_skip_only_top_level_subpackages(
    tmp_path,
):
    write_tree(tmp_path, {
        "pkg/__init__.py": "def top():\n    return 0\n",
        "pkg/sub/__init__.py": "",
        "pkg/sub/mod.py": "def deep():\n    return 1\n",
        "pkg/skipped/__init__.py": "",
        "pkg/skipped/mod.py": "def gone():\n    return 2\n",
        "pkg/sub/skipped/__init__.py": "",
        "pkg/sub/skipped/mod.py": "def kept():\n    return 3\n",
    })
    assert sorted(definitions(tmp_path, excluded=("skipped",)).values()) == [
        "pkg.sub.mod.deep", "pkg.sub.skipped.mod.kept", "pkg.top",
    ]


def test_the_entry_points_are_examples_report_formats_workloads_and_suite(
    tmp_path,
):
    write_tree(tmp_path, {
        "BENCHMARK.json": '{"workloads": [{"name": "w1"}, {"name": "w2"}]}',
        "examples/b.py": "",
        "examples/a.py": "",
        "examples/notes.txt": "",
    })
    run = ("--preset", "small", "--seconds", "0.5", "--trace", "1")
    assert entry_points(tmp_path) == [
        ("examples/a.py",),
        ("examples/b.py",),
        ("-m", "repro.obs.report", "--format", "text"),
        ("-m", "repro.obs.report", "--format", "json"),
        ("-m", "repro.obs.report", "--format", "prometheus"),
        ("benchmarks/ledger/run.py", "--workload", "w1", *run),
        ("benchmarks/ledger/run.py", "--workload", "w2", *run),
        ("-m", "pytest", "benchmarks/", "-q", "--quick",
         "-p", "no:cacheprovider"),
    ]


@pytest.mark.parametrize(
    "test, exists",
    [
        ("tests/test_a.py::test_one", True),
        ("tests/test_a.py::TestGroup::test_two", True),
        ("tests/test_a.py::test_one[case]", True),
        ("tests/test_a.py::TestGroup::test_gone", False),
        ("tests/test_gone.py::test_one", False),
        ("tests/test_a.py", False),
        (None, False),
    ],
    ids=["function", "method", "parametrized", "missing-name",
         "missing-file", "no-scope", "none"],
)
def test_a_named_test_must_exist(tmp_path, test, exists):
    write_tree(tmp_path, {
        "tests/test_a.py": (
            "def test_one():\n"
            "    pass\n"
            "\n"
            "\n"
            "class TestGroup:\n"
            "    def test_two(self):\n"
            "        pass\n"
        ),
    })
    reason = Reason(CONFIGURATION, "why", test=test)
    expected = [] if exists else [f"f: no test {test!r}"]
    assert reason_problems({"f": reason}, root=tmp_path) == expected
