"""The execution census: every ``repro`` function is entered by a run.

Code only tests call is surface someone has to keep working for no
user.  This script runs the program's entry points (:func:`entry_points`:
the examples, the report CLI in each format, every ledger workload and
the benchmark smoke suite) with a profile hook in every Python process
they start, child processes and threads included, and records the
``(file, first line, name)`` of each code object entered under
``src/repro``.  It compares those with every ``def`` under
``src/repro`` outside the packages in :data:`EXCLUDED`.  Matching the
position means a function cannot pass because something else of the
same name runs; matching the name too means it cannot pass because
another code object starting on its line runs (a generator expression
in a default argument, a lambda in a decorator's arguments).  A
decorated function's code starts at its first decorator, so a ``def``
is keyed on the smallest line of its decorators and its ``def``.

Dunders, ``@abstractmethod`` s and interface stubs (a body that is only
a docstring, ``...``, ``pass`` or ``raise NotImplementedError``) are
exempt.  Every other function no run enters is listed in :data:`ALLOWED`
with a :class:`Reason` of one of four kinds, and the list is checked both
ways: an unentered function missing from it fails, and so does an
allowed one that is entered or no longer defined.

Run from the repository root (no flags; a few minutes)::

    python -m tests.census

It exits 1 on any disagreement or when an entry point fails.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Sequence

from tests.test_every_field_has_a_reader import EXCLUDED

ROOT = Path(__file__).resolve().parents[1]

# The hook every process started under the census imports at start-up
# (as ``sitecustomize``, first on ``PYTHONPATH``): it is off unless the
# environment names an output directory, and it writes one file per
# process at exit.
HOOK = '''\
import atexit
import os
import sys
import threading

_OUT = os.environ.get("REPRO_CENSUS_OUT")
if _OUT:
    _entered = set()

    def _profile(frame, event, arg, _add=_entered.add):
        if event == "call":
            code = frame.f_code
            _add((code.co_filename, code.co_firstlineno, code.co_name))

    def _dump():
        sys.setprofile(None)
        threading.setprofile(None)
        path = os.path.join(_OUT, f"{os.getpid()}.tsv")
        with open(path, "w", encoding="utf-8") as handle:
            for filename, line, name in sorted(_entered):
                handle.write(
                    f"{os.path.abspath(filename)}\\t{line}\\t{name}\\n"
                )

    atexit.register(_dump)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
'''


class Reason(NamedTuple):
    """Why a function no run enters stays.

    ``kind`` is one of :data:`KINDS`.  An ``ITEM`` reason names the open
    ROADMAP ``item`` that will give the function a caller; an
    ``INPUT_ERROR`` or ``CONFIGURATION`` reason names the ``test`` (a
    pytest node id) that reaches it.
    """

    kind: str
    why: str
    item: str | None = None
    test: str | None = None


ITEM = "open ROADMAP item"
REFERENCE = "reference that tests compare against"
INPUT_ERROR = "typed error on input from outside the program"
CONFIGURATION = "supported configuration no entry point combines"
KINDS = (ITEM, REFERENCE, INPUT_ERROR, CONFIGURATION)
OPEN_ITEMS = ("1(a)", "7", "9", "11", "14", "20")


def _allow(reason: Reason, *names: str) -> dict[str, Reason]:
    return dict.fromkeys(names, reason)


ALLOWED: dict[str, Reason] = {
    **_allow(
        Reason(
            ITEM,
            "the frozen ledger wraps or reads it by name (ReorderBuffer.offer, "
            "WirelessNetwork.unicast with the route it takes) or "
            "tests/integration/test_ledger_surface.py reads it; the ledger's "
            "re-baseline retires the name table",
            item="1(a)",
        ),
        "repro.stream.reorder.ReorderBuffer.offer",
        "repro.network.fabric.WirelessNetwork.unicast",
        "repro.network.routing.RoutingTree.point_to_point",
        "repro.sim.kernel.Simulator.pending",
        "repro.detect.output.InstanceLog.keys",
    ),
    **_allow(
        Reason(
            ITEM,
            "the per-spec plan summary the ledger's detail output renders "
            "beside each spec's tallies",
            item="7",
        ),
        "repro.detect.planner.EvaluationPlan.describe",
    ),
    **_allow(
        Reason(
            ITEM,
            "ground truth of physical events (Eq. 5.1) and its scoring, which "
            "every family wires in; deleted if no family's truth can be "
            "stated",
            item="9",
        ),
        "repro.metrics._time_distance",
        "repro.metrics._time_distance.bounds",
        "repro.metrics._representative_point",
        "repro.metrics.localization_error",
        "repro.metrics.timing_error",
        "repro.metrics.MatchResult.true_positives",
        "repro.metrics.MatchResult.false_negatives",
        "repro.metrics.MatchResult.false_positives",
        "repro.metrics.MatchResult.precision",
        "repro.metrics.MatchResult.recall",
        "repro.metrics.MatchResult.f1",
        "repro.metrics.MatchResult.timing_errors",
        "repro.metrics.MatchResult.localization_errors",
        "repro.metrics.match_detections",
        "repro.metrics.precision_recall",
        "repro.physical.fire.FireModel.state_of",
        "repro.physical.fire.FireModel.is_burning_at",
        "repro.physical.ground_truth.threshold_intervals",
        "repro.physical.ground_truth.make_physical_event",
        "repro.physical.world.PhysicalWorld.record_ground_truth",
        "repro.physical.world.PhysicalWorld.ground_truth",
        "repro.core.event.PhysicalEvent.fresh_id",
    ),
    **_allow(
        Reason(
            ITEM,
            "the reading side of the trace and metrics exports, which the "
            "report CLI's diff of two runs is the first caller of",
            item="11",
        ),
        "repro.sim.trace.TraceRecorder.to_jsonl",
        "repro.sim.trace.to_jsonl",
        "repro.sim.trace.from_jsonl",
        "repro.obs.export._unescape",
        "repro.obs.export.parse_prometheus",
        "repro.obs.export.trace_rows_digest",
    ),
    **_allow(
        Reason(
            ITEM,
            "fusion rules no family writes; kept only if calibrated against "
            "ground truth",
            item="14",
        ),
        "repro.detect.confidence._fuse_product",
        "repro.detect.confidence._fuse_noisy_or",
    ),
    **_allow(
        Reason(
            ITEM,
            "Section 4 condition constructs no family states (OR, NOT, the "
            "spatial operators, the == / != relations, constant and "
            "aggregate operands, selector regions) and the geometry and "
            "time algebra only they use; each gains a family or leaves the "
            "grammar",
            item="20",
        ),
        "repro.core.aggregates._value_range",
        "repro.core.aggregates._start_of",
        "repro.core.aggregates._earliest",
        "repro.core.aggregates._identity_time",
        "repro.core.aggregates._time_spread",
        "repro.core.aggregates._enclosing_box",
        "repro.core.aggregates._identity_location",
        "repro.core.aggregates._total_area",
        "repro.core.composite.Or.roles",
        "repro.core.composite.Not.roles",
        "repro.core.conditions.TimeConst.lower",
        "repro.core.conditions.TimeConst.roles",
        "repro.core.conditions.TimeAgg.lower",
        "repro.core.conditions.TimeAgg.lower.resolve",
        "repro.core.conditions.TimeAgg.roles",
        "repro.core.conditions.LocationOf.lower",
        "repro.core.conditions.LocationOf.lower.resolve",
        "repro.core.conditions.LocationOf.roles",
        "repro.core.conditions.LocationConst.lower",
        "repro.core.conditions.LocationConst.roles",
        "repro.core.conditions.SpaceAgg.lower",
        "repro.core.conditions.SpaceAgg.lower.resolve",
        "repro.core.conditions.SpaceAgg.roles",
        "repro.core.conditions.SpatialCondition.lower",
        "repro.core.conditions.SpatialCondition.lower.run",
        "repro.core.conditions.SpatialCondition.roles",
        "repro.core.operators._close_eq",
        "repro.core.operators._close_ne",
        "repro.core.operators.SpatialOp.admits",
        "repro.core.space_model._on_segment",
        "repro.core.space_model.BoundingBox.bounding_box",
        "repro.core.space_model.BoundingBox.centroid",
        "repro.core.space_model.BoundingBox.area",
        "repro.core.space_model.BoundingBox.boundary_distance",
        "repro.core.space_model.BoundingBox.to_polygon",
        "repro.core.space_model.BoundingBox.expand",
        "repro.core.space_model.BoundingBox._edges",
        "repro.core.space_model.Circle.centroid",
        "repro.core.space_model.Circle.area",
        "repro.core.space_model.min_enclosing_box",
        "repro.core.space_model._polygon_edges_cross",
        "repro.core.spec.EntitySelector._in_region",
        "repro.core.time_model.TimeInterval.contains_point",
        "repro.core.time_model.TimeInterval.shift",
        "repro.core.time_model.TemporalRelation.inverse",
        "repro.detect.compiler._compile.run_not",
        "repro.detect.compiler._compile.run_or",
        "repro.detect.compiler._compile.run_and_strict",
        "repro.detect.role_window.RoleWindow.outside",
        "repro.dsl.compiler._Compiler._region",
        "repro.dsl.compiler._Compiler._spatial_op",
        "repro.dsl.compiler._Compiler._number_args",
        "repro.dsl.compiler._Compiler._space_expr",
        "repro.dsl.compiler._Compiler._single_ident",
    ),
    **_allow(
        Reason(
            REFERENCE,
            "the straight-line oracle tests/detect/test_emitter.py compares "
            "the lowered emitter against",
        ),
        "repro.detect.output.build_instance",
        "repro.detect.confidence.fuse",
    ),
    **_allow(
        Reason(
            REFERENCE,
            "the unrouted selector scan tests/core/test_spec.py compares "
            "the routed candidate_roles against",
        ),
        "repro.core.spec.EntitySelector.matches",
        "repro.core.spec.EventSpecification._selector_scan",
    ),
    **_allow(
        Reason(
            REFERENCE,
            "the table the spatial_relation symmetry properties "
            "(tests/core/test_space_model.py, "
            "tests/property/test_space_properties.py) compare against",
        ),
        "repro.core.space_model.SpatialRelation.inverse",
    ),
    **_allow(
        Reason(
            INPUT_ERROR,
            "malformed DSL text",
            test="tests/dsl/test_lexer_parser.py::TestParser"
            "::test_empty_source_rejected",
        ),
        "repro.dsl.parser._Parser._error",
    ),
    **_allow(
        Reason(
            INPUT_ERROR,
            "a fed confidence outside [0, 1]",
            test="tests/detect/test_emitter.py"
            "::test_a_confidence_outside_the_unit_interval_is_refused",
        ),
        "repro.detect.confidence.outside_unit_interval",
    ),
    **_allow(
        Reason(
            CONFIGURATION,
            "a checkpointed runtime with rate limits",
            test="tests/stream/test_admission.py::TestBoundedRuntime"
            "::test_checkpoint_through_active_shedding",
        ),
        "repro.stream.admission.limiter.TokenBucket.state",
        "repro.stream.admission.limiter.TokenBucket.restore",
    ),
    **_allow(
        Reason(
            CONFIGURATION,
            "the metrics view of a rate-limited controller",
            test="tests/stream/test_admission.py::TestAdmissionController"
            "::test_over_rate_defers_then_drains_on_refill",
        ),
        "repro.stream.admission.limiter.TokenBucket.tokens",
    ),
    **_allow(
        Reason(
            CONFIGURATION,
            "a checkpointed runtime over a sharded engine, whose restore "
            "this is (until item 2 deletes the sharded engine)",
            test="tests/stream/test_checkpoint.py::TestShardedSnapshotRestore"
            "::test_resumed_sharded_matches_uninterrupted",
        ),
        "repro.core.checkpoint.Restorable.restore",
    ),
    **_allow(
        Reason(
            CONFIGURATION,
            "a negative literal in DSL text",
            test="tests/dsl/test_lexer_parser.py::TestLexer"
            "::test_negative_number_in_argument",
        ),
        "repro.dsl.lexer._numeric_context",
    ),
    **_allow(
        Reason(
            CONFIGURATION,
            "a selector with two clauses its routing signature cannot decide",
            test="tests/core/test_spec.py::TestSelectorRouting"
            "::test_observation_routing_matches_selector_scan",
        ),
        "repro.core.spec.EntitySelector.residual_check.run",
    ),
    **_allow(
        Reason(
            CONFIGURATION,
            "a replay of a trilaterating sink (the intrusion family's)",
            test="tests/integration/test_conformance.py::test_replay_leg",
        ),
        "repro.stream.replay.profile_of.locate",
    ),
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether ``node``'s body is only a docstring, ``...``, ``pass`` or
    ``raise NotImplementedError``."""
    for statement in node.body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant
        ) and (
            isinstance(statement.value.value, str)
            or statement.value.value is Ellipsis
        ):
            continue
        if isinstance(statement, ast.Raise) and statement.exc is not None:
            raised = statement.exc
            if isinstance(raised, ast.Call):
                raised = raised.func
            if ast.unparse(raised) == "NotImplementedError":
                continue
        return False
    return True


def _exempt(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    dunder = node.name.startswith("__") and node.name.endswith("__")
    abstract = any(
        ast.unparse(decorator).split(".")[-1] == "abstractmethod"
        for decorator in node.decorator_list
    )
    return dunder or abstract or _is_stub(node)


def functions(path: Path, module: str) -> dict[tuple[str, int, str], str]:
    """``(file, first line, name) -> dotted name`` for each non-exempt ``def``
    in the module at ``path``, nested ones included.  A name defined
    again in the same scope (a closure per branch) gets ``#2``, ``#3``,
    ... in source order."""
    found: dict[tuple[str, int, str], str] = {}
    seen: dict[str, int] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            elif isinstance(child, _FUNCTIONS):
                name = f"{prefix}.{child.name}"
                seen[name] = seen.get(name, 0) + 1
                if seen[name] > 1:
                    name = f"{name}#{seen[name]}"
                if not _exempt(child):
                    first = min(
                        [child.lineno]
                        + [item.lineno for item in child.decorator_list]
                    )
                    found[(str(path), first, child.name)] = name
                visit(child, name)
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), module)
    return found


def definitions(
    src: Path, excluded: Sequence[str] = tuple(EXCLUDED)
) -> dict[tuple[str, int, str], str]:
    """:func:`functions` over every module of every package under
    ``src``, except the subpackages named in ``excluded``."""
    found: dict[tuple[str, int, str], str] = {}
    for path in sorted(src.resolve().rglob("*.py")):
        parts = path.relative_to(src.resolve()).with_suffix("").parts
        if len(parts) > 1 and parts[1] in excluded:
            continue
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found |= functions(path, ".".join(parts))
    return found


def entered(
    commands: Sequence[Sequence[str]], cwd: Path, src: Path
) -> tuple[set[tuple[str, int, str]], list[str]]:
    """Run each of ``commands`` (arguments to the interpreter) in ``cwd``
    with ``src`` on the path and the hook switched on.

    Returns every ``(file, first line, name)`` entered in any process they
    started, and one line per command that exited non-zero.
    """
    failures: list[str] = []
    positions: set[tuple[str, int, str]] = set()
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        hook, out = Path(scratch, "hook"), Path(scratch, "out")
        hook.mkdir()
        out.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join((str(hook), str(src))),
            REPRO_CENSUS_OUT=str(out),
        )
        for command in commands:
            done = subprocess.run(
                [sys.executable, *command], cwd=cwd, env=env,
                capture_output=True, text=True, timeout=900,
            )
            if done.returncode != 0:
                tail = (done.stderr or done.stdout).strip().splitlines()[-5:]
                failures.append(
                    f"{' '.join(command)} exited {done.returncode}: "
                    + " | ".join(tail)
                )
        for dump in out.iterdir():
            for line in dump.read_text(encoding="utf-8").splitlines():
                filename, first, name = line.rsplit("\t", 2)
                positions.add((filename, int(first), name))
    return positions, failures


def disagreements(
    defined: dict[tuple[str, int, str], str],
    reached: set[tuple[str, int, str]],
    allowed: dict[str, Reason],
) -> dict[str, list[str]]:
    """Where the unentered functions and ``allowed`` differ, both ways."""
    unentered = {name for key, name in defined.items() if key not in reached}
    return {
        "never entered": sorted(unentered - allowed.keys()),
        "allowed but entered": sorted(
            (allowed.keys() & set(defined.values())) - unentered
        ),
        "allowed but not defined": sorted(
            allowed.keys() - set(defined.values())
        ),
    }


def reason_problems(
    allowed: dict[str, Reason], root: Path = ROOT
) -> list[str]:
    """Each entry of ``allowed`` whose reason is not one of the four
    kinds, names no open item, or names a test that does not exist."""
    problems = []
    for name, reason in sorted(allowed.items()):
        if reason.kind not in KINDS:
            problems.append(f"{name}: unknown kind {reason.kind!r}")
        elif reason.kind == ITEM and reason.item not in OPEN_ITEMS:
            problems.append(f"{name}: item {reason.item!r} is not open")
        elif reason.kind in (INPUT_ERROR, CONFIGURATION) and not _test_exists(
            reason.test, root
        ):
            problems.append(f"{name}: no test {reason.test!r}")
    return problems


def _test_exists(node_id: str | None, root: Path) -> bool:
    if not node_id or "::" not in node_id:
        return False
    filename, *scopes = node_id.split("::")
    path = root / filename
    if not path.is_file():
        return False
    names = {
        node.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef))
    }
    return all(scope.split("[")[0] in names for scope in scopes)


def entry_points(root: Path = ROOT) -> list[tuple[str, ...]]:
    """The runs the census watches, as interpreter arguments."""
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        workloads = [entry["name"] for entry in json.load(handle)["workloads"]]
    return [
        *((str(path.relative_to(root)),)
          for path in sorted((root / "examples").glob("*.py"))),
        *(("-m", "repro.obs.report", "--format", format)
          for format in ("text", "json", "prometheus")),
        *(("benchmarks/ledger/run.py", "--workload", workload,
           "--preset", "small", "--seconds", "0.5", "--trace", "1")
          for workload in workloads),
        ("-m", "pytest", "benchmarks/", "-q", "--quick",
         "-p", "no:cacheprovider"),
    ]


def main() -> int:
    started = time.perf_counter()
    src = ROOT / "src"
    defined = definitions(src)
    reached, failures = entered(entry_points(), ROOT, src)
    found = disagreements(defined, reached, ALLOWED)
    problems = reason_problems(ALLOWED)
    unentered = sum(key not in reached for key in defined)
    print(
        f"census: {len(defined)} functions checked, "
        f"{len(defined) - unentered} entered, {unentered} never entered, "
        f"{len(ALLOWED)} allowed"
    )
    for failure in failures:
        print(f"entry point failed: {failure}")
    for heading, names in found.items():
        for name in names:
            print(f"{heading}: {name}")
    for problem in problems:
        print(f"bad reason: {problem}")
    print(f"census wall time: {time.perf_counter() - started:.1f} s")
    return int(bool(failures or problems or any(found.values())))


if __name__ == "__main__":
    sys.exit(main())
