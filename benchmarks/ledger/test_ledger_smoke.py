"""Smoke test of the performance ledger (collected by ``pytest benchmarks/``).

Runs the whole suite once at the ``small`` preset with a single pass per
workload — every workload, untraced and traced, through the same
subprocess path the real run takes — and checks the report against
``BENCHMARK.json``.  No timing is asserted.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def contract():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """One suite run: ``(stdout, report, trace directory)``."""
    out = tmp_path_factory.mktemp("ledger")
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--preset", "small",
            "--seconds", "0",
            "--out", str(out / "report.json"),
            "--trace-out", str(out / "traces"),
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    with open(out / "report.json", encoding="utf-8") as handle:
        return done.stdout, json.load(handle), out / "traces"


def test_every_named_metric_is_emitted_exactly_once(contract, suite):
    stdout, report, _ = suite
    lines = stdout.splitlines()
    assert list(report["workloads"]) == [w["name"] for w in contract["workloads"]]
    for workload, run in report["workloads"].items():
        assert run["correct"], run["problems"]
        assert run["failed_share"] == 0
        for section in ("end_to_end", "per_layer"):
            listed = [entry["name"] for entry in contract[section]]
            assert list(run[section]) == listed
            for entry in contract[section]:
                stat = run[section][entry["name"]]
                assert stat["unit"] == entry["unit"]
                assert isinstance(stat["value"], (int, float))
                prefix = f"{workload} {entry['name']} "
                printed = [line for line in lines if line.startswith(prefix)]
                assert len(printed) == 1, prefix
                assert printed[0].split()[3] == entry["unit"]
        assert run["end_to_end"]["obs_per_s"]["value"] > 0


def test_names_are_plain(contract):
    names = [w["name"] for w in contract["workloads"]]
    names += [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_hygiene_is_recorded(suite):
    _, report, _ = suite
    hygiene = report["hygiene"]
    for key in ("commit", "python", "nproc", "seed", "noisy",
                "load_1min_start", "load_1min_end"):
        assert key in hygiene
    for run in report["workloads"].values():
        assert run["passes"] == 1


def test_trace_parses_and_closes(contract, suite):
    _, report, traces = suite
    for entry in contract["workloads"]:
        name = entry["name"]
        with open(traces / f"{name}.jsonl", encoding="utf-8") as handle:
            spans = [json.loads(line) for line in handle]
        assert spans
        for index, span in enumerate(spans):
            assert span["span"] == index
            assert span["end_ns"] >= span["start_ns"]
            assert span["parent"] < index
        # 0.98-1.02 at the pinned sizes.  Steps this small (20 us) leave the
        # span wrapper's own entry and exit, which no span can cover, at 2-3 %.
        closure = report["workloads"][name]["per_layer"]["bench.trace_closure"]
        assert 0.95 <= closure["value"] <= 1.02, (name, closure)


def test_corrupted_reference_fails_the_gate():
    import harness
    from speed import SpeedMeter

    workload = harness.WORKLOADS["stream_dense"]
    meter = SpeedMeter()
    inputs = workload.setup(0, "small", meter)
    assert workload.run_pass(inputs, meter).failed == 0
    feed = max(inputs.feeds, key=lambda f: len(f.reference))
    feed.reference = feed.reference[:-1]
    corrupted = workload.run_pass(inputs, meter)
    assert corrupted.failed > 0
    assert corrupted.problems


def test_compare_judges_against_the_bound(contract):
    import compare

    bound = next(
        m["bound"] for m in contract["end_to_end"] if m["name"] == "setup_s"
    )
    base = {"value": 10.0, "q1": 9.9, "q3": 10.1}

    def moved(by: float, spread: float = 0.01) -> dict:
        value = 10.0 * (1 + by)
        return {"value": value, "q1": value - spread, "q3": value + spread}

    assert compare.verdict(base, moved(bound / 2), "lower", bound) == "same"
    assert compare.verdict(base, moved(bound * 2), "lower", bound) == "worse"
    assert compare.verdict(base, moved(-bound * 2), "lower", bound) == "better"
    assert compare.verdict(base, moved(bound * 2), "higher", bound) == "better"
    noisy = moved(bound / 2, spread=10.0 * bound)
    assert compare.verdict(base, noisy, "lower", bound) == "unresolved"
