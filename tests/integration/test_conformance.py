"""Golden-trace conformance: every registered scenario, every backend.

The contract this suite pins down, for *every* scenario in the registry
(small preset, registered seed):

* **planner/naive equivalence** — running the whole system with
  plan-driven engines (the default ``EngineConfig()``) and with the
  exhaustive baseline (``EngineConfig(use_planner=False)``) produces
  identical behavior: the same emitted instances at every observer, the
  same actuations, the same behavioral trace digest.  Pruning may only
  reduce ``bindings_evaluated``, never change a match set.
* **sharded equivalence** — the third differential leg: the spatially
  sharded backend (``EngineConfig(shards=4)``, grid and stripes, at
  every sink/CCU) reproduces the same match sets and the same golden
  digests; halo routing plus exact merge may never change behavior,
  only distribute it.
* **metrics invariants** — engine counters and instance fields satisfy
  their structural laws (matches never exceed evaluated bindings, the
  naive engine never prunes, confidences stay in [0, 1], detection
  latencies are non-negative, every layer of the hierarchy is reached).
* **digest stability** — the behavioral digest matches the checked-in
  golden file, so any PR that changes end-to-end behavior must
  regenerate goldens (``pytest --update-golden``) and show the diff.
* **determinism** — the same seed reproduces a byte-identical digest;
  a different seed produces a different one.

Keeping this green is what makes optimization PRs safe to land: a
planner/index/batching change that alters behavior anywhere in the
stack fails here before it reaches a benchmark.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.event import EventLayer
from repro.shard import EngineConfig
from repro.sim.trace import trace_digest
from repro.workloads import build_scenario, scenario_names

GOLDEN_DIR = Path(__file__).parent / "golden"

BEHAVIOR_CATEGORIES = ("instance.emit", "command.executed")
"""Trace categories that constitute observable end-to-end behavior:
every event instance any observer emits (all three layers) and every
actuator command executed against the physical world."""

ALT_SEED = 20260729
"""Seed used to show digests are seed-sensitive, not constants."""

PLANNED = EngineConfig()
NAIVE = EngineConfig(use_planner=False)
SHARDED = EngineConfig(shards=4)
STRIPES = EngineConfig(shards=4, partition="stripes")
"""The differential legs: every registered scenario runs on all four."""


def _observers(system):
    return [
        *system.motes.values(),
        *system.sinks.values(),
        *system.ccus.values(),
    ]


def _behavior_digest(scenario) -> str:
    return trace_digest(scenario.system.trace.filtered(BEHAVIOR_CATEGORIES))


def _match_set(scenario):
    """Observable identity of every emitted instance, across observers."""
    out = set()
    for observer in _observers(scenario.system):
        for instance in observer.emitted:
            out.add(
                (
                    repr(instance.observer),
                    instance.event_id,
                    instance.seq,
                    instance.generated_time.tick,
                    repr(instance.estimated_time),
                    repr(instance.estimated_location),
                    round(instance.confidence, 12),
                    tuple(sorted(instance.attributes)),
                )
            )
    return out


_cache: dict[tuple, object] = {}


def _run(name: str, engine: EngineConfig = PLANNED, seed: int | None = None):
    """Build+run one registered scenario (memoized per session)."""
    key = (name, engine, seed)
    if key not in _cache:
        scenario = build_scenario(
            name, preset="small", seed=seed, engine=engine
        )
        scenario.system.run(until=scenario.params["horizon"])
        _cache[key] = scenario
    return _cache[key]


def _golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def _golden_payload(name: str, scenario) -> dict:
    layers = scenario.system.instances_by_layer()
    behavior = scenario.system.trace.filtered(BEHAVIOR_CATEGORIES)
    categories: dict[str, int] = {}
    for record in behavior:
        categories[record.category] = categories.get(record.category, 0) + 1
    return {
        "scenario": name,
        "preset": "small",
        "seed": scenario.system.sim.seed,
        "digest": _behavior_digest(scenario),
        "behavior_records": len(behavior),
        "categories": dict(sorted(categories.items())),
        "instances_by_layer": {
            layer.name: count for layer, count in sorted(
                layers.items(), key=lambda kv: kv[0].value
            )
        },
    }


@pytest.mark.parametrize("name", scenario_names())
class TestPlannerNaiveEquivalence:
    def test_match_sets_equal(self, name):
        planner = _run(name)
        naive = _run(name, NAIVE)
        assert _match_set(planner) == _match_set(naive)

    def test_behavior_digests_equal(self, name):
        planner = _run(name)
        naive = _run(name, NAIVE)
        assert _behavior_digest(planner) == _behavior_digest(naive)

    def test_planner_never_evaluates_more_bindings(self, name):
        planner = _run(name)
        naive = _run(name, NAIVE)
        for p_obs, n_obs in zip(
            _observers(planner.system), _observers(naive.system)
        ):
            assert p_obs.name == n_obs.name
            assert (
                p_obs.engine.stats.bindings_evaluated
                <= n_obs.engine.stats.bindings_evaluated
            )
            assert p_obs.engine.stats.matches == n_obs.engine.stats.matches


@pytest.mark.parametrize("name", scenario_names())
class TestShardedConformance:
    """The sharded backend as the third differential leg.

    ``SHARDED`` installs a ShardedDetectionEngine at every sink and
    CCU; halo routing plus exact cross-shard merge must reproduce the
    single-engine behavior byte-for-byte on every registered scenario.
    """

    def test_sharded_vs_naive_match_sets(self, name):
        # The CI conformance-matrix leg: partitioned + planned versus
        # the exhaustive single-engine baseline.
        sharded = _run(name, SHARDED)
        naive = _run(name, NAIVE)
        assert _match_set(sharded) == _match_set(naive)

    def test_sharded_digest_matches_golden(self, name):
        sharded = _run(name, SHARDED)
        path = _golden_path(name)
        if not path.exists():
            pytest.skip("golden not generated yet")
        golden = json.loads(path.read_text())
        assert _behavior_digest(sharded) == golden["digest"], (
            f"sharded backend diverged from the golden trace of {name!r}; "
            f"sharding must redistribute detection, never change it"
        )

    def test_stripes_partition_same_behavior(self, name):
        grid = _run(name, SHARDED)
        stripes = _run(name, STRIPES)
        assert _behavior_digest(grid) == _behavior_digest(stripes)

    def test_sharded_engine_counter_laws(self, name):
        sharded = _run(name, SHARDED)
        single = _run(name)
        for sh_obs, si_obs in zip(
            _observers(sharded.system), _observers(single.system)
        ):
            assert sh_obs.name == si_obs.name
            stats = sh_obs.engine.stats
            assert stats.matches == si_obs.engine.stats.matches
            assert 0 <= stats.matches <= stats.bindings_evaluated
            assert stats.entities_submitted == (
                si_obs.engine.stats.entities_submitted
            )
            assert stats.evaluation_errors == 0


@pytest.mark.parametrize("name", scenario_names())
class TestMetricsInvariants:
    def test_engine_counter_laws(self, name):
        planner = _run(name)
        naive = _run(name, NAIVE)
        for scenario in (planner, naive):
            for observer in _observers(scenario.system):
                stats = observer.engine.stats
                assert 0 <= stats.matches <= stats.bindings_evaluated
                assert stats.entities_submitted >= 0
                assert stats.batches_submitted >= 0
                assert stats.evaluation_errors == 0
        for observer in _observers(naive.system):
            assert observer.engine.stats.candidates_pruned == 0

    def test_instance_field_laws(self, name):
        scenario = _run(name)
        for observer in _observers(scenario.system):
            for instance in observer.emitted:
                assert 0.0 <= instance.confidence <= 1.0
                assert instance.detection_latency >= 0
                assert instance.layer is observer.layer

    def test_every_layer_reached(self, name):
        scenario = _run(name)
        layers = scenario.system.instances_by_layer()
        for layer in (
            EventLayer.SENSOR,
            EventLayer.CYBER_PHYSICAL,
            EventLayer.CYBER,
        ):
            assert layers.get(layer, 0) >= 1, f"{name} never reached {layer}"

    def test_loop_closed_by_actuation(self, name):
        scenario = _run(name)
        assert scenario.system.trace.count("command.executed") >= 1


@pytest.mark.parametrize("name", scenario_names())
class TestGoldenTraces:
    def test_digest_matches_golden(self, name, request):
        scenario = _run(name)
        payload = _golden_payload(name, scenario)
        path = _golden_path(name)
        if request.config.getoption("--update-golden"):
            GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(payload, indent=2) + "\n")
            return
        assert path.exists(), (
            f"no golden trace for scenario {name!r}; generate it with "
            f"'pytest tests/integration/test_conformance.py --update-golden' "
            f"and commit {path}"
        )
        golden = json.loads(path.read_text())
        assert payload["digest"] == golden["digest"], (
            f"behavioral digest of scenario {name!r} drifted from its "
            f"golden trace; if the change is intended, regenerate with "
            f"--update-golden and review the committed diff"
        )
        assert payload["behavior_records"] == golden["behavior_records"]
        assert payload["categories"] == golden["categories"]
        assert payload["instances_by_layer"] == golden["instances_by_layer"]


@pytest.mark.parametrize("name", scenario_names())
class TestDeterminism:
    def test_same_seed_byte_identical(self, name):
        spec_seed = _run(name).system.sim.seed
        first = build_scenario(name, preset="small", seed=spec_seed)
        first.system.run(until=first.params["horizon"])
        assert _behavior_digest(first) == _behavior_digest(_run(name))
        # The full trace (every packet, sample and bus delivery), not
        # just the behavioral subset, must replay byte-identically.
        assert first.system.trace.digest() == _run(name).system.trace.digest()

    def test_different_seed_different_digest(self, name):
        assert _behavior_digest(_run(name, seed=ALT_SEED)) != _behavior_digest(
            _run(name)
        )
