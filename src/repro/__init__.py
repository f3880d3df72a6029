"""repro — spatio-temporal event model for cyber-physical systems.

A production-quality reproduction of Tan, Vuran & Goddard,
"Spatio-Temporal Event Model for Cyber-Physical Systems" (ICDCS
Workshops 2009), plus every substrate the paper depends on:

* :mod:`repro.core` — the event model itself: time/space models,
  events, observers, event instances, the three condition families and
  composite condition trees (Sections 4-5);
* :mod:`repro.cps` — the CPS architecture: sensors, actuators, motes,
  sink/dispatch nodes, CCUs, event bus, database servers (Section 3,
  Figure 1);
* :mod:`repro.detect` — the windowed detection engine observers run;
* :mod:`repro.shard` — spatially sharded detection, a replay backend
  only: partitioned engines with halo routing and exact cross-shard
  merge, built by :class:`~repro.stream.replay.ReplayObserver`;
* :mod:`repro.network` — the wireless sensor/actor network substrate;
* :mod:`repro.physical` — the simulated physical world;
* :mod:`repro.sim` — the deterministic discrete-event kernel;
* :mod:`repro.dsl` — a text language for event specifications;
* :mod:`repro.baselines` — ECA / Snoop / SnoopIB / RTL comparators
  (Section 2);
* :mod:`repro.analysis` — EDL and end-to-end latency models (the
  paper's future work, Section 6);
* :mod:`repro.workloads` — ready-made scenarios;
* :mod:`repro.metrics` — detection scoring against ground truth.

Quickstart::

    from repro.workloads import build_scenario

    scenario = build_scenario("forest_fire", "medium", seed=1)
    scenario.system.run(until=800)
    print(scenario.system.instances_by_layer())
"""

from repro import (
    analysis,
    baselines,
    core,
    cps,
    detect,
    dsl,
    metrics,
    network,
    physical,
    sim,
    workloads,
)
from repro.core import (
    And,
    AttributeCondition,
    AttributeTerm,
    BoundingBox,
    Circle,
    ConfidenceCondition,
    EntitySelector,
    Event,
    EventInstance,
    EventLayer,
    EventSpecification,
    Leaf,
    LocationConst,
    LocationOf,
    Not,
    ObserverId,
    ObserverKind,
    Or,
    OutputAttribute,
    OutputPolicy,
    PhysicalEvent,
    PhysicalObservation,
    PointLocation,
    Polygon,
    RelationalOp,
    SpatialClass,
    SpatialCondition,
    SpatialMeasureCondition,
    SpatialOp,
    SpatialRelation,
    TemporalClass,
    TemporalCondition,
    TemporalMeasureCondition,
    TemporalOp,
    TemporalRelation,
    TimeInterval,
    TimeOf,
    TimePoint,
    all_of,
    any_of,
    spatial_relation,
    temporal_relation,
)
from repro.cps import CPSSystem
from repro.dsl import compile_source

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # subpackages
    "core", "cps", "detect", "network", "physical", "sim", "dsl",
    "baselines", "analysis", "workloads", "metrics",
    # headline API
    "TimePoint", "TimeInterval", "TemporalRelation", "temporal_relation",
    "PointLocation", "Polygon", "Circle", "BoundingBox", "SpatialRelation",
    "spatial_relation", "Event", "PhysicalEvent", "PhysicalObservation",
    "EventInstance", "EventLayer", "TemporalClass", "SpatialClass",
    "ObserverId", "ObserverKind", "RelationalOp", "TemporalOp", "SpatialOp",
    "AttributeCondition", "AttributeTerm", "TemporalCondition",
    "TemporalMeasureCondition", "SpatialCondition", "SpatialMeasureCondition",
    "ConfidenceCondition", "TimeOf", "LocationOf", "LocationConst",
    "And", "Or", "Not", "Leaf", "all_of", "any_of",
    "EntitySelector", "EventSpecification", "OutputAttribute", "OutputPolicy",
    "CPSSystem", "compile_source",
]
