"""Detection engine: role windows, plans, intervals, localization."""

from repro.detect.compiler import CompiledCondition, compile_condition
from repro.detect.confidence import FUSION_METHODS, confidence_from_margin, fuse
from repro.detect.engine import DetectionEngine, EngineStats, Match, build_instance
from repro.detect.planner import (
    DistanceClause,
    EvaluationPlan,
    OrderClause,
    RegionClause,
    compile_plan,
)
from repro.detect.interval_builder import (
    IntervalBuilder,
    Transition,
    TransitionKind,
)
from repro.detect.latency import EndToEndTracker, LatencyProbe
from repro.detect.localize import (
    box_estimate,
    centroid_estimate,
    hull_estimate,
    trilaterate,
    weighted_centroid,
)
from repro.detect.role_window import RoleWindow

__all__ = [
    "DetectionEngine",
    "EngineStats",
    "Match",
    "build_instance",
    "CompiledCondition",
    "compile_condition",
    "RoleWindow",
    "EvaluationPlan",
    "DistanceClause",
    "RegionClause",
    "OrderClause",
    "compile_plan",
    "IntervalBuilder",
    "Transition",
    "TransitionKind",
    "confidence_from_margin",
    "fuse",
    "FUSION_METHODS",
    "centroid_estimate",
    "weighted_centroid",
    "hull_estimate",
    "box_estimate",
    "trilaterate",
    "LatencyProbe",
    "EndToEndTracker",
]
