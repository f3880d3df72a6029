"""Detection engine: role windows, plans, intervals, localization."""

from repro.detect.compiler import CompiledCondition, compile_condition
from repro.detect.confidence import FUSION_METHODS, confidence_from_margin, fuse
from repro.detect.engine import DetectionEngine, EngineStats, Match
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
from repro.detect.localize import (
    centroid_estimate,
    trilaterate,
    weighted_centroid,
)
from repro.detect.output import InstanceLog, build_instance
from repro.detect.role_window import RoleWindow

__all__ = [
    "DetectionEngine",
    "EngineStats",
    "Match",
    "build_instance",
    "InstanceLog",
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
    "trilaterate",
]
