"""Related-work baseline engines the paper positions itself against
(Section 2): point-based ECA rules, Snoop's point-semantics conjunction
and SnoopIB's interval relations.  These are the operators the E8
comparison (``benchmarks/bench_baseline_comparison.py``) builds; its
RTL row, a fixed post-door-start deadline, is written out there."""

from repro.baselines.eca import EcaEngine, EcaRule, EcaTrigger
from repro.baselines.snoop import (
    CONTEXTS,
    Conj,
    EventNode,
    Occurrence,
    Primitive,
    SnoopEngine,
)
from repro.baselines.snoopib import (
    IntervalOccurrence,
    IntervalPrimitive,
    IntervalRelation,
    SnoopIBEngine,
)

__all__ = [
    "EcaEngine",
    "EcaRule",
    "EcaTrigger",
    "SnoopEngine",
    "EventNode",
    "Primitive",
    "Conj",
    "Occurrence",
    "CONTEXTS",
    "SnoopIBEngine",
    "IntervalPrimitive",
    "IntervalRelation",
    "IntervalOccurrence",
]
