"""Test oracles for the detection path: the condition language's
reference semantics (:func:`evaluate`, :func:`resolve`) and the naive
engine built on them (:class:`NaiveEngine`).

The program ships one evaluator, the lowered closures of
:meth:`repro.core.conditions.Condition.lower` compiled by
:func:`repro.detect.compiler.compile_condition`, behind the planner's
masks.  The differential tests compare it with what this package states
independently.
"""

from tests.reference.conditions import evaluate, resolve
from tests.reference.engine import NaiveEngine

__all__ = ["evaluate", "resolve", "NaiveEngine"]
