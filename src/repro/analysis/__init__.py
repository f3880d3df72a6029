"""Formal analyses: the EDL model and the end-to-end latency model."""

from repro.analysis.e2e import EndToEndModel
from repro.analysis.edl import EdlBreakdown, EdlModel

__all__ = [
    "EdlModel",
    "EdlBreakdown",
    "EndToEndModel",
]
