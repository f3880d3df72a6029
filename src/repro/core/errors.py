"""Exception hierarchy for the spatio-temporal event model.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything coming out of the library with a single ``except``
clause while still distinguishing the failure domain (temporal, spatial,
condition, simulation, network, ...) when they need to.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by this library."""


class TemporalError(ReproError):
    """An invalid temporal construction or operation.

    Examples: an interval whose end precedes its start, or applying an
    interval-only relation (such as ``Overlaps``) to two time points.
    """


class SpatialError(ReproError):
    """An invalid spatial construction or operation.

    Examples: a polygon with fewer than three vertices, or a spatial
    relation that is undefined for the operand classes.
    """


class ConditionError(ReproError):
    """An event condition is malformed or cannot be evaluated.

    Raised when a condition references an entity name missing from the
    binding, uses an unknown aggregation function, or mixes operand
    types the operator does not accept.
    """


class BindingError(ConditionError):
    """An entity binding does not satisfy a condition's requirements."""


class SpecificationError(ReproError):
    """An event specification (DSL or programmatic) is invalid."""


class DslSyntaxError(SpecificationError):
    """The DSL source text failed to lex or parse.

    Attributes:
        line: 1-based line of the offending token.
        column: 1-based column of the offending token.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class SimulationError(ReproError):
    """The discrete-event simulation kernel detected an invalid state."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or after the simulation end."""


class NetworkError(ReproError):
    """A network-layer failure (unknown node, no route, bad packet)."""


class RoutingError(NetworkError):
    """No route exists between two nodes of the CPS network."""


class ComponentError(ReproError):
    """A CPS hardware component was misconfigured or misused."""


class ObserverError(ComponentError):
    """An observer could not evaluate event conditions or emit instances."""


class DatabaseError(ReproError):
    """The event-instance database rejected an operation or query."""


class AnalysisError(ReproError):
    """A formal analysis (EDL or end-to-end latency model) failed."""
