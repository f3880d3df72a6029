"""Core spatio-temporal event model (Sections 4 and 5 of the paper).

Everything the event model defines — time and space models, events and
their classifications, observers and event instances, the three
condition families with their operators and aggregation functions, and
composite condition trees — lives in this package.  The subpackages
build on it: ``repro.cps`` implements the hardware architecture whose
observers evaluate these conditions, ``repro.detect`` the evaluation
engine, and ``repro.analysis`` the formal latency analyses.
"""

from repro.core.aggregates import (
    SPACE_AGGREGATES,
    SPACE_MEASURES,
    TIME_AGGREGATES,
    TIME_MEASURES,
    VALUE_AGGREGATES,
)
from repro.core.composite import (
    And,
    ConditionNode,
    Leaf,
    Not,
    Or,
    all_of,
    as_node,
)
from repro.core.conditions import (
    AttributeCondition,
    AttributeTerm,
    Binding,
    Condition,
    ConfidenceCondition,
    LocationConst,
    LocationOf,
    SpaceAgg,
    SpatialCondition,
    SpatialMeasureCondition,
    TemporalCondition,
    TemporalMeasureCondition,
    TimeAgg,
    TimeConst,
    TimeOf,
)
from repro.core.entity import Entity, confidence_of, entity_key
from repro.core.errors import (
    AnalysisError,
    BindingError,
    ComponentError,
    ConditionError,
    DatabaseError,
    DslSyntaxError,
    NetworkError,
    ObserverError,
    ReproError,
    RoutingError,
    SchedulingError,
    SimulationError,
    SpatialError,
    SpecificationError,
    TemporalError,
)
from repro.core.event import (
    Event,
    EventLayer,
    PhysicalEvent,
    SpatialClass,
    TemporalClass,
    spatial_class_of,
    temporal_class_of,
)
from repro.core.instance import (
    CyberEventInstance,
    CyberPhysicalEventInstance,
    EventInstance,
    ObserverId,
    ObserverKind,
    PhysicalObservation,
    SensorEventInstance,
)
from repro.core.operators import LogicalOp, RelationalOp, SpatialOp, TemporalOp
from repro.core.space_model import (
    BoundingBox,
    Circle,
    Field,
    PointLocation,
    Polygon,
    SpatialEntity,
    SpatialRelation,
    centroid_of_points,
    convex_hull,
    min_enclosing_box,
    spatial_relation,
)
from repro.core.spec import (
    EntitySelector,
    EventSpecification,
    OutputAttribute,
    OutputPolicy,
)
from repro.core.time_model import (
    EPOCH,
    Clock,
    TemporalEntity,
    TemporalRelation,
    TimeInterval,
    TimePoint,
    allen_relation,
    hull,
    intersect,
    temporal_relation,
)

__all__ = [
    # time
    "TimePoint", "TimeInterval", "TemporalEntity", "TemporalRelation",
    "temporal_relation", "allen_relation", "hull", "intersect", "Clock",
    "EPOCH",
    # space
    "PointLocation", "Field", "BoundingBox", "Circle", "Polygon",
    "SpatialEntity", "SpatialRelation", "spatial_relation", "convex_hull",
    "centroid_of_points", "min_enclosing_box",
    # events and instances
    "Event", "PhysicalEvent", "EventLayer", "TemporalClass", "SpatialClass",
    "temporal_class_of", "spatial_class_of", "ObserverId", "ObserverKind",
    "PhysicalObservation", "EventInstance", "SensorEventInstance",
    "CyberPhysicalEventInstance", "CyberEventInstance",
    # entity access
    "Entity", "confidence_of", "entity_key",
    # operators
    "RelationalOp", "TemporalOp", "SpatialOp", "LogicalOp",
    # aggregates
    "VALUE_AGGREGATES", "TIME_AGGREGATES", "TIME_MEASURES",
    "SPACE_AGGREGATES", "SPACE_MEASURES",
    # conditions
    "Condition", "Binding", "AttributeTerm", "AttributeCondition",
    "TemporalCondition", "TemporalMeasureCondition", "SpatialCondition",
    "SpatialMeasureCondition", "ConfidenceCondition", "TimeOf", "TimeConst",
    "TimeAgg", "LocationOf", "LocationConst", "SpaceAgg",
    # composite
    "ConditionNode", "Leaf", "And", "Or", "Not", "all_of", "as_node",
    # specifications
    "EntitySelector", "EventSpecification", "OutputAttribute", "OutputPolicy",
    # errors
    "ReproError", "TemporalError", "SpatialError", "ConditionError",
    "BindingError", "SpecificationError", "DslSyntaxError", "SimulationError",
    "SchedulingError", "NetworkError", "RoutingError", "ComponentError",
    "ObserverError", "DatabaseError", "AnalysisError",
]
