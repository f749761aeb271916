"""repro: out-of-order complex event processing.

A production-quality Python reproduction of *Event Stream Processing
with Out-of-Order Data Arrival* (Li, Liu, Ding, Rundensteiner, Mani —
ICDCS 2007 workshops): sequence pattern queries (``SEQ`` with
predicates, negation, and windows) evaluated natively over event
streams whose arrival order diverges from occurrence order.

Quickstart
----------
>>> from repro import Event, OutOfOrderEngine, parse
>>> query = parse("PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 10")
>>> engine = OutOfOrderEngine(query, k=5)
>>> engine.feed(Event("B", 4, {"x": 1}))     # arrives before its A!
[]
>>> engine.feed(Event("A", 2, {"x": 1}))     # late event completes the match
[Match[q](A@2#..., B@4#...)]

See ``README.md`` for the architecture tour and ``DESIGN.md`` for the
paper-to-module map.
"""

from repro.core import (
    And,
    Attr,
    Comparison,
    CompositeEventFactory,
    ConfigurationError,
    Const,
    EmissionRecord,
    EventBatch,
    Engine,
    EngineStateError,
    EngineStats,
    Eq,
    Event,
    Ge,
    Gt,
    InOrderEngine,
    KleeneBracket,
    Le,
    Lt,
    Match,
    MultiQueryPlan,
    Ne,
    NegationBracket,
    Not,
    OfflineOracle,
    Or,
    OutOfOrderEngine,
    ParseError,
    PartitionedEngine,
    Pattern,
    Predicate,
    Punctuation,
    PurgeMode,
    PurgePolicy,
    QueryError,
    QueryPlan,
    RecoveryError,
    ReorderingEngine,
    ReproError,
    ResilientRunner,
    ShedMode,
    ShedPolicy,
    SnapshotError,
    Step,
    StreamClock,
    StreamElement,
    StreamError,
    ValidationPolicy,
    detect_partition_key,
    is_event,
    parse,
    seq,
    sort_by_occurrence,
)
from repro.faultinject import CrashError, FaultInjector

__version__ = "1.0.0"

__all__ = [
    "And",
    "Attr",
    "Comparison",
    "CompositeEventFactory",
    "ConfigurationError",
    "Const",
    "CrashError",
    "EmissionRecord",
    "Engine",
    "EngineStateError",
    "EngineStats",
    "Eq",
    "Event",
    "FaultInjector",
    "Ge",
    "Gt",
    "InOrderEngine",
    "KleeneBracket",
    "Le",
    "Lt",
    "Match",
    "MultiQueryPlan",
    "Ne",
    "NegationBracket",
    "Not",
    "OfflineOracle",
    "Or",
    "OutOfOrderEngine",
    "EventBatch",
    "ParseError",
    "PartitionedEngine",
    "Pattern",
    "Predicate",
    "Punctuation",
    "PurgeMode",
    "PurgePolicy",
    "QueryError",
    "QueryPlan",
    "RecoveryError",
    "ReorderingEngine",
    "ReproError",
    "ResilientRunner",
    "ShedMode",
    "ShedPolicy",
    "SnapshotError",
    "Step",
    "StreamClock",
    "StreamElement",
    "StreamError",
    "ValidationPolicy",
    "__version__",
    "detect_partition_key",
    "is_event",
    "parse",
    "seq",
    "sort_by_occurrence",
]
