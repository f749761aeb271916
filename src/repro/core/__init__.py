"""Core of the reproduction: patterns, engines, and their building blocks.

The stable public surface of ``repro.core`` is re-exported here; see
``repro`` (the top-level package) for the library-wide API.
"""

from repro.core.clock import StreamClock
from repro.core.engine import (
    EmissionRecord,
    Engine,
    OutOfOrderEngine,
    ValidationPolicy,
)
from repro.core.errors import (
    ConfigurationError,
    EngineStateError,
    ParseError,
    QueryError,
    RecoveryError,
    ReproError,
    SnapshotError,
    StreamError,
)
from repro.core.event import Event, Punctuation, StreamElement, is_event, sort_by_occurrence
from repro.core.inorder import InOrderEngine
from repro.core.oracle import OfflineOracle, oracle_matches
from repro.core.parser import parse
from repro.core.colbatch import EventBatch
from repro.core.partition import (
    PartitionedEngine,
    detect_partition_key,
)
from repro.core.pattern import KleeneBracket, Match, NegationBracket, Pattern, Step, seq
from repro.core.plan import MultiQueryPlan, QueryPlan
from repro.core.predicates import (
    And,
    Attr,
    Comparison,
    Const,
    Eq,
    FnPredicate,
    Ge,
    Gt,
    Le,
    Lt,
    Ne,
    Not,
    Or,
    Predicate,
)
from repro.core.purge import PurgeMode, PurgePolicy
from repro.core.recovery import ResilientRunner, clear_state
from repro.core.reorder import ReorderingEngine
from repro.core.shedding import ShedMode, ShedPolicy
from repro.core.stats import EngineStats
from repro.core.transformation import CompositeEventFactory

__all__ = [
    "And",
    "Attr",
    "Comparison",
    "CompositeEventFactory",
    "ConfigurationError",
    "Const",
    "EmissionRecord",
    "Engine",
    "EngineStateError",
    "EngineStats",
    "Eq",
    "Event",
    "FnPredicate",
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
    "ParseError",
    "EventBatch",
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
    "clear_state",
    "is_event",
    "oracle_matches",
    "parse",
    "seq",
    "detect_partition_key",
    "sort_by_occurrence",
]
