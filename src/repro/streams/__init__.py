"""Stream substrate: sources, disorder models, merging, K estimation."""

from repro.streams.disorder import (
    BurstDropoutModel,
    DelayModel,
    DisorderStats,
    NoDisorder,
    RandomDelayModel,
    SwapModel,
    measure_disorder,
    required_k,
)
from repro.streams.controller import AdaptiveKController, ControllerDecision
from repro.streams.kslack import (
    AdaptiveEngineFeeder,
    FixedK,
    KEstimator,
    MaxObservedK,
    QuantileK,
)
from repro.streams.merge import OrderedMerge, interleave_by_arrival, merge_ordered_streams
from repro.streams.punctuation import (
    HeartbeatPunctuator,
    PeriodicPunctuator,
    strip_punctuation,
    validate_punctuation,
)
from repro.streams.replay import dump_trace, load_trace, roundtrip_equal
from repro.streams.spill import SpillingReorderBuffer
from repro.streams.source import (
    EventSource,
    PoissonSource,
    ScriptedSource,
    SyntheticSource,
)

__all__ = [
    "AdaptiveEngineFeeder",
    "AdaptiveKController",
    "BurstDropoutModel",
    "ControllerDecision",
    "DelayModel",
    "DisorderStats",
    "EventSource",
    "FixedK",
    "HeartbeatPunctuator",
    "KEstimator",
    "MaxObservedK",
    "NoDisorder",
    "OrderedMerge",
    "PeriodicPunctuator",
    "PoissonSource",
    "QuantileK",
    "RandomDelayModel",
    "ScriptedSource",
    "SpillingReorderBuffer",
    "SwapModel",
    "SyntheticSource",
    "dump_trace",
    "interleave_by_arrival",
    "load_trace",
    "measure_disorder",
    "merge_ordered_streams",
    "required_k",
    "roundtrip_equal",
    "strip_punctuation",
    "validate_punctuation",
]
