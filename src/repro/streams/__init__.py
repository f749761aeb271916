"""Stream substrate: sources, disorder models, merging, K estimation."""

from repro.streams.disorder import (
    BurstDropoutModel,
    DelayModel,
    DisorderStats,
    NoDisorder,
    RandomDelayModel,
    crash_positions,
    measure_disorder,
    required_k,
    star_arrival,
)
from repro.streams.controller import AdaptiveKController, ControllerDecision
from repro.streams.kslack import MaxObservedK, QuantileK
from repro.streams.merge import interleave_by_arrival
from repro.streams.punctuation import (
    validate_punctuation,
)
from repro.streams.replay import dump_trace, load_trace
from repro.streams.source import EventSource, SyntheticSource

__all__ = [
    "AdaptiveKController",
    "BurstDropoutModel",
    "ControllerDecision",
    "DelayModel",
    "DisorderStats",
    "EventSource",
    "MaxObservedK",
    "NoDisorder",
    "QuantileK",
    "RandomDelayModel",
    "SyntheticSource",
    "crash_positions",
    "dump_trace",
    "interleave_by_arrival",
    "load_trace",
    "measure_disorder",
    "required_k",
    "star_arrival",
    "validate_punctuation",
]
