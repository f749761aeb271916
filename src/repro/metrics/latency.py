"""Result-latency measurement: how long correct answers take to appear.

Latency is the axis on which the paper's native out-of-order engine
beats buffer-and-sort, so it deserves careful definition.  For an
emitted match we measure two complementary delays:

* **arrival latency** — engine arrival index at emission minus the
  largest arrival index among the match's own positive events: "how
  many further events did the engine read before it told us?"  Zero
  means the match was reported the instant its last piece arrived.
* **occurrence latency** — stream clock at emission minus the match's
  final occurrence timestamp: the same delay on the occurrence-time
  axis, which is what an application's freshness SLA speaks about.

Both are derived after a run from the engine's emission log and the
arrival trace (no instrumentation inside the hot loop).  Any record
with ``match`` / ``emitted_seq`` / ``emitted_clock`` fields is
accepted: the sealed stream's :class:`EmissionRecord` and the
speculative stream's ``SpeculativeEmission`` alike.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence

from repro.core.engine import EmissionRecord
from repro.core.event import Event


class LatencySummary:
    """Percentile summary of a latency sample."""

    __slots__ = ("count", "mean", "p50", "p90", "p99", "max")

    def __init__(self, sample: Sequence[float]):
        values = sorted(sample)
        self.count = len(values)
        if not values:
            self.mean = self.p50 = self.p90 = self.p99 = self.max = 0.0
            return
        self.mean = sum(values) / len(values)
        self.p50 = _percentile(values, 0.50)
        self.p90 = _percentile(values, 0.90)
        self.p99 = _percentile(values, 0.99)
        self.max = float(values[-1])

    def __repr__(self) -> str:
        return (
            f"LatencySummary(n={self.count}, mean={self.mean:.2f}, p50={self.p50:.1f}, "
            f"p90={self.p90:.1f}, p99={self.p99:.1f}, max={self.max:.1f})"
        )


def percentile_index(count: int, q: float) -> int:
    """Rank of the q-quantile in a sorted sample of *count* values.

    The library-wide convention is ``ceil(q * n) - 1`` (clamped to the
    valid range): the smallest rank covering at least a fraction ``q``
    of the sample.  The floor rank ``int(q * n)`` overshoots by one on
    small samples — q=0.5 over two values would pick the max instead of
    the median — so every quantile consumer (here and
    :class:`repro.streams.kslack.QuantileK`) goes through this helper.
    """
    return min(count - 1, max(0, math.ceil(q * count) - 1))


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return float(sorted_values[percentile_index(len(sorted_values), q)])


def arrival_latencies(
    emissions: Iterable[EmissionRecord],
    arrival: Sequence[Event],
) -> List[int]:
    """Per-match arrival latency given the fed arrival order.

    *arrival* must be the exact event sequence fed to the engine (the
    engine's arrival index is 1-based over it).
    """
    index_of: Dict[int, int] = {}
    for position, event in enumerate(arrival, start=1):
        index_of[event.eid] = position
    latencies: List[int] = []
    for record in emissions:
        member_arrivals = [
            index_of[event.eid]
            for event in record.match.events
            if event.eid in index_of
        ]
        if not member_arrivals:
            continue
        latencies.append(max(0, record.emitted_seq - max(member_arrivals)))
    return latencies


def occurrence_latencies(emissions: Iterable[EmissionRecord]) -> List[int]:
    """Per-match occurrence latency (emission clock minus match end ts)."""
    return [
        max(0, record.emitted_clock - record.match.end_ts) for record in emissions
    ]


def summarize_arrival_latency(
    emissions: Iterable[EmissionRecord], arrival: Sequence[Event]
) -> LatencySummary:
    """Convenience: :func:`arrival_latencies` → :class:`LatencySummary`."""
    return LatencySummary(arrival_latencies(emissions, arrival))


def summarize_occurrence_latency(emissions: Iterable[EmissionRecord]) -> LatencySummary:
    """Convenience: :func:`occurrence_latencies` → :class:`LatencySummary`."""
    return LatencySummary(occurrence_latencies(emissions))
