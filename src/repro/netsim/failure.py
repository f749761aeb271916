"""Node failure schedules: the paper's second disorder cause.

A failed node does not lose events here (sources buffer and resend);
it *holds* them: an event reaching a failed node waits until the node
recovers, then proceeds.  The result at the sink is a burst of stale
events right after each recovery — the bursty disorder signature that
distinguishes machine failure from latency jitter.

Schedules are disjoint ``[start, end)`` outage intervals per node,
supporting O(log n) "when does this node next work at or after t"
queries.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Tuple


from repro.core.errors import ConfigurationError


class FailureSchedule:
    """Outage intervals for a set of nodes."""

    def __init__(self) -> None:
        self._outages: Dict[str, List[Tuple[int, int]]] = {}

    def add_outage(self, node: str, start: int, end: int) -> None:
        """Mark *node* down during ``[start, end)``; intervals must not overlap."""
        if end <= start:
            raise ConfigurationError(f"empty outage [{start}, {end})")
        intervals = self._outages.setdefault(node, [])
        for existing_start, existing_end in intervals:
            if start < existing_end and existing_start < end:
                raise ConfigurationError(
                    f"overlapping outage [{start}, {end}) on {node!r}"
                )
        intervals.append((start, end))
        intervals.sort()

    def available_at(self, node: str, t: int) -> int:
        """Earliest time ``>= t`` at which *node* is up."""
        intervals = self._outages.get(node)
        if not intervals:
            return t
        index = bisect.bisect_right(intervals, (t, float("inf"))) - 1
        if index >= 0:
            start, end = intervals[index]
            if start <= t < end:
                return end
        return t

    def outages(self, node: str) -> List[Tuple[int, int]]:
        return list(self._outages.get(node, []))
