"""Exact reference results in linear time.

``OfflineOracle`` is the repo's ground truth, but it rescans each type
list from the start for every candidate, so it is quadratic in trace
length (5k/10k/20k/40k events take 0.14/0.47/2.1/6.2 s).  A match spans
at most ``within`` ticks and its negation brackets reach at most
``within + 1`` further, so the oracle can be run over short
occurrence-ordered slices padded by ``within + 1`` ticks on both sides.
Each slice *owns* the matches whose first event lies in its unpadded
core: the padding shows the oracle every event that can complete or
negate such a match, and matches found in the padding — which may be
missing their negating event — belong to a neighbour and are dropped.
The union over slices is exactly the full oracle's result (self-tested
on every query shape the benchmark uses).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, List, Set, Tuple

from repro.core.event import Event, sort_by_occurrence
from repro.core.oracle import OfflineOracle
from repro.core.pattern import Pattern

#: Core events per slice.  Cost per event grows with the slice (quadratic
#: inside) and with the padding share (small slices re-scan their pads);
#: 512 sits on the flat bottom for windows of 20-40 ticks.
SLICE = 512

Key = Tuple[int, ...]


def match_id(match) -> Key:
    """A match's identity for comparison: its positive events' ids, in order."""
    return tuple(event.eid for event in match.events)


def reference_keys(
    pattern: Pattern, events: Iterable[Event], slice_events: int = SLICE
) -> Set[Key]:
    """Identity set of every match of *pattern* over *events* (any order)."""
    trace: List[Event] = sort_by_occurrence(events)
    stamps = [event.ts for event in trace]
    pad = pattern.within + 1
    oracle = OfflineOracle(pattern)
    keys: Set[Key] = set()
    for lo in range(0, len(trace), slice_events):
        hi = min(len(trace), lo + slice_events)
        start = bisect_left(stamps, stamps[lo] - pad)
        stop = bisect_right(stamps, stamps[hi - 1] + pad)
        first, last = trace[lo], trace[hi - 1]
        owned_lo = (first.ts, first.eid)
        owned_hi = (last.ts, last.eid)
        for match in oracle.evaluate(trace[start:stop]):
            head = match.events[0]
            if owned_lo <= (head.ts, head.eid) <= owned_hi:
                keys.add(match_id(match))
    return keys


def full_oracle_keys(pattern: Pattern, events: Iterable[Event]) -> Set[Key]:
    """The unsliced oracle (quadratic): the self-test's comparison point."""
    return {match_id(match) for match in OfflineOracle(pattern).evaluate(events)}
