"""Conservative negation under disorder: seal, then decide.

A match for a pattern with negated steps cannot be emitted the moment
its positive events line up: a *negative* event that would invalidate
it may still be in flight.  The conservative strategy (the one the
paper adopts; the optimistic side stream lives in
``repro.core.speculate``) holds each candidate match until its
negation intervals are **sealed** — until the safe horizon guarantees
no event that could fall inside them will ever arrive — then checks the
negative store once and either releases or cancels the match.

Seal point
----------
For a bracket with forbidden open interval ``(lo, hi)``, every
potentially invalidating event has ``ts <= hi - 1``; the bracket is
sealed when ``horizon >= hi - 1``.  A match's seal point is the max
over its brackets.  Matches are kept in a seal-point-ordered priority
queue so advancing the horizon releases exactly the ripe prefix.

Negative-store retention
------------------------
The proof that purging negatives at ``ts <= horizon - W`` is safe:
any *unsealed* match bracket ``(lo, hi)`` has ``hi - 1 > horizon``.
Brackets bounded above by a positive event ``q`` have ``hi = q.ts`` and
admit only events with ``ts > lo >= first.ts >= q.ts - W > horizon - W``.
Trailing brackets have ``hi = first.ts + W + 1`` and admit only
``ts > lo = last.ts``, with ``last.ts >= first.ts > horizon - W``
(because ``hi - 1 = first.ts + W > horizon``).  Leading brackets have
``hi = first.ts`` with ``hi - 1 > horizon`` and admit only
``ts > last.ts - W - 1``, i.e. ``ts >= last.ts - W >= first.ts - W >
horizon - W``.  In every case an event at or below ``horizon - W``
cannot affect an unsealed match — provided sealed matches were decided
first, which is why the engine seals before purging.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.core.pattern import Match, Pattern
from repro.core.stacks import NegativeStore
from repro.core.stats import EngineStats


def seal_point(pattern: Pattern, match: Match) -> int:
    """Horizon value at which every negation/Kleene bracket of *match* seals.

    A bracket over interval ``(lo, hi)`` is sealed once the horizon
    reaches ``hi - 1`` — no event that could fall inside it can still
    arrive.  Kleene brackets seal on the same rule: only then is the
    collected set final.  Returns -1 for patterns without brackets
    (sealed immediately).
    """
    if not pattern.negations and not pattern.kleene:
        return -1
    positives = match.events
    point = -1
    for bracket in pattern.negations:
        _, hi = bracket.bounds(positives, pattern.within)
        point = max(point, hi - 1)
    for bracket in pattern.kleene:
        _, hi = bracket.bounds(positives, pattern.within)
        point = max(point, hi - 1)
    return point


def violated(
    pattern: Pattern,
    match: Match,
    negatives: NegativeStore,
    stats: Optional[EngineStats] = None,
) -> bool:
    """True when some stored negative event invalidates *match*."""
    positives = match.events
    for bracket in pattern.negations:
        lo, hi = bracket.bounds(positives, pattern.within)
        for candidate in negatives.between(bracket.step.etype, lo, hi):
            if stats is not None:
                stats.predicate_evaluations += 1
            if bracket.admits(candidate, positives, pattern.within):
                return True
    return False


def collect_kleene(
    pattern: Pattern,
    match: Match,
    store: NegativeStore,
    stats: Optional[EngineStats] = None,
):
    """Collections for every Kleene bracket of *match*, or None.

    Returns a ``var -> tuple(events)`` map when every bracket collects
    at least one qualifying event; ``None`` when some bracket is empty
    (the ``+`` requires one-or-more, so the match is cancelled).
    Retention of the Kleene store follows the same ``horizon - W``
    threshold (and the same proof) as the negative store.
    """
    positives = match.events
    collections = {}
    for bracket in pattern.kleene:
        lo, hi = bracket.bounds(positives, pattern.within)
        pool = store.between(bracket.step.etype, lo, hi)
        if stats is not None:
            stats.predicate_evaluations += len(pool)
        elements = bracket.collect(positives, pattern.within, pool)
        if not elements:
            return None
        collections[bracket.step.var] = elements
    return collections


class PendingMatches:
    """Seal-point-ordered buffer of candidate matches awaiting release.

    ``release(horizon)`` pops every match whose seal point is at or
    below the horizon; the caller then checks each against the negative
    store.  The tie-breaking counter keeps heap order deterministic and
    FIFO among equal seal points, so output order is reproducible.
    """

    __slots__ = ("_heap", "_next")

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Match]] = []
        # A plain int (not itertools.count) so the tie-break sequence is
        # part of the engine's checkpointable state: restoring it exactly
        # reproduces emission order among equal seal points.
        self._next = 0

    def __len__(self) -> int:
        return len(self._heap)

    def add(self, match: Match, point: int) -> None:
        heapq.heappush(self._heap, (point, self._next, match))
        self._next += 1

    def release(self, horizon: int) -> List[Match]:
        """Matches whose seal point ``<= horizon``, in seal order."""
        ripe: List[Match] = []
        while self._heap and self._heap[0][0] <= horizon:
            ripe.append(heapq.heappop(self._heap)[2])
        return ripe

    def drain(self) -> List[Match]:
        """All pending matches (stream end); empties the buffer."""
        ripe = [entry[2] for entry in sorted(self._heap)]
        self._heap.clear()
        return ripe

    # -- checkpointing ---------------------------------------------------------

    def snapshot_state(self, encode) -> dict:
        """Heap entries with matches passed through *encode* (see snapshot.py)."""
        return {
            "next": self._next,
            "heap": [(point, tie, encode(match)) for point, tie, match in self._heap],
        }

    def restore_state(self, state: dict, decode) -> None:
        self._heap = [
            (point, tie, decode(encoded)) for point, tie, encoded in state["heap"]
        ]
        heapq.heapify(self._heap)
        self._next = state["next"]
