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
from bisect import bisect_left, bisect_right
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.event import Event
from repro.core.indexplan import compile_predicate
from repro.core.pattern import Match, Pattern
from repro.core.stacks import _INF, NegativeStore
from repro.core.stats import EngineStats


def compile_seal_point(pattern: Pattern) -> Callable[[Sequence[Event]], int]:
    """The horizon at which every negation/Kleene bracket of a match seals.

    A bracket over interval ``(lo, hi)`` is sealed once the horizon
    reaches ``hi - 1`` — no event that could fall inside it can still
    arrive.  Kleene brackets seal on the same rule: only then is the
    collected set final.  Each bracket's ``hi - 1`` is a positive
    event's ts plus a fixed offset, so the function built here maps a
    match's positive events to the max of those sums, or -1 for
    patterns without brackets (sealed immediately).
    """
    terms = tuple(dict.fromkeys(
        # A trailing negation's hi is first.ts + W + 1.
        (bracket.upper, -1) if bracket.upper is not None else (0, pattern.within)
        for bracket in pattern.negations + pattern.kleene
    ))
    return lambda events: max(
        [events[index].ts + offset for index, offset in terms], default=-1
    )


def compile_violated(
    pattern: Pattern,
) -> Optional[Callable[[Sequence[Event], NegativeStore, Optional[EngineStats]], bool]]:
    """``violated(events, negatives, stats)`` for *pattern*; None if it negates nothing.

    True when a stored negative event invalidates the match over
    positive *events*.  A bracket's interval comes from precomputed
    positive indices and offsets, its candidates from one bisect pair on
    the negated type's lists; its predicates run compiled over one
    bindings dict per match, one ``predicate_evaluations`` per candidate.
    """
    within = pattern.within
    checks = []
    for bracket in pattern.negations:
        low = (bracket.lower, 0) if bracket.lower is not None else (-1, -within - 1)
        high = (bracket.upper, 0) if bracket.upper is not None else (0, within + 1)
        predicates = tuple(compile_predicate(p) for p in bracket.predicates)
        checks.append((bracket.step.etype, bracket.step.var) + low + high + (predicates,))
    if not checks:
        return None
    positive_vars = [step.var for step in pattern.positive_steps]
    below = -_INF  # sorts before every eid at hi

    def violated(
        events: Sequence[Event],
        negatives: NegativeStore,
        stats: Optional[EngineStats] = None,
    ) -> bool:
        by_type = negatives._by_type
        bindings: Optional[Dict[str, Event]] = None
        for etype, var, lo_at, lo_off, hi_at, hi_off, predicates in checks:
            keys, stored = by_type[etype]
            start = bisect_right(keys, (events[lo_at].ts + lo_off, _INF))
            end = bisect_left(keys, (events[hi_at].ts + hi_off, below))
            if start >= end:
                continue
            if bindings is None:
                bindings = dict(zip(positive_vars, events))
            for candidate in stored[start:end]:
                if stats is not None:
                    stats.predicate_evaluations += 1
                bindings[var] = candidate
                for predicate in predicates:
                    if not predicate(bindings):
                        break
                else:
                    return True
        return False

    return violated


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
