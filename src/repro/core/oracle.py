"""Offline brute-force oracle: ground truth for every engine.

The oracle sees the *complete* trace at once, sorts it by occurrence
time, and enumerates matches by exhaustive search directly from the
semantics in ``repro.core.pattern``.  It is deliberately simple-minded
(no stacks, no purging, no incremental state) so that its correctness
is auditable by eye; the test suite then holds every engine to
producing exactly the oracle's result set.

It also powers the correctness experiments (E1): feeding an
out-of-order arrival permutation to the in-order baseline and comparing
against the oracle quantifies how badly the state of the art breaks.

Complexity is exponential in pattern length — fine for tests and for
the modest traces the correctness experiments use, unusable as an
actual engine (which is the point).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Sequence, Set

from repro.core.event import Event, sort_by_occurrence
from repro.core.pattern import Match, NegationBracket, Pattern


class OfflineOracle:
    """Reference evaluator for a single pattern over a full trace."""

    def __init__(self, pattern: Pattern):
        self.pattern = pattern

    def evaluate(self, events: Iterable[Event]) -> List[Match]:
        """Return all matches of the pattern over *events* (any order).

        The input may be in any arrival order; the oracle works on the
        occurrence-time-sorted view, which is the semantics' frame of
        reference.
        """
        trace = sort_by_occurrence(e for e in events)
        by_type: Dict[str, List[Event]] = {}
        for event in trace:
            by_type.setdefault(event.etype, []).append(event)

        candidates: List[List[Event]] = []
        for step in self.pattern.positive_steps:
            candidates.append(by_type.get(step.etype, []))
        if any(not c for c in candidates):
            return []

        matches: List[Match] = []
        chosen: List[Event] = []
        self._extend(candidates, 0, chosen, matches, by_type)
        return matches

    def evaluate_set(self, events: Iterable[Event]) -> Set[tuple]:
        """Result identity set (match keys) for direct comparison."""
        return {m.key() for m in self.evaluate(events)}

    # -- internals -----------------------------------------------------------

    def _extend(
        self,
        candidates: Sequence[List[Event]],
        depth: int,
        chosen: List[Event],
        matches: List[Match],
        by_type: Dict[str, List[Event]],
    ) -> None:
        pattern = self.pattern
        if depth == pattern.length:
            if self._negations_clear(chosen, by_type):
                collections = self._kleene_collections(chosen, by_type)
                if pattern.has_kleene and collections is None:
                    return  # some Kleene bracket collected nothing
                matches.append(Match(pattern, list(chosen), collections=collections))
            return
        for event in candidates[depth]:
            if chosen:
                if event.ts <= chosen[-1].ts:
                    continue
                if event.ts - chosen[0].ts > pattern.within:
                    break  # candidates are ts-sorted; all later ones overflow too
            if not self._staged_ok(chosen + [event], depth):
                continue
            chosen.append(event)
            self._extend(candidates, depth + 1, chosen, matches, by_type)
            chosen.pop()

    def _staged_ok(self, prefix: List[Event], depth: int) -> bool:
        """Check predicates whose latest variable is the step just bound."""
        pattern = self.pattern
        var = pattern.positive_steps[depth].var
        staged = pattern.staged.get(var, ())
        if not staged:
            return True
        bindings = dict(
            zip((s.var for s in pattern.positive_steps[: depth + 1]), prefix)
        )
        return all(p.evaluate(bindings) for p in staged)

    def _negations_clear(
        self, positives: Sequence[Event], by_type: Dict[str, List[Event]]
    ) -> bool:
        pattern = self.pattern
        for bracket in pattern.negations:
            if self._bracket_violated(bracket, positives, by_type):
                return False
        return True

    def _kleene_collections(
        self, positives: Sequence[Event], by_type: Dict[str, List[Event]]
    ):
        """Per-variable Kleene collections, or None when a bracket is empty."""
        pattern = self.pattern
        if not pattern.has_kleene:
            return None
        collections = {}
        for bracket in pattern.kleene:
            pool = by_type.get(bracket.step.etype, [])
            elements = bracket.collect(list(positives), pattern.within, pool)
            if not elements:
                return None
            collections[bracket.step.var] = elements
        return collections

    def _bracket_violated(
        self,
        bracket: NegationBracket,
        positives: Sequence[Event],
        by_type: Dict[str, List[Event]],
    ) -> bool:
        pool = by_type.get(bracket.step.etype, [])
        if not pool:
            return False
        lo, hi = bracket.bounds(positives, self.pattern.within)
        timestamps = [e.ts for e in pool]
        start = bisect_right(timestamps, lo)
        end = bisect_left(timestamps, hi)
        for candidate in pool[start:end]:
            if bracket.admits(candidate, positives, self.pattern.within):
                return True
        return False
