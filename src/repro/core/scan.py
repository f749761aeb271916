"""Sequence scan (SS): per-arrival admission and feasibility probing.

Sequence scan is the first of the paper's two core operators.  For each
arriving event it decides:

1. **relevance** — does the event's type appear in the pattern at all
   (positive step or negation)?  Irrelevant events are dropped without
   touching any state;
2. **admission** — for positive steps, does the event pass the
   predicates that mention only its own variable ("local" predicates)?
   Admitted events become stack instances;
3. **trigger feasibility** — is it worth running sequence construction
   for this arrival?  The paper's scan optimisation avoids construction
   work that cannot produce output.  An arrival at step *i* can only
   complete a match if every earlier stack holds an instance older than
   it and every later stack holds an instance younger than it (all
   within the window).  With in-order arrival the later-stack probe
   fails for every non-final step, which is exactly why the classic
   in-order engine triggers construction only on last-step arrivals —
   the probe generalises that rule to out-of-order arrival.

The probes are *necessary* conditions, deliberately cheap (O(pattern
length) using the stacks' min/max timestamps); construction still
performs the exact checks.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.pattern import Pattern
from repro.core.predicates import Predicate


class SequenceScanner:
    """Admission table and probe switch bound to one pattern.

    The engine's step loop applies both: it walks :meth:`dispatch` to
    admit an arrival and runs the feasibility probe when ``optimize``
    is set.

    Parameters
    ----------
    pattern:
        The compiled query.
    optimize:
        When False, feasibility probes always answer "feasible", so
        construction runs for every admitted arrival — the unoptimised
        configuration measured in experiment E6.
    """

    def __init__(self, pattern: Pattern, optimize: bool = True):
        self.pattern = pattern
        self.optimize = optimize
        # Local predicates: staged predicates that mention exactly one
        # variable can be checked at admission time, before any state
        # is created.
        self._local: List[List[Predicate]] = []
        for step in pattern.positive_steps:
            staged = pattern.staged.get(step.var, [])
            self._local.append([p for p in staged if p.variables() == {step.var}])
        # Pre-resolved dispatch: event type → ((step_index, var, local
        # predicates), …) so admission is a single dict probe with the
        # predicate lists already bound per step.  The engine's step
        # loop iterates this directly instead of re-deriving it per
        # arrival.
        self._dispatch: Dict[str, Tuple[Tuple[int, str, Tuple[Predicate, ...]], ...]] = {}
        for etype, steps in pattern.steps_of_type.items():
            self._dispatch[etype] = tuple(
                (
                    index,
                    pattern.positive_steps[index].var,
                    tuple(self._local[index]),
                )
                for index in steps
            )

        # Feasibility probe plan (point 3), per trigger step: a match
        # needs every earlier stack to hold an instance in [ts - W, ts)
        # and every later one in (ts, ts + W], so each entry is (stack
        # index, low offset, high offset) from the arrival's ts.
        within, length = pattern.within, pattern.length
        self.probes: Tuple[Tuple[Tuple[int, int, int], ...], ...] = tuple(
            tuple((j, -within, -1) if j < i else (j, 1, within)
                  for j in range(length) if j != i)
            for i in range(length)
        )

    def dispatch(self) -> Dict[str, Tuple[Tuple[int, str, Tuple[Predicate, ...]], ...]]:
        """Pre-resolved per-type admission table (read-only).

        Maps event type → tuple of ``(step_index, step_var, local
        predicates)`` triples, one per positive step of that type.
        """
        return self._dispatch
