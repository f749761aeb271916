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

from typing import Dict, List, Optional, Tuple

from repro.core.event import Event
from repro.core.pattern import Pattern
from repro.core.predicates import Predicate
from repro.core.stacks import StackSet
from repro.core.stats import EngineStats


class SequenceScanner:
    """Admission and feasibility logic bound to one pattern.

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

    def relevant(self, event: Event) -> bool:
        """Does this event type play any role in the pattern?"""
        return event.etype in self.pattern.relevant_types

    def dispatch(self) -> Dict[str, Tuple[Tuple[int, str, Tuple[Predicate, ...]], ...]]:
        """Pre-resolved per-type admission table (read-only).

        Maps event type → tuple of ``(step_index, step_var, local
        predicates)`` triples, one per positive step of that type.
        """
        return self._dispatch

    def admissible_steps(self, event: Event) -> List[int]:
        """Positive step indices the event is admitted to.

        A type may occur at several steps (e.g. ``SEQ(A x, A y)``); the
        event is admitted independently per step, subject to that
        step's local predicates.
        """
        entries = self._dispatch.get(event.etype)
        if not entries:
            return []
        admitted = []
        for index, var, predicates in entries:
            if not predicates:
                admitted.append(index)
                continue
            bindings = {var: event}
            if all(p.evaluate(bindings) for p in predicates):
                admitted.append(index)
        return admitted

    # -- feasibility probes ----------------------------------------------------

    def construction_feasible(
        self,
        stacks: StackSet,
        step_index: int,
        event: Event,
        stats: Optional[EngineStats] = None,
    ) -> bool:
        """Cheap necessary condition for the arrival to complete any match.

        Checks, per earlier step, that some instance is strictly older
        than the trigger (and within the window below it) and, per
        later step, that some instance is strictly younger (and within
        the window above it).  O(length) via stack min/max timestamps.
        """
        if not self.optimize:
            return True
        pattern = self.pattern
        window = pattern.within
        feasible = True
        # Earlier steps: members of any match containing the trigger sit in
        # [event.ts - window, event.ts) — strictly older, and within the
        # window because the match's last event is no older than the trigger.
        for j in range(step_index):
            if not stacks[j].has_in_range(event.ts - window, event.ts - 1):
                feasible = False
                break
        if feasible:
            # Later steps: members sit in (event.ts, event.ts + window] —
            # strictly younger, within the window above the first event
            # (conservatively anchored at the trigger).
            for j in range(step_index + 1, pattern.length):
                if not stacks[j].has_in_range(event.ts + 1, event.ts + window):
                    feasible = False
                    break
        if not feasible and stats is not None:
            stats.construction_skipped_by_probe += 1
        return feasible
