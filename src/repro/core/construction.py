"""Sequence construction (SC): enumerate completed matches exactly once.

Construction is the second core operator.  Given a trigger instance
(an event just inserted at step *i*), it enumerates every combination
of stack instances that

* places the trigger at step *i*,
* has strictly increasing occurrence timestamps across steps,
* fits the ``WITHIN`` window,
* satisfies the staged ``WHERE`` predicates, and
* — the out-of-order twist — consists otherwise of instances that
  **arrived before the trigger**.

The arrival filter is what makes output exactly-once under arbitrary
arrival permutations: every match has a unique latest-arriving member,
and only that member's arrival emits it.  With in-order arrival the
latest-arriving member is always the last step's event, so this
degenerates to the classic SASE rule (construct on last-step arrival
only); no special-casing is needed.

Enumeration is **anchored at the trigger** and walks outward — prefix
steps descending (i−1 … 0), then suffix steps ascending (i+1 … n−1) —
because predicates between *adjacent* steps (the overwhelmingly common
join shape) then prune at depth one on both sides.  Predicates are
staged dynamically per trigger position: each predicate is evaluated
at the earliest point in this binding order at which all of its
variables are bound.  Candidate sets come from binary-searched
timestamp ranges over the ts-sorted stacks (the point of the paper's
stack redesign); disabling that narrowing is the E6 ablation.

Two further optimisations live in ``repro.core.indexplan`` and are
applied here: equality-index lookups replace the range scan for steps
joined to an already-bound step by attribute equality (the stacks'
posting lists serve exactly the equal-valued candidates, window-clamped
by bisect), and the staged predicate lists are compiled into one
closure per (trigger position, depth) at build time.  Both are
ablatable (``index=False``) and results are identical either way.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.event import Event
from repro.core.indexplan import build_plan
from repro.core.pattern import Match, Pattern
from repro.core.predicates import Predicate
from repro.core.stacks import Instance, SortedStack, StackSet
from repro.core.stats import EngineStats


class SequenceConstructor:
    """Enumerates matches for one pattern over a :class:`StackSet`.

    Parameters
    ----------
    pattern:
        The compiled query.
    optimize:
        When False, timestamp-range narrowing via binary search is
        disabled (full stack scans with per-candidate checks) — the
        unoptimised configuration for experiment E6.  Results are
        identical either way.
    index:
        When False, equality-index lookups are disabled and every step
        is served by the (optimised or not) range scan — the ablation
        for experiment E19.  Results are identical either way.  The
        index is only active when *optimize* is also True: it is a
        refinement of the range scan, not of the linear scan.
    """

    def __init__(self, pattern: Pattern, optimize: bool = True, index: bool = True):
        self.pattern = pattern
        self.optimize = optimize
        self.index = index
        self._vars = [s.var for s in pattern.positive_steps]
        self._orders: List[List[int]] = []
        self._staged: List[List[List[Predicate]]] = []
        for trigger_step in range(pattern.length):
            order = (
                [trigger_step]
                + list(range(trigger_step - 1, -1, -1))
                + list(range(trigger_step + 1, pattern.length))
            )
            self._orders.append(order)
            self._staged.append(self._stage_for(order))
        plan = build_plan(
            pattern,
            self._vars,
            self._orders,
            self._staged,
            use_index=index and optimize,
        )
        self._length = pattern.length
        self._within = pattern.within
        #: Per trigger step: the trigger's own check, then one level per
        #: further binding depth — ``(step, is_prefix, var, full checks,
        #: reduced checks, lookup spec, is_last)``.
        self._plans: List[Tuple[Optional[Callable], tuple]] = [
            (stages[0][0], tuple(
                (step, step < trigger, self._vars[step]) + stages[depth]
                + (depth == len(order) - 1,)
                for depth, step in enumerate(order) if depth
            ))
            for trigger, (order, stages) in enumerate(zip(self._orders, plan.stages))
        ]
        #: Per-step attribute names the engine's stacks must index, or
        #: None when no lookup was planned (engines then build plain
        #: stacks and skip index maintenance entirely).
        self.indexed_attrs = plan.indexed_attrs
        #: Observability hook: when set (by the obs layer), called with
        #: the size of every index-served candidate set.
        self._observe_candidates: Optional[Callable[[int], None]] = None

    def _stage_for(self, order: List[int]) -> List[List[Predicate]]:
        """Assign each positive predicate to its earliest evaluable position."""
        staged: List[List[Predicate]] = [[] for __ in order]
        position_of_step = {step: k for k, step in enumerate(order)}
        var_position = {
            self._vars[step]: position_of_step[step] for step in order
        }
        for predicate in self.pattern.positive_predicates:
            latest = max(var_position[v] for v in predicate.variables())
            staged[latest].append(predicate)
        return staged

    def construct(
        self,
        stacks: StackSet,
        step_index: int,
        trigger: Instance,
        stats: Optional[EngineStats] = None,
    ) -> List[Match]:
        """All matches completed by *trigger* at *step_index*.

        The trigger instance must already be inserted in its stack;
        candidates for every other step are filtered to arrivals
        strictly before the trigger's.
        """
        if stats is not None:
            stats.construction_triggers += 1
        matches: List[Match] = []
        check, levels = self._plans[step_index]
        event = trigger.event
        bindings: Dict[str, Event] = {self._vars[step_index]: event}
        if check is not None and not check(bindings, stats):
            return matches
        # One slot per step, bound along the current path; every slot is
        # rebound before a match reads it.
        events: List = [event] * self._length
        if levels:
            self._extend(
                stacks.stacks, levels, 0, trigger.arrival,
                event.ts - self._within - 1, events, bindings, matches, stats,
            )
        else:
            matches.append(Match(self.pattern, events, detected_at=trigger.arrival))
        return matches

    # -- internals ---------------------------------------------------------------

    def _extend(
        self,
        stacks: List[SortedStack],
        levels: tuple,
        depth: int,
        arrival: int,
        floor: int,
        events: List[Event],
        bindings: Dict[str, Event],
        matches: List[Match],
        stats: Optional[EngineStats],
    ) -> None:
        step, prefix, var, full_checks, reduced_checks, spec, last = levels[depth]
        if prefix:
            # Prefix step: strictly older than the bound step+1 event,
            # and within the window below the youngest bound event.
            # Prefix steps are bound before suffix steps and every
            # prefix candidate is strictly older than the trigger, so
            # the youngest bound event here is always the trigger
            # itself: *floor* is its ts - W - 1.
            lower_exclusive = floor
            upper_inclusive = events[step + 1].ts - 1
        else:
            # Suffix step: strictly younger than step-1, within the
            # window above the first event (step 0 is bound by now).
            lower_exclusive = events[step - 1].ts
            upper_inclusive = events[0].ts + self._within

        stack = stacks[step]
        checks = full_checks
        prefiltered = True
        candidates: Optional[Sequence[Instance]] = None
        if spec is not None:
            name, bound_value = spec
            candidates = stack.equality_candidates(
                name, bound_value(bindings), lower_exclusive, upper_inclusive
            )
            if candidates is not None:
                checks = reduced_checks
                if stats is not None:
                    if candidates:
                        stats.index_hits += 1
                    else:
                        stats.index_misses += 1
                if self._observe_candidates is not None:
                    self._observe_candidates(len(candidates))
        if candidates is None:
            if self.optimize:
                candidates = stack.range_after(lower_exclusive, max_ts=upper_inclusive)
            else:
                # Unoptimised: linear scan of the whole stack, bounds
                # checked per candidate (the cost E6 measures).
                candidates = list(stack)
                prefiltered = False

        # At the last level every other step is bound, so each surviving
        # candidate completes a match here instead of in a recursive call.
        for candidate in candidates:
            if candidate.arrival >= arrival:
                continue
            if stats is not None:
                stats.partial_combinations += 1
            if not prefiltered and not (
                lower_exclusive < candidate.ts <= upper_inclusive
            ):
                if stats is not None:
                    stats.window_rejections += 1
                continue
            event = candidate.event
            bindings[var] = event
            if checks is not None and not checks(bindings, stats):
                continue
            events[step] = event
            if last:
                matches.append(Match(self.pattern, events, detected_at=arrival))
            else:
                self._extend(
                    stacks, levels, depth + 1, arrival, floor, events, bindings,
                    matches, stats,
                )
