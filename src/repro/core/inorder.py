"""In-order baseline: SASE-style SSC assuming ordered arrival.

This is the "state of the art" (circa 2006) the paper measures against:
a sequence-scan / sequence-construction engine whose correctness rests
on the assumption that **arrival order equals occurrence order**.

Architecture (faithful to the AIS design):

* per-step stacks are **append-only** in arrival order; each instance
  records a *rightmost instance pointer* (RIP) — the size of the
  previous step's stack at insertion time.  Construction follows RIP
  pointers, i.e. only considers combinations whose members arrived in
  step order;
* construction triggers **only on final-step arrivals**;
* purging and negation sealing are driven by the **raw clock** (max
  timestamp seen), the correct horizon when arrival is ordered.

The engine is given every benefit of the doubt: it checks strict
timestamp increase along a candidate combination (so it never emits a
temporally invalid sequence even when its ordering assumption is
broken) and evaluates the window and all ``WHERE`` predicates exactly.

What still breaks under out-of-order arrival — quantified in
experiment E1:

* **missed matches**: a late event is appended at the top of its stack,
  so RIP pointers of earlier-arrived later-step instances never reach
  it; matches whose latest-arriving member is not at the final step are
  never constructed; purge keyed on the raw clock may have already
  dropped the partners a late event needed;
* **false positives**: negation seals on the raw clock, so a match is
  released before a late negative event that invalidates it arrives.

On genuinely ordered input the engine is exactly correct (the test
suite pins it to the oracle), making it a fair throughput baseline at
zero disorder.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core import snapshot as snapshots
from repro.core.clock import StreamClock
from repro.core.engine import Engine, ValidationPolicy
from repro.core.event import (
    Event,
    Punctuation,
    StreamElement,
    admission_error,
    malformed_reason,
)
from repro.core.negation import (
    collect_kleene, compile_seal_point, compile_violated, PendingMatches,
)
from repro.core.pattern import Match, Pattern
from repro.core.purge import PurgeMode, PurgePolicy
from repro.core.stacks import NegativeStore


class _RipInstance:
    """Stack entry: the event plus the RIP into the previous stack."""

    __slots__ = ("event", "arrival", "rip")

    def __init__(self, event: Event, arrival: int, rip: int):
        self.event = event
        self.arrival = arrival
        self.rip = rip

    @property
    def ts(self) -> int:
        return self.event.ts


class InOrderEngine(Engine):
    """SASE-style engine: exactly correct on ordered streams, breaks on disorder."""

    def __init__(
        self,
        pattern: Pattern,
        purge: Optional[PurgePolicy] = None,
    ):
        super().__init__(pattern)
        # k=0: "arrival order equals occurrence order" as a clock promise.
        self.clock = StreamClock(k=0)
        # Cloned: due() mutates schedule state, so engines must not share
        # the caller's policy object (see PurgePolicy.clone).
        self.purge_policy = (purge if purge is not None else PurgePolicy.eager()).clone()
        self.stacks: List[List[_RipInstance]] = [[] for _ in range(pattern.length)]
        self.negatives = NegativeStore(pattern.negated_types)
        self.kleene_store = NegativeStore(pattern.kleene_types)
        self.pending = PendingMatches()
        self._seal_point = compile_seal_point(pattern)
        self._violated = compile_violated(pattern)
        # Predicate pushdown for the RIP descent (SASE evaluates
        # predicates during construction, not on complete combos): a
        # predicate becomes checkable at the *earliest* positive step it
        # mentions, because descent binds steps from the last backwards.
        self._vars = [s.var for s in pattern.positive_steps]
        position = {var: i for i, var in enumerate(self._vars)}
        self._desc_staged: List[List] = [[] for _ in range(pattern.length)]
        for predicate in pattern.positive_predicates:
            earliest = min(position[v] for v in predicate.variables())
            self._desc_staged[earliest].append(predicate)
        # Event type → ((step_index, var, local predicates), …): the
        # single-variable predicates are resolved per step once, so the
        # loop admits with a single dict probe.
        local = [
            tuple(
                p for p in pattern.staged.get(step.var, [])
                if p.variables() == {step.var}
            )
            for step in pattern.positive_steps
        ]
        self._admission: Dict[str, Tuple] = {
            etype: tuple((index, self._vars[index], local[index]) for index in steps)
            for etype, steps in pattern.steps_of_type.items()
        }

    # -- state ---------------------------------------------------------------

    def state_size(self) -> int:
        stacked = sum(len(stack) for stack in self.stacks)
        return (
            stacked
            + self.negatives.size()
            + self.kleene_store.size()
            + len(self.pending)
        )

    # -- checkpoint / restore -----------------------------------------------------

    def _snapshot_config(self) -> dict:
        config = super()._snapshot_config()
        config["purge"] = (self.purge_policy.mode.value, self.purge_policy.interval)
        return config

    def _snapshot_state(self) -> dict:
        state = self._base_state()
        state.update(
            {
                "clock": self.clock.snapshot_state(),
                "purge_policy": self.purge_policy.snapshot_state(),
                "stacks": [
                    [(i.event, i.arrival, i.rip) for i in stack]
                    for stack in self.stacks
                ],
                "negatives": self.negatives.snapshot_state(),
                "kleene": self.kleene_store.snapshot_state(),
                "pending": self.pending.snapshot_state(snapshots.encode_match),
            }
        )
        return state

    def _restore_state(self, state: dict) -> None:
        self._restore_base(state)
        self.clock.restore_state(state["clock"])
        self.purge_policy.restore_state(state["purge_policy"])
        self.stacks = [
            [_RipInstance(event, arrival, rip) for event, arrival, rip in stack]
            for stack in state["stacks"]
        ]
        self.negatives.restore_state(state["negatives"])
        self.kleene_store.restore_state(state["kleene"])
        self.pending.restore_state(state["pending"], self._decode_match)

    # -- processing -------------------------------------------------------------

    def _on_punctuation(self, punctuation: Punctuation) -> List[Match]:
        self.clock.observe_punctuation(punctuation)
        emitted: List[Match] = []
        self._release_ripe(emitted)
        if self.purge_policy.due():
            self._purge()
        return emitted

    def _flush(self) -> List[Match]:
        emitted: List[Match] = []
        for match in self.pending.drain():
            self._decide(match, emitted)
        return emitted

    # -- the step loop ------------------------------------------------------------

    def _run(self, elements: Iterable[StreamElement]) -> List[Match]:
        """The engine's one step loop; every feeding surface runs it.

        Same playbook as :meth:`OutOfOrderEngine._run`: hoist attribute
        lookups and clock/purge arithmetic into locals, admit via the
        pre-resolved per-type table, accumulate flow counters locally
        (flushed in ``finally``), and elide purge scans that are
        provably no-ops (horizon unmoved and no insert landed at or
        below a purge threshold since the last scan — elided runs still
        count in ``stats.purge_runs``).
        """
        emitted: List[Match] = []
        stats = self.stats
        clock = self.clock
        pattern = self.pattern
        stacks = self.stacks
        negatives = self.negatives
        kleene_store = self.kleene_store
        pending_heap = self.pending._heap
        purge_policy = self.purge_policy
        relevant_types = pattern.relevant_types
        admission = self._admission
        neg_relevant = negatives.relevant
        kleene_relevant = kleene_store.relevant
        neg_insert = negatives.insert
        kleene_insert = kleene_store.insert
        construct = self._construct
        route = self._route
        window = pattern.within
        final = pattern.length - 1

        purge_mode = purge_policy.mode
        purge_eager = purge_mode is PurgeMode.EAGER
        purge_lazy = purge_mode is PurgeMode.LAZY
        purge_interval = purge_policy.interval
        since_last = purge_policy._since_last

        quarantine = self.validation is ValidationPolicy.QUARANTINE
        quarantined = 0
        max_ts = clock._max_ts
        horizon = clock.horizon()
        observations = 0
        stacked = sum(len(stack) for stack in stacks)
        side_size = negatives.size() + kleene_store.size()
        peak = stats.peak_state_size
        events_in = 0
        events_admitted = 0
        events_ignored = 0
        out_of_order = 0
        predicate_evals = 0
        # Purge-elision trackers: the horizon the last real scan ran at,
        # and whether any insert since could sit at/below a threshold.
        purged_at = -2
        dirty = True
        try:
            for element in elements:
                if isinstance(element, Event):
                    ts = element.ts
                    etype = element.etype
                    # Inlined admission screen (mirrors malformed_reason).
                    if (
                        type(ts) is not int
                        or ts < 0
                        or not isinstance(etype, str)
                        or not etype
                    ):
                        if quarantine:
                            quarantined += 1
                            continue
                        raise admission_error(element)
                    self._arrival += 1
                    events_in += 1
                    observations += 1
                    if ts > max_ts:
                        max_ts = ts
                        clock._max_ts = ts
                        advanced = ts - 1  # k = 0: horizon = max_ts - 1
                        if advanced > horizon:
                            horizon = advanced
                    elif ts < max_ts:
                        out_of_order += 1
                    if etype not in relevant_types:
                        events_ignored += 1
                    else:
                        admitted = False
                        if neg_relevant(etype):
                            neg_insert(element)
                            admitted = True
                            side_size += 1
                            if ts <= horizon - window:
                                dirty = True
                        if kleene_relevant(etype):
                            kleene_insert(element)
                            admitted = True
                            side_size += 1
                            if ts <= horizon - window:
                                dirty = True
                        entries = admission.get(etype)
                        if entries:
                            arrival = self._arrival
                            for step_index, var, predicates in entries:
                                if predicates:
                                    bindings = {var: element}
                                    ok = True
                                    for predicate in predicates:
                                        predicate_evals += 1
                                        if not predicate.evaluate(bindings):
                                            ok = False
                                            break
                                    if not ok:
                                        continue
                                admitted = True
                                rip = len(stacks[step_index - 1]) if step_index > 0 else 0
                                instance = _RipInstance(element, arrival, rip)
                                stacks[step_index].append(instance)
                                stacked += 1
                                if step_index == final:
                                    if ts <= horizon + 1:
                                        dirty = True
                                    for match in construct(instance):
                                        route(match, emitted)
                                elif ts <= horizon - window:
                                    dirty = True
                        if admitted:
                            events_admitted += 1
                        else:
                            events_ignored += 1
                    if pending_heap:
                        self._release_ripe(emitted)
                    if purge_eager:
                        due = True
                    elif purge_lazy:
                        since_last += 1
                        if since_last >= purge_interval:
                            since_last = 0
                            due = True
                        else:
                            due = False
                    else:
                        due = False
                    if due and horizon >= 0:
                        if dirty or horizon > purged_at:
                            self._purge()
                            purged_at = horizon
                            dirty = False
                            stacked = sum(len(stack) for stack in stacks)
                            side_size = negatives.size() + kleene_store.size()
                        else:
                            stats.purge_runs += 1
                    size_now = stacked + side_size + len(pending_heap)
                    if size_now > peak:
                        peak = size_now
                else:
                    if malformed_reason(element) is not None:
                        if quarantine:
                            quarantined += 1
                            continue
                        raise admission_error(element)
                    # Punctuations are rare: sync the hoisted locals
                    # across the call.
                    stats.punctuations_in += 1
                    clock._observations += observations
                    observations = 0
                    purge_policy._since_last = since_last
                    emitted.extend(self._on_punctuation(element))
                    max_ts = clock._max_ts
                    horizon = clock.horizon()
                    since_last = purge_policy._since_last
                    stacked = sum(len(stack) for stack in stacks)
                    side_size = negatives.size() + kleene_store.size()
                    purged_at = -2
                    dirty = True
                    size_now = stacked + side_size + len(pending_heap)
                    if size_now > peak:
                        peak = size_now
        finally:
            clock._observations += observations
            purge_policy._since_last = since_last
            stats.peak_state_size = peak
            stats.events_quarantined += quarantined
            stats.events_in += events_in
            stats.events_admitted += events_admitted
            stats.events_ignored += events_ignored
            stats.out_of_order_events += out_of_order
            stats.predicate_evaluations += predicate_evals
        return emitted

    # -- construction (RIP descent) --------------------------------------------------

    def _construct(self, trigger: _RipInstance) -> List[Match]:
        self.stats.construction_triggers += 1
        pattern = self.pattern
        matches: List[Match] = []
        bindings = {self._vars[-1]: trigger.event}
        if pattern.length == 1:
            if self._staged_ok(0, bindings):
                matches.append(
                    Match(pattern, [trigger.event], detected_at=trigger.arrival)
                )
            return matches
        if not self._staged_ok(pattern.length - 1, bindings):
            return matches
        suffix: List[_RipInstance] = [trigger]
        self._descend(pattern.length - 2, trigger, suffix, bindings, matches)
        return matches

    def _descend(
        self,
        step: int,
        trigger: _RipInstance,
        suffix: List[_RipInstance],
        bindings: dict,
        matches: List[Match],
    ) -> None:
        pattern = self.pattern
        newest = suffix[-1]
        # RIP: only instances that had arrived when `newest` was inserted.
        candidates = self.stacks[step][: newest.rip]
        floor = trigger.ts - pattern.within
        var = self._vars[step]
        for candidate in candidates:
            self.stats.partial_combinations += 1
            # Benefit of the doubt: strict timestamp increase is checked,
            # so broken ordering never yields an invalid sequence.
            if candidate.ts >= newest.ts or candidate.ts < floor:
                continue
            bindings[var] = candidate.event
            if not self._staged_ok(step, bindings):
                del bindings[var]
                continue
            suffix.append(candidate)
            if step == 0:
                events = [inst.event for inst in reversed(suffix)]
                matches.append(Match(pattern, events, detected_at=trigger.arrival))
            else:
                self._descend(step - 1, trigger, suffix, bindings, matches)
            suffix.pop()
            del bindings[var]

    def _staged_ok(self, step: int, bindings: dict) -> bool:
        """Predicates whose earliest mentioned step is *step* (pushdown)."""
        for predicate in self._desc_staged[step]:
            self.stats.predicate_evaluations += 1
            if not predicate.evaluate(bindings):
                return False
        return True

    # -- negation / purge ---------------------------------------------------------------

    def _route(self, match: Match, emitted: List[Match]) -> None:
        point = self._seal_point(match.events)
        if point <= self.clock.horizon():
            self._decide(match, emitted)
        else:
            self.pending.add(match, point)
            self.stats.matches_pending = len(self.pending)
            if self._obs is not None:
                self._obs.note_pending(self, match, point)

    def _decide(self, match: Match, emitted: List[Match]) -> None:
        if self._violated is not None and self._violated(
            match.events, self.negatives, self.stats
        ):
            self.stats.matches_cancelled += 1
            if self._obs is not None:
                self._obs.note_cancelled(self, match, "negation violated at seal")
            return
        if self.pattern.has_kleene:
            collections = collect_kleene(
                self.pattern, match, self.kleene_store, self.stats
            )
            if collections is None:
                self.stats.matches_cancelled += 1
                if self._obs is not None:
                    self._obs.note_cancelled(self, match, "empty kleene collection")
                return
            match = match.with_collections(collections)
        self._emit(match, self.clock.now)
        emitted.append(match)

    def _release_ripe(self, emitted: List[Match]) -> None:
        for match in self.pending.release(self.clock.horizon()):
            self._decide(match, emitted)
        self.stats.matches_pending = len(self.pending)

    def _purge(self) -> None:
        horizon = self.clock.horizon()
        if horizon < 0:
            return
        final = self.pattern.length - 1
        dropped = 0
        for index, stack in enumerate(self.stacks):
            threshold = horizon + 1 if index == final else horizon - self.pattern.within
            kept = []
            removed = 0
            for instance in stack:
                if instance.ts <= threshold:
                    removed += 1
                else:
                    kept.append(instance)
            if removed:
                # RIP pointers index into the previous stack; shifting that
                # stack left by `removed` requires rescaling the next
                # stack's pointers — the in-order engine does this under
                # its ordering assumption (purged entries are a prefix).
                if index + 1 < len(self.stacks):
                    for later in self.stacks[index + 1]:
                        later.rip = max(0, later.rip - removed)
                stack[:] = kept
                dropped += removed
        self.stats.instances_purged += dropped
        self.stats.negatives_purged += self.negatives.purge_through(
            horizon - self.pattern.within
        )
        self.stats.negatives_purged += self.kleene_store.purge_through(
            horizon - self.pattern.within
        )
        self.stats.purge_runs += 1
