"""The engine-side observability bundle.

:class:`Observability` is what ``Engine.enable_observability()``
attaches.  It owns the tracer and the metric handles and wraps the
engine's step loop: when ``engine._obs`` is set, every feeding surface
delegates here.  With a tracer this module classifies what happened to
each element (from counter deltas around a one-element call of the same
loop the uninstrumented path runs) and records lifecycle spans; with
metrics alone a batch stays one call of the loop, observed between its
elements (:meth:`Observability.feed_batch`).

Cost contract, pinned by experiment E18:

* **disabled** (the default) — ``Engine.feed`` pays one attribute
  check; ``feed_batch`` / ``feed_colbatch`` pay one check per *batch*;
* **metrics only** — a handful of counter/histogram updates per
  element, no allocation beyond the histogram's int bumps; a batch
  pays the loop's set-up once, like a plain one;
* **tracing** — span allocation per element plus the fine-grained
  hooks (purge/shed peeks, predicate re-evaluation for rejections).

Everything here is pure computation on engine state — no wall clock,
no I/O, no set iteration — so instrumented runs remain deterministic
and replay-equivalent (analyzer rules R002/R003 apply to this module
through ``tests/analysis``'s tree-wide gate).

Parity is load-bearing: an instrumented engine must produce exactly
the same results, emissions, and counters as a plain one.  The
classification reads stat deltas and re-evaluates predicates *without*
passing ``stats``; the test suite pins instrumented == plain across
every family.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.core.event import (
    Event,
    admission_error,
    is_event,
    malformed_reason,
)
from repro.obs import trace as stages
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    STATE_BUCKETS,
    TICK_BUCKETS,
    MetricsRegistry,
)
from repro.obs.trace import NullTracer, Tracer


def _worker_metric_name(name: str) -> str:
    """Parallel-worker metric names: ``repro_x`` -> ``repro_worker_x``."""
    if name.startswith("repro_"):
        return "repro_worker_" + name[len("repro_"):]
    return "worker_" + name


class Observability:
    """Tracer + metric handles bound to one engine.

    Built via ``engine.enable_observability(tracer=..., metrics=...)``;
    either side may be omitted (tracing without metrics, or metrics
    without tracing).
    """

    __slots__ = (
        "tracer",
        "registry",
        "tracing",
        "stream",
        "c_events",
        "c_punctuations",
        "c_matches",
        "c_late",
        "c_quarantined",
        "c_shed",
        "c_purged",
        "h_ticks",
        "h_latency",
        "h_state",
        "g_state",
        "g_pending",
        "g_buffer",
        "h_residence",
        "c_released",
        "c_index_hits",
        "c_index_misses",
        "h_index_candidates",
        "c_speculative",
        "c_retractions",
        "h_spec_latency",
        "g_refreeze_k",
    )

    def __init__(
        self,
        engine: Any,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
        stream: str = "",
    ):
        self.tracer = tracer if tracer is not None else NullTracer()
        self.registry = registry
        self.tracing = bool(self.tracer.enabled)
        # Span-id namespace: layered engines (reorder inner) share one
        # tracer under distinct stream tags.
        self.stream = stream
        self._register(engine)

    def _register(self, engine: Any) -> None:
        registry = self.registry
        if registry is None:
            self.c_events = self.c_punctuations = self.c_matches = None
            self.c_late = self.c_quarantined = self.c_shed = self.c_purged = None
            self.h_ticks = self.h_latency = self.h_state = None
            self.g_state = self.g_pending = self.g_buffer = None
            self.h_residence = self.c_released = None
            self.c_index_hits = self.c_index_misses = None
            self.h_index_candidates = None
            self.c_speculative = self.c_retractions = None
            self.h_spec_latency = self.g_refreeze_k = None
            return
        self.c_events = registry.counter(
            "repro_events_total", "stream events fed to the engine"
        )
        self.c_punctuations = registry.counter(
            "repro_punctuations_total", "punctuations fed to the engine"
        )
        self.c_matches = registry.counter(
            "repro_matches_total", "matches emitted (including at close)"
        )
        self.c_late = registry.counter(
            "repro_late_dropped_total", "events dropped for violating the K promise"
        )
        self.c_quarantined = registry.counter(
            "repro_quarantined_total", "malformed elements quarantined at admission"
        )
        self.c_shed = registry.counter(
            "repro_shed_total", "stored events evicted by load shedding"
        )
        self.c_purged = registry.counter(
            "repro_purged_total", "stored elements purged at the safe horizon"
        )
        self.h_ticks = registry.histogram(
            "repro_processing_ticks",
            "per-event algorithmic work (partials + predicate evals + triggers)",
            TICK_BUCKETS,
        )
        self.h_latency = registry.histogram(
            "repro_emission_latency_ts",
            "stream-clock minus match end timestamp at emission",
            LATENCY_BUCKETS,
        )
        self.h_state = registry.histogram(
            "repro_state_size",
            "retained state size sampled after each element",
            STATE_BUCKETS,
        )
        self.g_state = registry.gauge(
            "repro_state_size_now", "retained state size after the last element"
        )
        self.g_pending = registry.gauge(
            "repro_matches_pending", "matches parked awaiting negation sealing"
        )
        # Reorder-tier metrics, registered only for buffering engines.
        from repro.core.reorder import ReorderingEngine

        if isinstance(engine, ReorderingEngine):
            self.g_buffer = registry.gauge(
                "repro_reorder_buffer", "events held back by the reorder buffer"
            )
            self.h_residence = registry.histogram(
                "repro_reorder_residence_ts",
                "stream-clock minus event timestamp at buffer release",
                LATENCY_BUCKETS,
            )
            self.c_released = registry.counter(
                "repro_reorder_released_total", "events released to the inner engine"
            )
        else:
            self.g_buffer = self.h_residence = self.c_released = None
        # Equality-index metrics, registered only when the engine's
        # construction plan actually probes an index.
        constructor = getattr(engine, "constructor", None)
        if (
            constructor is not None
            and constructor.index
            and constructor.indexed_attrs is not None
        ):
            self.c_index_hits = registry.counter(
                "repro_index_hits_total",
                "equality-index lookups that yielded candidates",
            )
            self.c_index_misses = registry.counter(
                "repro_index_misses_total",
                "equality-index lookups that proved a dead end",
            )
            self.h_index_candidates = registry.histogram(
                "repro_index_candidates",
                "candidate-set size served per equality-index lookup",
                TICK_BUCKETS,
            )
            constructor._observe_candidates = self.h_index_candidates.observe
        else:
            self.c_index_hits = self.c_index_misses = None
            self.h_index_candidates = None
        # Speculation/controller metrics, registered only for engines
        # running the optimistic or adaptive modes.
        if getattr(engine, "speculation", None) is not None:
            self.c_speculative = registry.counter(
                "repro_speculative_total",
                "matches emitted into the speculative stream",
            )
            self.c_retractions = registry.counter(
                "repro_retractions_total",
                "speculative emissions withdrawn by retraction records",
            )
            self.h_spec_latency = registry.histogram(
                "repro_speculative_latency_ts",
                "stream-clock minus match end timestamp at speculative emission",
                LATENCY_BUCKETS,
            )
        else:
            self.c_speculative = self.c_retractions = None
            self.h_spec_latency = None
        if getattr(engine, "_controller", None) is not None:
            self.g_refreeze_k = registry.gauge(
                "repro_refrozen_k", "disorder bound chosen at the last re-freeze"
            )
        else:
            self.g_refreeze_k = None
        shed = getattr(engine, "shed", None)
        if shed is not None:
            pattern = getattr(engine, "pattern", None)
            shed.register_metrics(
                registry,
                retained_types=(
                    pattern.relevant_types if pattern is not None else None
                ),
            )

    # -- the instrumented feed path ---------------------------------------------

    def feed(self, engine: Any, element: Any) -> List[Any]:
        """Instrumented form of ``Engine.feed``.

        Must stay observably identical to the plain path: same
        admission screening, same counter updates, same state-size
        bookkeeping (the parity tests pin this element for element).
        """
        stats = engine.stats
        tracer = self.tracer
        tracing = self.tracing
        if malformed_reason(element) is not None:
            from repro.core.engine import ValidationPolicy

            if engine.validation is ValidationPolicy.QUARANTINE:
                stats.events_quarantined += 1
                if self.c_quarantined is not None:
                    self.c_quarantined.inc()
                if tracing:
                    tracer.record(
                        engine._arrival,
                        stages.QUARANTINED,
                        eid=getattr(element, "eid", None),
                        ts=getattr(element, "ts", None),
                        etype=getattr(element, "etype", None),
                        detail=malformed_reason(element) or "",
                        stream=self.stream,
                    )
                return []
            raise admission_error(element)
        if is_event(element):
            emitted = self._feed_event(engine, element, stats, tracer, tracing)
        else:
            emitted = self._feed_punctuation(engine, element, stats, tracer, tracing)
        self._note_state(engine, stats)
        return emitted

    def feed_batch(self, engine: Any, elements: Iterable[Any]) -> List[Any]:
        """Instrumented form of ``Engine.feed_batch``.

        Tracing classifies each element from counters the step loop
        only flushes when it returns, so it feeds one element per call.
        Metrics alone read nothing but live state — work ticks,
        emissions, state size — so the batch stays ONE call of the loop,
        handed a generator that observes each element as the loop comes
        back for the next; the flow counters are summed once the loop
        has flushed them.  Registry contents are identical either way.
        """
        if self.tracing or self.c_events is None:
            emitted: List[Any] = []
            for element in elements:
                emitted.extend(self.feed(engine, element))
            return emitted
        stats = engine.stats
        before_late = stats.late_dropped
        before_shed = stats.events_shed
        before_purged = stats.instances_purged + stats.negatives_purged
        before_quarantined = stats.events_quarantined
        try:
            return engine._run(self._stepped(engine, elements, stats))
        finally:
            self._note_flow_deltas(
                engine, [], stats, before_late, before_shed, before_purged
            )
            self.c_quarantined.inc(stats.events_quarantined - before_quarantined)

    def _stepped(self, engine: Any, elements: Iterable[Any], stats: Any) -> Iterator[Any]:
        """Yield *elements* to the step loop, observing each one after it ran."""
        for element in elements:
            if malformed_reason(element) is not None:
                yield element  # the loop quarantines it, or raises
                continue
            emissions = engine.emissions
            emitted_before = len(emissions)
            if is_event(element):
                work = self._work_marks(stats)
                yield element
                self._note_work(stats, *work)
            else:
                yield element
                self.c_punctuations.inc()
            if len(emissions) > emitted_before:
                self._note_matches(
                    engine, [record.match for record in emissions[emitted_before:]]
                )
            self._note_state(engine, stats)

    def _note_state(self, engine: Any, stats: Any) -> None:
        size = engine.state_size()
        stats.note_state_size(size)
        if self.g_state is not None:
            self.g_state.set(size)
            self.h_state.observe(size)
            self.g_pending.set(stats.matches_pending)
            if self.g_buffer is not None:
                self.g_buffer.set(engine.buffer_size())

    @staticmethod
    def _work_marks(stats: Any) -> Tuple[int, int, int]:
        return (
            stats.partial_combinations
            + stats.predicate_evaluations
            + stats.construction_triggers,
            stats.index_hits,
            stats.index_misses,
        )

    def _note_work(self, stats: Any, ticks: int, hits: int, misses: int) -> None:
        """One event's algorithmic work since :meth:`_work_marks`."""
        self.c_events.inc()
        self.h_ticks.observe(
            stats.partial_combinations
            + stats.predicate_evaluations
            + stats.construction_triggers
            - ticks
        )
        if self.c_index_hits is not None:
            if stats.index_hits > hits:
                self.c_index_hits.inc(stats.index_hits - hits)
            if stats.index_misses > misses:
                self.c_index_misses.inc(stats.index_misses - misses)

    def _feed_event(
        self, engine: Any, event: Event, stats: Any, tracer: Any, tracing: bool
    ) -> List[Any]:
        work = self._work_marks(stats)
        before_late = stats.late_dropped
        before_admitted = stats.events_admitted
        before_ignored = stats.events_ignored
        before_shed = stats.events_shed
        before_purged = stats.instances_purged + stats.negatives_purged
        # One-element call of the engine's own step loop: instrumented
        # and plain runs execute the same code.
        emitted = engine._run((event,))
        arrival = engine._arrival
        if tracing:
            if stats.late_dropped > before_late:
                tracer.record(
                    arrival, stages.LATE_DROPPED,
                    eid=event.eid, ts=event.ts, etype=event.etype,
                    detail=f"horizon={engine.clock.horizon()}",
                    stream=self.stream,
                )
            elif stats.events_admitted > before_admitted:
                tracer.record(
                    arrival, stages.ADMITTED,
                    eid=event.eid, ts=event.ts, etype=event.etype,
                    detail=self._admission_detail(engine, event),
                    stream=self.stream,
                )
            elif stats.events_ignored > before_ignored:
                self._record_ignored(engine, event, tracer, arrival)
            elif not tracer.recorded_for(arrival, self.stream):
                # Families without per-event admission accounting (the
                # deferring parallel pre-pass); buffering engines record
                # BUFFERED via note_buffered before this point.
                tracer.record(
                    arrival, stages.PROCESSED,
                    eid=event.eid, ts=event.ts, etype=event.etype,
                    stream=self.stream,
                )
            self._record_matches(engine, emitted, tracer, arrival, stages.MATCH_EMITTED)
        if self.c_events is not None:
            self._note_work(stats, *work)
            self._note_flow_deltas(
                engine, emitted, stats, before_late, before_shed, before_purged
            )
        return emitted

    def _feed_punctuation(
        self, engine: Any, punctuation: Any, stats: Any, tracer: Any, tracing: bool
    ) -> List[Any]:
        before_shed = stats.events_shed
        before_purged = stats.instances_purged + stats.negatives_purged
        stats.punctuations_in += 1
        emitted = engine._on_punctuation(punctuation)
        arrival = engine._arrival
        if tracing:
            tracer.record(
                arrival, stages.PUNCTUATION, ts=punctuation.ts,
                detail=f"horizon={engine.clock.horizon()}"
                if hasattr(engine, "clock") else "",
                stream=self.stream,
            )
            self._record_matches(engine, emitted, tracer, arrival, stages.MATCH_EMITTED)
        if self.c_punctuations is not None:
            self.c_punctuations.inc()
            self._note_flow_deltas(
                engine, emitted, stats, stats.late_dropped, before_shed, before_purged
            )
        return emitted

    def _note_flow_deltas(
        self,
        engine: Any,
        emitted: List[Any],
        stats: Any,
        before_late: int,
        before_shed: int,
        before_purged: int,
    ) -> None:
        if stats.late_dropped > before_late:
            self.c_late.inc(stats.late_dropped - before_late)
        if stats.events_shed > before_shed:
            self.c_shed.inc(stats.events_shed - before_shed)
        purged_now = stats.instances_purged + stats.negatives_purged
        if purged_now > before_purged:
            self.c_purged.inc(purged_now - before_purged)
        if emitted:
            self._note_matches(engine, emitted)

    def _note_matches(self, engine: Any, emitted: List[Any]) -> None:
        self.c_matches.inc(len(emitted))
        clock = getattr(engine, "clock", None)
        if clock is not None:
            now = clock.now
            for match in emitted:
                latency = now - match.end_ts
                self.h_latency.observe(latency if latency > 0 else 0)

    # -- classification helpers --------------------------------------------------

    def _admission_detail(self, engine: Any, event: Event) -> str:
        scanner = getattr(engine, "scanner", None)
        if scanner is None:
            return ""
        parts = []
        entries = scanner.dispatch().get(event.etype) or ()
        for step_index, var, predicates in entries:
            ok = True
            for predicate in predicates:
                if not predicate.evaluate({var: event}):
                    ok = False
                    break
            if ok:
                parts.append(f"step {step_index}")
        negatives = getattr(engine, "negatives", None)
        if negatives is not None and negatives.relevant(event.etype):
            parts.append("negative store")
        kleene = getattr(engine, "kleene_store", None)
        if kleene is not None and kleene.relevant(event.etype):
            parts.append("kleene store")
        return ", ".join(parts)

    def _record_ignored(
        self, engine: Any, event: Event, tracer: Any, arrival: int
    ) -> None:
        """IGNORED span, with PREDICATE_REJECTED spans when predicates said no.

        Re-evaluates the scanner's per-type local predicates *without*
        the stats object, so classification never perturbs the counters
        the parity tests compare.
        """
        scanner = getattr(engine, "scanner", None)
        entries = scanner.dispatch().get(event.etype) if scanner is not None else None
        rejected = []
        if entries:
            for step_index, var, predicates in entries:
                for predicate in predicates:
                    if not predicate.evaluate({var: event}):
                        rejected.append((step_index, predicate))
                        break
        if rejected:
            for step_index, predicate in rejected:
                tracer.record(
                    arrival, stages.PREDICATE_REJECTED,
                    eid=event.eid, ts=event.ts, etype=event.etype,
                    detail=f"step {step_index}: {predicate!r}",
                    stream=self.stream,
                )
            if len(rejected) == len(entries):
                tracer.record(
                    arrival, stages.IGNORED,
                    eid=event.eid, ts=event.ts, etype=event.etype,
                    detail="every admissible step's predicate rejected",
                    stream=self.stream,
                )
        else:
            tracer.record(
                arrival, stages.IGNORED,
                eid=event.eid, ts=event.ts, etype=event.etype,
                detail="type not relevant to the pattern"
                if event.etype not in engine.pattern.relevant_types else "",
                stream=self.stream,
            )

    def _record_matches(
        self, engine: Any, matches: List[Any], tracer: Any, arrival: int, stage: str,
        extra: str = "",
    ) -> None:
        for match in matches:
            eids = ",".join(str(e.eid) for e in match.events)
            detail = f"match [{eids}] span {match.start_ts}..{match.end_ts}"
            if extra:
                detail = f"{detail} ({extra})"
            for contributing in match.events:
                tracer.record(
                    arrival, stage,
                    eid=contributing.eid, ts=contributing.ts,
                    etype=contributing.etype, detail=detail,
                    stream=self.stream,
                )

    # -- engine-side hooks (guarded by `self._obs is not None` at call sites) -----

    def note_buffered(self, engine: Any, event: Event) -> None:
        if self.tracing:
            self.tracer.record(
                engine._arrival, stages.BUFFERED,
                eid=event.eid, ts=event.ts, etype=event.etype,
                detail=f"buffer={engine.buffer_size()}",
                stream=self.stream,
            )

    def note_released(self, engine: Any, event: Event) -> None:
        if self.tracing:
            self.tracer.record(
                engine._arrival, stages.RELEASED,
                eid=event.eid, ts=event.ts, etype=event.etype,
                detail=f"clock={engine.clock.now}",
                stream=self.stream,
            )
        if self.c_released is not None:
            self.c_released.inc()
            residence = engine.clock.now - event.ts
            self.h_residence.observe(residence if residence > 0 else 0)

    def note_purge(self, engine: Any) -> None:
        """Record the events the imminent purge run will evict.

        Called *before* ``Purger.run`` when tracing is on; the peek
        shares the purger's threshold arithmetic, so spans match the
        actual evictions exactly.
        """
        if not self.tracing:
            return
        horizon = engine.clock.horizon()
        victims = engine.purger.peek(
            horizon, engine.stacks, engine.negatives, kleene=engine.kleene_store
        )
        arrival = engine._arrival
        for event in victims:
            self.tracer.record(
                arrival, stages.PURGED,
                eid=event.eid, ts=event.ts, etype=event.etype,
                detail=f"horizon={horizon}",
                stream=self.stream,
            )

    def note_shed(self, engine: Any, victims: List[Event]) -> None:
        if not self.tracing:
            return
        arrival = engine._arrival
        bound = engine.shed.max_state if engine.shed is not None else 0
        for event in victims:
            self.tracer.record(
                arrival, stages.SHED,
                eid=event.eid, ts=event.ts, etype=event.etype,
                detail=f"state bound {bound} exceeded",
                stream=self.stream,
            )

    def note_pending(self, engine: Any, match: Any, seal_at: int) -> None:
        if self.tracing:
            self._record_matches(
                engine, [match], self.tracer, engine._arrival,
                stages.MATCH_PENDING, extra=f"seals at horizon {seal_at}",
            )

    def note_cancelled(self, engine: Any, match: Any, cause: str) -> None:
        if self.tracing:
            self._record_matches(
                engine, [match], self.tracer, engine._arrival,
                stages.MATCH_CANCELLED, extra=cause,
            )

    def note_speculated(self, engine: Any, record: Any) -> None:
        """A match entered the speculative stream (ahead of or at its seal)."""
        if self.tracing:
            self._record_matches(
                engine, [record.match], self.tracer, engine._arrival,
                stages.MATCH_SPECULATED,
                extra=f"seq {record.seq} epoch {record.epoch}",
            )
        if self.c_speculative is not None:
            self.c_speculative.inc()
            latency = record.emitted_clock - record.match.end_ts
            self.h_spec_latency.observe(latency if latency > 0 else 0)

    def note_retracted(self, engine: Any, retraction: Any) -> None:
        """A speculative emission was withdrawn by a retraction record."""
        if self.tracing:
            self._record_matches(
                engine, [retraction.match], self.tracer, engine._arrival,
                stages.MATCH_RETRACTED,
                extra=f"ref {retraction.ref_seq}: {retraction.cause}",
            )
        if self.c_retractions is not None:
            self.c_retractions.inc()

    def note_refreeze(self, engine: Any, decision: Any) -> None:
        """The adaptive-K controller re-froze the bound at a punctuation."""
        if self.tracing:
            self.tracer.record(
                engine._arrival, stages.REFROZEN,
                ts=decision.at_ts,
                detail=(
                    f"k={decision.k} speculate={decision.speculate} "
                    f"({decision.reason})"
                ),
                stream=self.stream,
            )
        if self.g_refreeze_k is not None:
            self.g_refreeze_k.set(decision.k)

    def after_close(self, engine: Any, emitted: List[Any]) -> None:
        """Account for the matches flushed at end of stream."""
        if self.tracing and emitted:
            self._record_matches(
                engine, emitted, self.tracer, engine._arrival,
                stages.MATCH_EMITTED, extra="at close",
            )
        if self.c_matches is not None:
            if emitted:
                self.c_matches.inc(len(emitted))
                clock = getattr(engine, "clock", None)
                if clock is not None:
                    now = clock.now
                    for match in emitted:
                        latency = now - match.end_ts
                        self.h_latency.observe(latency if latency > 0 else 0)
            self.g_state.set(engine.state_size())
            self.g_pending.set(engine.stats.matches_pending)

    # -- parallel-worker merge ----------------------------------------------------

    def merge_worker_states(self, states: List[Optional[dict]]) -> None:
        """Fold per-worker registry snapshots in, deterministically.

        Worker metric names are prefixed (``repro_events_total`` →
        ``repro_worker_events_total``) so the router's own flow metrics
        never collide with the workers'.  *states* arrives in payload
        (routing-insertion) order, and the merge is order-insensitive
        anyway — counters and buckets add, gauges max — so the result
        is a pure function of the input stream.
        """
        if self.registry is None:
            return
        for state in states:
            if state:
                self.registry.merge_state(state, rename=_worker_metric_name)
