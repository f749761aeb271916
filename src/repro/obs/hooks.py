"""The engine-side observability bundle.

:class:`Observability` is what ``Engine.enable_observability()``
attaches.  It owns the tracer and the metric handles and drives the
engine's step loop: when ``engine._obs`` is set, every feeding surface
(``feed`` included, as a one-element batch) goes through
:meth:`Observability.feed_batch`.  It never screens, counts or applies
an element itself — the loop does, exactly as on the plain path — and
reads what each element left behind: the live state between elements,
and the flushed :class:`~repro.core.stats.EngineStats` after a call.

* With metrics alone a batch stays one call of the loop, handed a
  generator that observes each element as the loop comes back for the
  next (work ticks, emission latency, state size).
* Tracing makes one call per element through the same observer, then
  classifies the element from the flushed counters and records its
  lifecycle spans.
* The flow counters (events, punctuations, matches, late, quarantined,
  shed, purged, index hits and misses) are the call's ``EngineStats``
  deltas over the fields :data:`repro.core.stats.FLOW_FIELDS` names.

Cost contract, measured by experiment E18:

* **disabled** (the default) — ``Engine.feed`` pays one attribute
  check; ``feed_batch`` / ``feed_colbatch`` pay one check per *batch*;
* **metrics only** — per element, one generator step plus a few
  histogram/gauge updates and a ``state_size()`` call; the flow
  counters cost one read of the stats before and after each *call*; a
  batch pays that and the loop's set-up once, like a plain one;
* **tracing** — the loop's set-up per element, span allocation, and the
  fine-grained hooks (purge/shed peeks, predicate re-evaluation for
  rejections).

Everything here is pure computation on engine state — no wall clock,
no I/O, no set iteration — so instrumented runs remain deterministic
and replay-equivalent (``tests/core/test_hot_path_purity.py`` runs the
``metrics`` engine kind under a profile hook).

Parity is load-bearing: an instrumented engine must produce exactly
the same results, emissions, and counters as a plain one.  The observer
only reads, and re-evaluates predicates for classification *without*
passing ``stats``; the test suite pins instrumented == plain across
every family, and ``tests/golden/observability.json`` pins the spans
and registry themselves.
"""

from __future__ import annotations

from operator import attrgetter, sub
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.core.event import Event, is_event, malformed_reason
from repro.core.stats import FLOW_FIELDS
from repro.obs import trace as stages
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    STATE_BUCKETS,
    TICK_BUCKETS,
    MetricsRegistry,
)
from repro.obs.trace import NullTracer, Tracer

#: Flow counters, ``repro_<name>_total``: each adds the delta of its
#: ``FLOW_FIELDS`` once per call of the step loop.
FLOW_COUNTERS = (
    ("events", "stream events fed to the engine"),
    ("punctuations", "punctuations fed to the engine"),
    ("matches", "matches emitted (including at close)"),
    ("late_dropped", "events dropped for violating the K promise"),
    ("quarantined", "malformed elements quarantined at admission"),
    ("shed", "stored events evicted by load shedding"),
    ("purged", "stored elements purged at the safe horizon"),
)
#: Registered only when the engine's construction plan probes an index.
INDEX_COUNTERS = (
    ("index_hits", "equality-index lookups that yielded candidates"),
    ("index_misses", "equality-index lookups that proved a dead end"),
)


def _work_ticks(stats: Any) -> int:
    """Algorithmic work so far: partials + predicate evals + triggers."""
    return (
        stats.partial_combinations
        + stats.predicate_evaluations
        + stats.construction_triggers
    )


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

    # Metric handles stay None for what the engine does not run (or
    # without a registry); the engine hooks test them before use.
    c_matches = h_ticks = h_latency = h_state = g_state = g_pending = None
    g_buffer = h_residence = c_released = h_index_candidates = None
    c_speculative = c_retractions = h_spec_latency = g_refreeze_k = None

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
        #: (counter, field) per flow field, in ``_read_flow`` order.
        self._flow: List[Tuple[Any, str]] = []
        self._read_flow = None
        self._register(engine)

    def _register(self, engine: Any) -> None:
        registry = self.registry
        if registry is None:
            return
        self._count_flow(FLOW_COUNTERS)
        self.c_matches = registry.get("repro_matches_total")
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
        # Equality-index metrics, registered only when the engine's
        # construction plan actually probes an index.
        constructor = getattr(engine, "constructor", None)
        if (
            constructor is not None
            and constructor.index
            and constructor.indexed_attrs is not None
        ):
            self._count_flow(INDEX_COUNTERS)
            self.h_index_candidates = registry.histogram(
                "repro_index_candidates",
                "candidate-set size served per equality-index lookup",
                TICK_BUCKETS,
            )
            constructor._observe_candidates = self.h_index_candidates.observe
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
        if getattr(engine, "_controller", None) is not None:
            self.g_refreeze_k = registry.gauge(
                "repro_refrozen_k", "disorder bound chosen at the last re-freeze"
            )
        shed = getattr(engine, "shed", None)
        if shed is not None:
            pattern = getattr(engine, "pattern", None)
            shed.register_metrics(
                registry,
                retained_types=(
                    pattern.relevant_types if pattern is not None else None
                ),
            )

    def _count_flow(self, table: Tuple[Tuple[str, str], ...]) -> None:
        for name, help_text in table:
            counter = self.registry.counter(f"repro_{name}_total", help_text)
            self._flow.extend((counter, field) for field in FLOW_FIELDS[name])
        self._read_flow = attrgetter(*(field for __, field in self._flow))

    # -- the instrumented step loop ----------------------------------------------

    def feed_batch(self, engine: Any, elements: Iterable[Any]) -> List[Any]:
        """The one instrumented driver of the engine's step loop.

        Every observed feeding surface comes here.  Metrics alone keep a
        batch ONE call of the loop, handed a generator that observes each
        element as the loop comes back for the next.  Tracing classifies
        each element from counters the loop only flushes when it returns,
        so it makes one call per element, through the same observer.
        The flow counters then add the batch's :class:`EngineStats`
        deltas, so registry contents never depend on the call shape.
        """
        read = self._read_flow
        before = read(engine.stats) if read is not None else None
        try:
            if self.tracing:
                emitted: List[Any] = []
                for element in elements:
                    emitted.extend(self._traced(engine, element))
                return emitted
            if read is None:
                return engine._run(elements)
            return engine._run(self._stepped(engine, elements))
        finally:
            if read is not None:
                deltas = map(sub, read(engine.stats), before)
                for (counter, __), delta in zip(self._flow, deltas):
                    if delta:
                        counter.inc(delta)

    def _stepped(self, engine: Any, elements: Iterable[Any]) -> Iterator[Any]:
        """Yield *elements* to the step loop, observing each one after it ran.

        An element the loop quarantined left no trace: an event did not
        advance the arrival index, a punctuation was not counted.
        """
        stats = engine.stats
        for element in elements:
            emissions = engine.emissions
            emitted_before = len(emissions)
            if is_event(element):
                arrival = engine._arrival
                ticks = _work_ticks(stats)
                yield element
                if engine._arrival == arrival:
                    continue
                self.h_ticks.observe(_work_ticks(stats) - ticks)
            else:
                punctuations = stats.flow_total("punctuations")
                yield element
                if stats.flow_total("punctuations") == punctuations:
                    continue
            if len(emissions) > emitted_before:
                self._observe_latency(
                    engine, [record.match for record in emissions[emitted_before:]]
                )
            self._note_state(engine, stats)

    def _traced(self, engine: Any, element: Any) -> List[Any]:
        """One call of the step loop for *element*, then its lifecycle spans."""
        stats = engine.stats
        before_quarantined = stats.events_quarantined
        before_late = stats.late_dropped
        before_admitted = stats.events_admitted
        before_ignored = stats.events_ignored
        one = (element,)
        if self.registry is not None:
            emitted = engine._run(self._stepped(engine, one))
        else:
            emitted = engine._run(one)
        tracer = self.tracer
        if stats.events_quarantined > before_quarantined:
            self._record_quarantined(engine, element)
        elif is_event(element):
            if stats.late_dropped > before_late:
                tracer.record(
                    engine._arrival, stages.LATE_DROPPED,
                    eid=element.eid, ts=element.ts, etype=element.etype,
                    detail=f"horizon={engine.clock.horizon()}",
                    stream=self.stream,
                )
            elif stats.events_admitted > before_admitted:
                tracer.record(
                    engine._arrival, stages.ADMITTED,
                    eid=element.eid, ts=element.ts, etype=element.etype,
                    detail=self._admission_detail(engine, element),
                    stream=self.stream,
                )
            elif stats.events_ignored > before_ignored:
                self._record_ignored(engine, element, tracer, engine._arrival)
        else:
            tracer.record(
                engine._arrival, stages.PUNCTUATION, ts=element.ts,
                detail=f"horizon={engine.clock.horizon()}"
                if hasattr(engine, "clock") else "",
                stream=self.stream,
            )
        self._record_matches(
            engine, emitted, tracer, engine._arrival, stages.MATCH_EMITTED
        )
        return emitted

    def _note_state(self, engine: Any, stats: Any) -> None:
        size = engine.state_size()
        self.g_state.set(size)
        self.h_state.observe(size)
        self.g_pending.set(stats.matches_pending)
        if self.g_buffer is not None:
            self.g_buffer.set(engine.buffer_size())

    def _observe_latency(self, engine: Any, matches: List[Any]) -> None:
        clock = getattr(engine, "clock", None)
        if clock is not None:
            now = clock.now
            for match in matches:
                latency = now - match.end_ts
                self.h_latency.observe(latency if latency > 0 else 0)

    # -- classification helpers --------------------------------------------------

    def _record_quarantined(self, engine: Any, element: Any) -> None:
        tracer = self.tracer
        tracer.record(
            engine._arrival, stages.QUARANTINED,
            eid=getattr(element, "eid", None),
            ts=getattr(element, "ts", None),
            etype=getattr(element, "etype", None),
            detail=malformed_reason(element) or "",
            stream=self.stream,
        )

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

        Called *before* the purge routine (``Purger.cut``) when tracing
        is on; the peek shares the purger's threshold arithmetic, so
        spans match the actual evictions exactly.
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
        """Account for the matches flushed at end of stream.

        Only the flushed matches count: the other flow counters report
        what the step loop did, and a close can fold work counters (a
        reorder tier's inner purges, parallel workers') into the stats.
        """
        if self.tracing and emitted:
            self._record_matches(
                engine, emitted, self.tracer, engine._arrival,
                stages.MATCH_EMITTED, extra="at close",
            )
        if self.registry is not None:
            self.c_matches.inc(len(emitted))
            self._observe_latency(engine, emitted)
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
