"""Observability bundle tests: parity with the plain path, lifecycle
stages, and per-family metric registration.

The load-bearing invariant: attaching a tracer/registry must not change
WHAT the engine computes — results, emission order, and every counter in
``EngineStats`` stay byte-identical to an uninstrumented run.
"""

from __future__ import annotations

import pytest
from helpers import bounded_shuffle, make_events

from repro.core.engine import OutOfOrderEngine, ValidationPolicy
from repro.core.event import Event, Punctuation
from repro.core.inorder import InOrderEngine
from repro.core.parser import parse
from repro.core.reorder import ReorderingEngine
from repro.core.shedding import ShedPolicy
from repro.faultinject import forge_event
from repro.obs import trace as stages
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def _instrumented_pair(build, elements, batch=False):
    plain = build()
    if batch:
        plain.feed_batch(list(elements))
    else:
        for element in elements:
            plain.feed(element)
    plain.close()

    instrumented = build()
    tracer = Tracer(capacity=1 << 16)
    registry = MetricsRegistry()
    instrumented.enable_observability(tracer=tracer, metrics=registry)
    if batch:
        instrumented.feed_batch(list(elements))
    else:
        for element in elements:
            instrumented.feed(element)
    instrumented.close()
    return plain, instrumented, tracer, registry


def _assert_parity(plain, instrumented):
    assert [m.key() for m in plain.results] == [m.key() for m in instrumented.results]
    assert plain.stats.as_dict() == instrumented.stats.as_dict()


@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize(
    "family",
    ["ooo", "inorder", "reorder", "speculative"],
)
def test_instrumentation_changes_nothing(family, batch, abc_pattern, random_trace):
    arrival = bounded_shuffle(random_trace, k=8, seed=3)
    if family == "inorder":
        arrival = sorted(arrival, key=lambda e: (e.ts, e.eid))
    builders = {
        "ooo": lambda: OutOfOrderEngine(abc_pattern, k=8),
        "inorder": lambda: InOrderEngine(abc_pattern),
        "reorder": lambda: ReorderingEngine(abc_pattern, k=8),
        "speculative": lambda: OutOfOrderEngine(abc_pattern, k=8, speculative=True),
    }
    plain, instrumented, tracer, registry = _instrumented_pair(
        builders[family], arrival, batch=batch
    )
    _assert_parity(plain, instrumented)
    assert tracer.recorded > 0
    assert registry.get("repro_events_total").value == len(arrival)
    assert registry.get("repro_matches_total").value == len(plain.results)


def test_admission_and_match_spans(abc_pattern):
    events = make_events("A1:0 B2:1 C3:0 D4:9")
    engine = OutOfOrderEngine(abc_pattern, k=0)
    tracer = Tracer()
    engine.enable_observability(tracer=tracer)
    for event in events:
        engine.feed(event)
    engine.close()
    assert len(engine.results) == 1
    a, b, c, d = events
    assert [s.stage for s in tracer.spans_for(a.eid)][0] == stages.ADMITTED
    assert stages.MATCH_EMITTED in [s.stage for s in tracer.spans_for(c.eid)]
    # D matches no step: ignored.
    assert [s.stage for s in tracer.spans_for(d.eid)] == [stages.IGNORED]


def test_predicate_rejection_is_attributed():
    pattern = parse("PATTERN SEQ(A a, B b) WHERE a.x > 5 WITHIN 10")
    engine = OutOfOrderEngine(pattern, k=0)
    tracer = Tracer()
    engine.enable_observability(tracer=tracer)
    reject = Event("A", 1, {"x": 2})
    engine.feed(reject)
    engine.close()
    spans = tracer.spans_for(reject.eid)
    assert [s.stage for s in spans] == [stages.PREDICATE_REJECTED, stages.IGNORED]
    assert "a" in spans[0].detail  # names the rejecting step variable


def test_late_drop_and_purge_spans(abc_pattern):
    events = make_events("A1:0 B2:0 C3:0")
    late = Event("A", 1, {"x": 0})
    engine = OutOfOrderEngine(abc_pattern, k=0)
    tracer = Tracer()
    engine.enable_observability(tracer=tracer)
    for event in events:
        engine.feed(event)
    engine.feed(Event("C", 40, {"x": 9}))  # advances clock: A1/B2/C3 purge
    engine.feed(late)
    engine.close()
    assert engine.stats.late_dropped == 1
    assert [s.stage for s in tracer.spans_for(late.eid)] == [stages.LATE_DROPPED]
    purged_eids = {s.eid for s in tracer.spans() if s.stage == stages.PURGED}
    assert events[0].eid in purged_eids


def test_quarantine_span_under_validation_policy():
    pattern = parse("PATTERN SEQ(A a, B b) WITHIN 10")
    engine = OutOfOrderEngine(pattern, k=0)
    engine.validation = ValidationPolicy.QUARANTINE
    tracer = Tracer()
    engine.enable_observability(tracer=tracer)
    bad = forge_event("A", -5, eid=999)
    engine.feed(bad)
    engine.close()
    assert engine.stats.events_quarantined == 1
    assert [s.stage for s in tracer.spans_for(bad.eid)] == [stages.QUARANTINED]


def test_punctuation_span(plain_seq2):
    engine = OutOfOrderEngine(plain_seq2, k=None)
    tracer = Tracer()
    engine.enable_observability(tracer=tracer)
    engine.feed(Event("A", 1, {}))
    engine.feed(Punctuation(5))
    engine.close()
    assert stages.PUNCTUATION in tracer.stage_counts()


def test_reorder_buffer_and_release_spans(plain_seq2):
    engine = ReorderingEngine(plain_seq2, k=2)
    tracer = Tracer()
    registry = MetricsRegistry()
    engine.enable_observability(tracer=tracer, metrics=registry)
    for event in make_events("A2 B1 A4 B3 A6 B5"):
        engine.feed(event)
    engine.close()
    counts = tracer.stage_counts()
    assert counts[stages.BUFFERED] == 6
    assert counts[stages.RELEASED] == 6
    # Inner-engine spans ride the same tracer under the "inner" stream.
    assert any(span.stream == "inner" for span in tracer.spans())
    residence = registry.get("repro_reorder_residence_ts")
    assert residence.count == 6
    assert registry.get("repro_reorder_released_total").value == 6


def test_shed_spans_and_gauge(abc_pattern):
    engine = OutOfOrderEngine(
        abc_pattern, k=None, shed=ShedPolicy.drop_oldest(max_state=3)
    )
    tracer = Tracer()
    registry = MetricsRegistry()
    engine.enable_observability(tracer=tracer, metrics=registry)
    for ts in range(1, 9):
        engine.feed(Event("A", ts, {"x": 0}))
    engine.close()
    assert engine.stats.events_shed > 0
    shed_spans = [s for s in tracer.spans() if s.stage == stages.SHED]
    assert len(shed_spans) == engine.stats.events_shed
    assert registry.get("repro_shed_bound").value == 3
    assert registry.get("repro_shed_total").value == engine.stats.events_shed


def test_shed_parity_with_plain_run(abc_pattern):
    def build():
        return OutOfOrderEngine(
            abc_pattern, k=None, shed=ShedPolicy.drop_oldest(max_state=5)
        )

    arrival = [Event("ABC"[i % 3], ts, {"x": i % 2}) for i, ts in enumerate(range(1, 60))]
    plain, instrumented, _, _ = _instrumented_pair(build, arrival)
    _assert_parity(plain, instrumented)


def test_negation_pending_and_cancelled_spans(neg_pattern):
    # A1 C3 with a violating B2 arriving before the seal: cancelled.
    engine = OutOfOrderEngine(neg_pattern, k=2)
    tracer = Tracer()
    engine.enable_observability(tracer=tracer)
    for event in make_events("A1:0 C3:0 B2:0 C30:5"):
        engine.feed(event)
    engine.close()
    counts = tracer.stage_counts()
    assert counts.get(stages.MATCH_PENDING, 0) >= 1
    assert counts.get(stages.MATCH_CANCELLED, 0) >= 1


def test_metrics_without_tracer_keeps_tracing_off(abc_pattern, random_trace):
    engine = OutOfOrderEngine(abc_pattern, k=8)
    registry = MetricsRegistry()
    obs = engine.enable_observability(metrics=registry)
    assert obs.tracing is False
    arrival = bounded_shuffle(random_trace, k=8, seed=1)
    for element in arrival:
        engine.feed(element)
    engine.close()
    assert registry.get("repro_events_total").value == len(arrival)
    ticks = registry.get("repro_processing_ticks")
    assert ticks.count == len(arrival)
    latency = registry.get("repro_emission_latency_ts")
    assert latency.count == len(engine.results)


@pytest.mark.parametrize(
    "family", ["ooo", "inorder", "reorder", "speculative", "partitioned", "shedding"]
)
def test_metrics_only_batches_fill_the_registry_like_single_feeds(
    family, neg_pattern, random_trace
):
    """With metrics alone a batch is one call of the step loop, observed
    between its elements: every counter, gauge and histogram bucket must
    equal what feeding the same elements one by one records."""
    from repro.core.partition import PartitionedEngine

    arrival = bounded_shuffle(random_trace, k=8, seed=5)
    if family == "inorder":
        arrival = sorted(arrival, key=lambda e: (e.ts, e.eid))
    else:
        arrival.insert(120, Punctuation(min(e.ts for e in arrival[120:]) - 1))
        arrival.insert(200, Event("A", 2, {"x": 1}))  # late: dropped
    arrival.insert(50, forge_event("A", -5, attrs={"x": 1}))  # quarantined
    builders = {
        "ooo": lambda: OutOfOrderEngine(neg_pattern, k=8),
        "inorder": lambda: InOrderEngine(neg_pattern),
        "reorder": lambda: ReorderingEngine(neg_pattern, k=8),
        "speculative": lambda: OutOfOrderEngine(neg_pattern, k=8, speculative=True),
        "partitioned": lambda: PartitionedEngine(neg_pattern, k=8, key="x"),
        "shedding": lambda: OutOfOrderEngine(
            neg_pattern, k=8, shed=ShedPolicy.drop_oldest(10)
        ),
    }

    def run(cuts):
        engine = builders[family]()
        engine.validation = ValidationPolicy.QUARANTINE
        registry = MetricsRegistry()
        engine.enable_observability(metrics=registry)
        emitted, at = [], 0
        for end in cuts:
            if end - at == 1:
                emitted.extend(engine.feed(arrival[at]))
            else:
                emitted.extend(engine.feed_batch(arrival[at:end]))
            at = end
        emitted.extend(engine.close())
        return [m.key() for m in emitted], engine.stats.as_dict(), registry.snapshot_state()

    single = run(range(1, len(arrival) + 1))
    assert single[2]["counters"]["repro_quarantined_total"]["value"] == 1
    for cuts in ([len(arrival)], [1, 2, 40, 51, 52, 121, 150, 201, 260, len(arrival)]):
        assert run(cuts) == single


def test_state_size_metrics_track_peak(abc_pattern, random_trace):
    engine = OutOfOrderEngine(abc_pattern, k=8)
    registry = MetricsRegistry()
    engine.enable_observability(metrics=registry)
    for element in bounded_shuffle(random_trace, k=8, seed=2):
        engine.feed(element)
    engine.close()
    histogram = registry.get("repro_state_size")
    assert histogram.count > 0
    # The gauge saw every sample; its max is the engine's peak.
    assert engine.stats.peak_state_size > 0


def test_speculation_spans_and_counters(neg_pattern):
    # A1 C3 speculates at park time; the late B2 retracts it at seal.
    engine = OutOfOrderEngine(neg_pattern, k=6, speculative=True)
    tracer = Tracer()
    registry = MetricsRegistry()
    engine.enable_observability(tracer=tracer, metrics=registry)
    for event in make_events("A1:0 C3:0 B2:0"):
        engine.feed(event)
    engine.close()
    counts = tracer.stage_counts()
    assert counts.get(stages.MATCH_SPECULATED, 0) >= 1
    assert counts.get(stages.MATCH_RETRACTED, 0) >= 1
    assert registry.get("repro_speculative_total").value == 1
    assert registry.get("repro_retractions_total").value == 1
    assert registry.get("repro_speculative_latency_ts").count == 1


def test_speculative_metrics_not_registered_without_mode(abc_pattern):
    engine = OutOfOrderEngine(abc_pattern, k=4)
    registry = MetricsRegistry()
    engine.enable_observability(metrics=registry)
    assert registry.get("repro_speculative_total") is None
    assert registry.get("repro_retractions_total") is None
    assert registry.get("repro_refrozen_k") is None


def test_speculative_parity_with_plain_run(neg_pattern, random_trace):
    # Instrumentation on a speculative engine still changes nothing.
    arrival = bounded_shuffle(random_trace, k=8, seed=5)
    plain, instrumented, __, __ = _instrumented_pair(
        lambda: OutOfOrderEngine(neg_pattern, k=8, speculative=True), arrival
    )
    _assert_parity(plain, instrumented)


def test_refreeze_span_and_gauge(plain_seq2):
    from repro.streams import AdaptiveKController

    controller = AdaptiveKController(
        quality_target=0.5, window=4, min_epoch_events=1
    )
    engine = OutOfOrderEngine(plain_seq2, k=30, controller=controller)
    tracer = Tracer()
    registry = MetricsRegistry()
    engine.enable_observability(tracer=tracer, metrics=registry)
    for event in make_events("A1 B2 A3 B4 A5"):
        engine.feed(event)
    engine.feed(Punctuation(5))
    engine.close()
    assert stages.REFROZEN in tracer.stage_counts()
    assert registry.get("repro_refrozen_k").value == engine.clock.k
    assert engine.clock.k < 30  # the calm epoch decayed the bound
