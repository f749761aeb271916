"""Property-based tests for speculative emission and the adaptive controller.

The two pinned contracts:

* **Sealed-output identity** — a speculative engine's sealed streams
  (``results`` with detection order, ``emissions`` with seq/clock) are
  byte-identical to a pessimistic run of the same arrival permutation,
  under any combination of disorder, mid-stream snapshot/restore, and
  load shedding.
* **Convergence** — after ``close()``, the speculative stream net of
  retractions equals the sealed result set exactly, and no record is
  left open.

Plus the controller's soundness envelope: under random punctuation
placement and re-freeze decisions, the engine horizon stays monotone
and K changes only at punctuation boundaries.
"""

from hypothesis import given, settings, strategies as st

from repro import (
    Event,
    OutOfOrderEngine,
    Punctuation,
    ShedPolicy,
    seq,
)
from repro.streams import AdaptiveKController
from helpers import bounded_shuffle

PATTERNS = [
    seq("A a", "B b", within=10, name="s2"),
    seq("A a", "!B b", "C c", within=15, name="sneg"),
    seq("!B b", "A a", "C c", within=15, name="slead"),
    seq("A a", "C c", "!B b", within=15, name="strail"),
]


def trace_strategy(types="ABCX", max_ts=60, max_len=60, attr_range=3):
    event = st.tuples(
        st.sampled_from(types),
        st.integers(min_value=0, max_value=max_ts),
        st.integers(min_value=0, max_value=attr_range - 1),
    )
    return st.lists(event, min_size=0, max_size=max_len).map(
        lambda items: [Event(t, ts, {"x": x}) for t, ts, x in items]
    )


def _sealed_trail(engine):
    return (
        [(m.key(), m.detected_at) for m in engine.results],
        [(r.match.key(), r.emitted_seq, r.emitted_clock) for r in engine.emissions],
    )


def _run(engine, arrival, cut=None, rebuild=None):
    """Feed *arrival*, optionally snapshot/restore into *rebuild()* at *cut*."""
    if cut is None:
        engine.feed_batch(arrival)
        engine.close()
        return engine
    for element in arrival[:cut]:
        engine.feed(element)
    resumed = rebuild()
    resumed.restore(engine.snapshot())
    for element in arrival[cut:]:
        resumed.feed(element)
    resumed.close()
    return resumed


@given(
    trace=trace_strategy(),
    pattern_index=st.integers(min_value=0, max_value=len(PATTERNS) - 1),
    k=st.integers(min_value=0, max_value=30),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=100, deadline=None)
def test_sealed_output_identical_across_disorder(trace, pattern_index, k, seed):
    pattern = PATTERNS[pattern_index]
    arrival = bounded_shuffle(trace, k=k, seed=seed)
    plain = _run(OutOfOrderEngine(pattern, k=k), arrival)
    spec = _run(OutOfOrderEngine(pattern, k=k, speculative=True), arrival)
    assert _sealed_trail(spec) == _sealed_trail(plain)
    assert spec.speculation.open_count == 0
    assert spec.speculation.net_keys() == spec.result_set()


@given(
    trace=trace_strategy(max_len=50),
    pattern_index=st.integers(min_value=0, max_value=len(PATTERNS) - 1),
    k=st.integers(min_value=0, max_value=20),
    seed=st.integers(min_value=0, max_value=10_000),
    cut_fraction=st.floats(min_value=0.1, max_value=0.9),
)
@settings(max_examples=60, deadline=None)
def test_sealed_output_identical_across_snapshot_restore(
    trace, pattern_index, k, seed, cut_fraction
):
    pattern = PATTERNS[pattern_index]
    arrival = bounded_shuffle(trace, k=k, seed=seed)
    cut = int(len(arrival) * cut_fraction)
    plain = _run(OutOfOrderEngine(pattern, k=k), arrival)
    spec = _run(
        OutOfOrderEngine(pattern, k=k, speculative=True),
        arrival,
        cut=cut,
        rebuild=lambda: OutOfOrderEngine(pattern, k=k, speculative=True),
    )
    assert _sealed_trail(spec) == _sealed_trail(plain)
    assert spec.speculation.net_keys() == spec.result_set()
    # The speculative stream itself also survives the restore intact:
    # sequence ids stay gapless and totally ordered.
    seqs = sorted(
        [r.seq for r in spec.speculation.emissions]
        + [r.seq for r in spec.speculation.retractions]
    )
    assert seqs == list(range(len(seqs)))


@given(
    trace=trace_strategy(max_ts=40, max_len=60),
    pattern_index=st.integers(min_value=0, max_value=len(PATTERNS) - 1),
    k=st.integers(min_value=0, max_value=15),
    seed=st.integers(min_value=0, max_value=10_000),
    max_state=st.integers(min_value=2, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_sealed_output_identical_under_shedding(
    trace, pattern_index, k, seed, max_state
):
    pattern = PATTERNS[pattern_index]
    arrival = bounded_shuffle(trace, k=k, seed=seed)
    shed = ShedPolicy.drop_oldest(max_state)
    plain = _run(OutOfOrderEngine(pattern, k=k, shed=shed), arrival)
    spec = _run(
        OutOfOrderEngine(pattern, k=k, shed=shed, speculative=True), arrival
    )
    assert _sealed_trail(spec) == _sealed_trail(plain)
    assert spec.stats.events_shed == plain.stats.events_shed
    assert spec.speculation.net_keys() == spec.result_set()


@given(
    trace=trace_strategy(max_ts=80, max_len=80),
    pattern_index=st.integers(min_value=0, max_value=len(PATTERNS) - 1),
    seed=st.integers(min_value=0, max_value=10_000),
    punct_every=st.integers(min_value=5, max_value=25),
    initial_k=st.integers(min_value=0, max_value=40),
    quality=st.sampled_from([0.5, 0.9, 0.99]),
)
@settings(max_examples=60, deadline=None)
def test_controller_keeps_horizon_monotone_and_k_epoch_stable(
    trace, pattern_index, seed, punct_every, initial_k, quality
):
    pattern = PATTERNS[pattern_index]
    arrival = bounded_shuffle(trace, k=10, seed=seed)
    elements = []
    for index, event in enumerate(arrival):
        elements.append(event)
        if (index + 1) % punct_every == 0:
            remaining = arrival[index + 1 :]
            horizon = min((e.ts for e in remaining), default=event.ts + 1) - 1
            if horizon >= 0:
                elements.append(Punctuation(horizon))
    controller = AdaptiveKController(
        quality_target=quality, window=16, initial_k=initial_k, min_epoch_events=4
    )
    engine = OutOfOrderEngine(
        pattern, k=initial_k, speculative=True, controller=controller
    )
    previous_horizon = engine.clock.horizon()
    previous_k = engine.clock.k
    for element in elements:
        engine.feed(element)
        horizon = engine.clock.horizon()
        assert horizon >= previous_horizon
        previous_horizon = horizon
        if engine.clock.k != previous_k:
            assert isinstance(element, Punctuation), (
                "K changed mid-epoch (not at a punctuation boundary)"
            )
            previous_k = engine.clock.k
    engine.close()
    assert engine.speculation.open_count == 0
    assert engine.speculation.net_keys() == engine.result_set()
