"""Property tests across the substrate pipeline: punctuation, partition,
replay and parser round-trips."""

from hypothesis import given, settings, strategies as st

from repro import (
    Event,
    Punctuation,
    OfflineOracle,
    OutOfOrderEngine,
    PartitionedEngine,
    parse,
)
from repro.streams import validate_punctuation
from helpers import bounded_shuffle


def keyed_trace_strategy(max_ts=60, max_len=50, keys=4):
    event = st.tuples(
        st.sampled_from("ABCX"),
        st.integers(min_value=0, max_value=max_ts),
        st.integers(min_value=0, max_value=keys - 1),
    )
    return st.lists(event, min_size=0, max_size=max_len).map(
        lambda items: [Event(t, ts, {"x": x}) for t, ts, x in items]
    )


KEYED_PATTERN = parse(
    "PATTERN SEQ(A a, B b, C c) WHERE a.x == b.x AND b.x == c.x WITHIN 25",
    name="chain",
)
NEG_KEYED_PATTERN = parse(
    "PATTERN SEQ(A a, !B b, C c) WHERE a.x == c.x AND b.x == a.x WITHIN 25",
    name="negchain",
)


@given(
    trace=keyed_trace_strategy(),
    k=st.integers(min_value=0, max_value=25),
    seed=st.integers(min_value=0, max_value=5000),
)
@settings(max_examples=60, deadline=None)
def test_partitioned_engine_equals_oracle(trace, k, seed):
    arrival = bounded_shuffle(trace, k=k, seed=seed)
    truth = OfflineOracle(KEYED_PATTERN).evaluate_set(trace)
    engine = PartitionedEngine(KEYED_PATTERN, k=k, punctuate_every=7)
    engine.run(arrival)
    assert engine.result_set() == truth


@given(
    trace=keyed_trace_strategy(),
    k=st.integers(min_value=0, max_value=25),
    seed=st.integers(min_value=0, max_value=5000),
)
@settings(max_examples=60, deadline=None)
def test_partitioned_negation_equals_oracle(trace, k, seed):
    arrival = bounded_shuffle(trace, k=k, seed=seed)
    truth = OfflineOracle(NEG_KEYED_PATTERN).evaluate_set(trace)
    engine = PartitionedEngine(NEG_KEYED_PATTERN, k=k, punctuate_every=5)
    engine.run(arrival)
    assert engine.result_set() == truth


@given(
    trace=keyed_trace_strategy(),
    k=st.integers(min_value=0, max_value=20),
    seed=st.integers(min_value=0, max_value=5000),
    period=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=60, deadline=None)
def test_punctuated_stream_changes_nothing_but_state(trace, k, seed, period):
    arrival = bounded_shuffle(trace, k=k, seed=seed)
    punctuated = []
    for index, event in enumerate(arrival):
        # Every *period* elements, promise what the rest of the stream keeps.
        if index % period == 0 and min(e.ts for e in arrival[index:]) > 0:
            punctuated.append(Punctuation(min(e.ts for e in arrival[index:]) - 1))
        punctuated.append(event)
    assert validate_punctuation(punctuated)
    plain = OutOfOrderEngine(KEYED_PATTERN, k=k)
    plain.run(arrival)
    with_punct = OutOfOrderEngine(KEYED_PATTERN, k=k)
    with_punct.run(punctuated)
    assert with_punct.result_set() == plain.result_set()
    assert with_punct.stats.peak_state_size <= plain.stats.peak_state_size + len(trace)


@given(
    trace=keyed_trace_strategy(),
    seed=st.integers(min_value=0, max_value=5000),
)
@settings(max_examples=40, deadline=None)
def test_pattern_repr_reparses_equivalently(trace, seed):
    """repr(pattern) is valid query-language text with identical semantics."""
    reparsed = parse(repr(KEYED_PATTERN), name=KEYED_PATTERN.name)
    assert (
        OfflineOracle(reparsed).evaluate_set(trace)
        == OfflineOracle(KEYED_PATTERN).evaluate_set(trace)
    )
    reparsed_neg = parse(repr(NEG_KEYED_PATTERN), name=NEG_KEYED_PATTERN.name)
    assert (
        OfflineOracle(reparsed_neg).evaluate_set(trace)
        == OfflineOracle(NEG_KEYED_PATTERN).evaluate_set(trace)
    )


KLEENE_PATTERN = parse(
    "PATTERN SEQ(A a, B+ bs, C c) WHERE a.x == c.x AND bs.x == a.x WITHIN 25",
    name="kleene",
)


@given(
    trace=keyed_trace_strategy(),
    k=st.integers(min_value=0, max_value=25),
    seed=st.integers(min_value=0, max_value=5000),
)
@settings(max_examples=60, deadline=None)
def test_kleene_engine_equals_oracle(trace, k, seed):
    arrival = bounded_shuffle(trace, k=k, seed=seed)
    truth = OfflineOracle(KLEENE_PATTERN).evaluate_set(trace)
    engine = OutOfOrderEngine(KLEENE_PATTERN, k=k)
    engine.run(arrival)
    assert engine.result_set() == truth


@given(
    trace=keyed_trace_strategy(),
    k=st.integers(min_value=0, max_value=25),
    seed=st.integers(min_value=0, max_value=5000),
)
@settings(max_examples=40, deadline=None)
def test_kleene_collections_nonempty_and_inside_interval(trace, k, seed):
    arrival = bounded_shuffle(trace, k=k, seed=seed)
    engine = OutOfOrderEngine(KLEENE_PATTERN, k=k)
    engine.run(arrival)
    for match in engine.results:
        elements = match.collections["bs"]
        assert elements  # the "+" guarantees one-or-more
        lo, hi = match.events[0].ts, match.events[1].ts
        assert all(lo < e.ts < hi for e in elements)
        timestamps = [(e.ts, e.eid) for e in elements]
        assert timestamps == sorted(timestamps)
