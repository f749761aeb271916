"""An elided purge never leaves purgeable state behind.

The step loop skips a due purge whose cut would drop nothing and only
counts it in ``stats.purge_runs``.  This property checks the skip is
never wrong: after every element at which a purge was due, the purger's
own preview at the current horizon (``Purger.peek``, the tracer's list
of imminent victims) is empty — whatever the pattern's brackets, the
purge schedule, punctuations, shedding, the adaptive-K controller or
speculation.

After a punctuation an attached controller may re-freeze K and move the
horizon past the purge that punctuation ran, so with a controller only
event elements are checked.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import Event, OutOfOrderEngine, Punctuation, PurgePolicy, ShedPolicy, parse
from repro.streams.controller import AdaptiveKController

PATTERNS = {
    "chain": "PATTERN SEQ(A a, B b, C c) WHERE a.x == b.x WITHIN 8",
    "negation": "PATTERN SEQ(A a, !N n, B b) WHERE a.x == b.x AND n.x == a.x WITHIN 8",
    "leading": "PATTERN SEQ(!N n, A a, B b) WITHIN 6",
    "trailing": "PATTERN SEQ(A a, B b, !N n) WHERE a.x == b.x WITHIN 6",
    "kleene": "PATTERN SEQ(A a, K+ ks, B b) WHERE ks.x == a.x WITHIN 8",
}


def _controller():
    return AdaptiveKController(
        quality_target=0.9, window=32, initial_k=2, min_epoch_events=8
    )


#: name -> engine keyword arguments (K comes from the drawn stream)
OPTIONS = {
    "plain": lambda: {},
    "shed": lambda: {"shed": ShedPolicy.drop_oldest(6)},
    "controller": lambda: {"controller": _controller()},
    "speculative": lambda: {"speculative": True},
}


@st.composite
def streams(draw):
    """Events over types A B C N K, disordered by up to *delay*, some punctuated."""
    count = draw(st.integers(min_value=1, max_value=60))
    delay = draw(st.integers(min_value=0, max_value=6))
    events = [
        Event(
            draw(st.sampled_from("AABBCNK")),
            ts,
            {"x": draw(st.integers(min_value=0, max_value=2))},
            eid=draw(st.integers(min_value=-3, max_value=3)) * 1000 + ts,
        )
        for ts in range(1, count + 1)
    ]
    lags = [draw(st.integers(min_value=0, max_value=delay)) for __ in events]
    arrival = [e for __, __, e in sorted(zip(
        [e.ts + lag for e, lag in zip(events, lags)], range(count), events
    ))]
    stream = []
    seen = 0
    for event in arrival:
        stream.append(event)
        seen = max(seen, event.ts)
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            stream.append(Punctuation(max(0, seen - delay - draw(st.integers(0, 3)))))
    return stream, draw(st.integers(min_value=0, max_value=delay + 1))


def assert_nothing_purgeable(engine, element, context):
    horizon = engine.clock.horizon()
    victims = engine.purger.peek(
        horizon, engine.stacks, engine.negatives, kleene=engine.kleene_store
    )
    assert victims == [], f"{context}: after {element!r} at horizon {horizon}"


@settings(max_examples=60, deadline=None)
@given(
    drawn=streams(),
    pattern_name=st.sampled_from(sorted(PATTERNS)),
    option=st.sampled_from(sorted(OPTIONS)),
    lazy=st.sampled_from([None, 1, 3]),
)
def test_no_purgeable_state_after_a_due_purge(drawn, pattern_name, option, lazy):
    stream, k = drawn
    purge = PurgePolicy.eager() if lazy is None else PurgePolicy.lazy(lazy)
    engine = OutOfOrderEngine(
        parse(PATTERNS[pattern_name], name=pattern_name),
        k=k,
        purge=purge,
        **OPTIONS[option](),
    )
    context = f"pattern={pattern_name} option={option} lazy={lazy} k={k}"
    for element in stream:
        runs = engine.stats.purge_runs
        engine.feed(element)
        if engine.stats.purge_runs == runs:
            continue  # no purge was due here
        if option == "controller" and not isinstance(element, Event):
            continue  # a re-freeze may have moved the horizon after the purge
        assert_nothing_purgeable(engine, element, context)
