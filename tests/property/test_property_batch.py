"""Property-based tests: every driver of the step loop is observably serial.

``feed``, ``feed_batch`` and ``feed_colbatch`` drive one loop per
engine, and a batch is a pure performance lever — the contract (pinned
here across random traces, disorder permutations, purge / late /
validation / shed policies, speculation, the adaptive-K controller,
observability, batch sizes, and punctuations) is that an engine fed in
batches or columns is *indistinguishable* from the same engine fed one
element at a time: same matches in the same emission order, same
counters, same residual state, same clock, same exception at the same
element.  What the suite really exercises is the loop's
resynchronisation of its hoisted locals across call boundaries: every
batch boundary, punctuation, shed pass and re-freeze is one.
"""

from hypothesis import given, settings, strategies as st

from repro import (
    Attr,
    Eq,
    Event,
    EventBatch,
    InOrderEngine,
    OutOfOrderEngine,
    Punctuation,
    PurgePolicy,
    ReorderingEngine,
    ReproError,
    ShedPolicy,
    ValidationPolicy,
    seq,
)
from repro.faultinject import CORRUPT_SHAPES, corrupt_event
from repro.obs import MetricsRegistry, Tracer
from repro.streams.controller import AdaptiveKController
from helpers import bounded_shuffle, observe_engine

PATTERNS = [
    seq("A a", "B b", within=10, name="p2"),
    seq("A a", "B b", "C c", within=20, name="p3"),
    seq("A a", "!B b", "C c", within=15, name="pneg"),
    seq("A first", "A second", within=12, name="prep"),
]

# All steps joined on one attribute: an equality chain, run like any
# other pattern.
PART_PATTERN = seq(
    "A a",
    "B b",
    "C c",
    within=20,
    where=[Eq(Attr("a", "x"), Attr("b", "x")), Eq(Attr("b", "x"), Attr("c", "x"))],
    name="pkey",
)

BATCH_SIZES = [1, 2, 3, 7, 16, 64]


def trace_strategy(types="ABCX", max_ts=60, max_len=50, attr_range=3):
    event = st.tuples(
        st.sampled_from(types),
        st.integers(min_value=0, max_value=max_ts),
        st.integers(min_value=0, max_value=attr_range - 1),
    )
    return st.lists(event, min_size=0, max_size=max_len).map(
        lambda items: [Event(t, ts, {"x": x}) for t, ts, x in items]
    )


def _with_punctuations(arrival):
    """Insert a safe punctuation mid-stream and at the end."""
    if len(arrival) < 2:
        return list(arrival)
    mid = len(arrival) // 2
    head = list(arrival[:mid])
    mid_ts = max(e.ts for e in head)
    tail = list(arrival[mid:])
    end_ts = max(mid_ts, max(e.ts for e in tail))
    return head + [Punctuation(mid_ts)] + tail + [Punctuation(end_ts)]


def _purge(kind, interval):
    if kind == "eager":
        return PurgePolicy.eager()
    if kind == "lazy":
        return PurgePolicy.lazy(interval)
    return PurgePolicy.none()


def _forge(arrival, positions):
    """Replace the events at *positions* (modulo length) by malformed forgeries."""
    out = list(arrival)
    for n, position in enumerate(positions):
        if out:
            index = position % len(out)
            if isinstance(out[index], Event):
                out[index] = corrupt_event(
                    out[index], CORRUPT_SHAPES[n % len(CORRUPT_SHAPES)]
                )
    return out


def _shed(kind, bound):
    if kind == "oldest":
        return ShedPolicy.drop_oldest(bound)
    if kind == "by_type":
        return ShedPolicy.drop_by_type(bound, ("B", "A"))
    return None


def _controller():
    return AdaptiveKController(
        quality_target=0.8, window=16, initial_k=2, min_epoch_events=4
    )


def _observed(engine, obs):
    """Attach the drawn instrumentation: none, metrics, or metrics + tracing."""
    if obs == "metrics":
        engine.enable_observability(metrics=MetricsRegistry())
    elif obs == "tracing":
        engine.enable_observability(tracer=Tracer(), metrics=MetricsRegistry())
    return engine


def _feed_serial(engine, elements):
    """One ``feed`` per element; returns (matches per element, error type)."""
    counts = []
    try:
        for element in elements:
            counts.append(len(engine.feed(element)))
    except ReproError as error:
        return counts, type(error)
    return counts, None


def _feed_batched(engine, elements, batch_size):
    """``feed_batch`` per slice; returns (matches per call, error type)."""
    counts = []
    try:
        for lo in range(0, len(elements), batch_size):
            counts.append(len(engine.feed_batch(elements[lo : lo + batch_size])))
    except ReproError as error:
        return counts, type(error)
    return counts, None


def _feed_columnar(engine, elements, batch_size):
    """``feed_colbatch`` per run of events (punctuations travel out of
    band); returns ((elements covered, matches) per call, error type)."""
    counts = []
    run = []

    def flush():
        while run:
            rows = run[:batch_size]
            del run[:batch_size]
            emitted = engine.feed_colbatch(EventBatch.from_events(rows))
            counts.append((len(rows), len(emitted)))

    try:
        for element in elements:
            if isinstance(element, Event):
                run.append(element)
            else:
                flush()
                counts.append((1, len(engine.feed(element))))
        flush()
    except ReproError as error:
        return counts, type(error)
    return counts, None


def _assert_batch_equals_serial(make_engine, elements, batch_size, make_candidate=None):
    """Every driver against per-event ``feed`` on a plain engine.

    *make_candidate* builds the batch- and column-fed engines when they
    differ from the reference (observability attached): instrumented
    batches must equal uninstrumented per-event feeding.
    """
    make_candidate = make_candidate or make_engine
    serial = make_engine()
    per_element, error = _feed_serial(serial, elements)
    expected = observe_engine(serial)

    batched = make_candidate()
    per_call, batched_error = _feed_batched(batched, elements, batch_size)
    assert batched_error is error
    assert observe_engine(batched) == expected
    if error is None:
        assert per_call == [
            sum(per_element[lo : lo + batch_size])
            for lo in range(0, len(elements), batch_size)
        ]

    columnar = make_candidate()
    per_run, columnar_error = _feed_columnar(columnar, elements, batch_size)
    assert columnar_error is error
    assert observe_engine(columnar) == expected
    # A call emits what its rows emit when fed alone (calls that
    # completed cover a prefix of what the serial run got through).
    lo = 0
    for width, count in per_run:
        assert count == sum(per_element[lo : lo + width])
        lo += width
    if error is None:
        assert lo == len(elements)

    if error is None:
        # ... and closing all three yields the same final result set.
        serial.close()
        expected = observe_engine(serial)
        for engine in (batched, columnar):
            engine.close()
            assert observe_engine(engine) == expected


#: Dimensions shared by the out-of-order families.  ``tighten`` lowers
#: the engine's K below the shuffle's bound so late events are dropped;
#: ``forged`` positions become malformed rows.
OOO_DIMENSIONS = dict(
    seed=st.integers(min_value=0, max_value=10_000),
    batch_size=st.sampled_from(BATCH_SIZES),
    purge_kind=st.sampled_from(["eager", "lazy", "none"]),
    interval=st.integers(min_value=1, max_value=32),
    tighten=st.sampled_from([0, 0, 3, 8]),
    validation=st.sampled_from(list(ValidationPolicy)),
    forged=st.lists(st.integers(min_value=0, max_value=200), max_size=3),
    shed_kind=st.sampled_from([None, None, "oldest", "by_type"]),
    shed_bound=st.integers(min_value=1, max_value=12),
    obs=st.sampled_from([None, None, "metrics", "tracing"]),
)


@given(
    trace=trace_strategy(),
    pattern_index=st.integers(min_value=0, max_value=len(PATTERNS)),
    k=st.integers(min_value=0, max_value=25),
    punctuate=st.booleans(),
    optimize_scan=st.booleans(),
    speculative=st.booleans(),
    adaptive=st.booleans(),
    **OOO_DIMENSIONS,
)
@settings(max_examples=200, deadline=None)
def test_ooo_feed_batch_is_observably_serial(
    trace, pattern_index, k, punctuate, optimize_scan, speculative, adaptive,
    seed, batch_size, purge_kind, interval, tighten, validation,
    forged, shed_kind, shed_bound, obs,
):
    pattern = (PATTERNS + [PART_PATTERN])[pattern_index]
    arrival = bounded_shuffle(trace, k=k, seed=seed)
    if punctuate or adaptive:  # a controller acts at punctuations only
        arrival = _with_punctuations(arrival)
    arrival = _forge(arrival, forged)

    def make():
        engine = OutOfOrderEngine(
            pattern,
            k=max(0, k - tighten),
            purge=_purge(purge_kind, interval),
            optimize_scan=optimize_scan,
            shed=_shed(shed_kind, shed_bound),
            speculative=speculative,
            controller=_controller() if adaptive else None,
        )
        engine.validation = validation
        return engine

    _assert_batch_equals_serial(
        make, arrival, batch_size, make_candidate=lambda: _observed(make(), obs)
    )


@given(
    trace=trace_strategy(max_len=40),
    pattern_index=st.integers(min_value=0, max_value=len(PATTERNS) - 1),
    k=st.integers(min_value=0, max_value=20),
    **OOO_DIMENSIONS,
)
@settings(max_examples=100, deadline=None)
def test_speculative_feed_batch_is_observably_serial(
    trace, pattern_index, k,
    seed, batch_size, purge_kind, interval, tighten, validation,
    forged, shed_kind, shed_bound, obs,
):
    pattern = PATTERNS[pattern_index]
    arrival = _forge(bounded_shuffle(trace, k=k, seed=seed), forged)

    def make():
        engine = OutOfOrderEngine(
            pattern,
            k=max(0, k - tighten),
            purge=_purge(purge_kind, interval),
            shed=_shed(shed_kind, shed_bound),
            speculative=True,
        )
        engine.validation = validation
        return engine

    _assert_batch_equals_serial(
        make, arrival, batch_size, make_candidate=lambda: _observed(make(), obs)
    )


@given(
    trace=trace_strategy(max_len=40),
    pattern_index=st.integers(min_value=0, max_value=len(PATTERNS) - 1),
    batch_size=st.sampled_from(BATCH_SIZES),
    purge_kind=st.sampled_from(["eager", "lazy", "none"]),
    interval=st.integers(min_value=1, max_value=32),
    punctuate=st.booleans(),
    ordered=st.booleans(),
    validation=st.sampled_from(list(ValidationPolicy)),
    forged=st.lists(st.integers(min_value=0, max_value=200), max_size=3),
    obs=st.sampled_from([None, None, "metrics", "tracing"]),
)
@settings(max_examples=100, deadline=None)
def test_inorder_feed_batch_is_observably_serial(
    trace, pattern_index, batch_size, purge_kind, interval, punctuate, ordered,
    validation, forged, obs,
):
    # The SASE baseline promises correctness only on ordered arrival, but
    # its drivers must agree on disordered input too.
    pattern = PATTERNS[pattern_index]
    arrival = sorted(trace, key=lambda e: e.ts) if ordered else list(trace)
    if punctuate:
        arrival = _with_punctuations(arrival)
    arrival = _forge(arrival, forged)

    def make():
        engine = InOrderEngine(pattern, purge=_purge(purge_kind, interval))
        engine.validation = validation
        return engine

    _assert_batch_equals_serial(
        make, arrival, batch_size, make_candidate=lambda: _observed(make(), obs)
    )


@given(
    trace=trace_strategy(max_len=40),
    pattern_index=st.integers(min_value=0, max_value=len(PATTERNS) - 1),
    k=st.integers(min_value=0, max_value=20),
    seed=st.integers(min_value=0, max_value=10_000),
    batch_size=st.sampled_from(BATCH_SIZES),
    punctuate=st.booleans(),
    tighten=st.sampled_from([0, 0, 3, 8]),
    validation=st.sampled_from(list(ValidationPolicy)),
    forged=st.lists(st.integers(min_value=0, max_value=200), max_size=3),
    obs=st.sampled_from([None, None, "metrics", "tracing"]),
)
@settings(max_examples=100, deadline=None)
def test_reorder_feed_batch_is_observably_serial(
    trace, pattern_index, k, seed, batch_size, punctuate, tighten, validation,
    forged, obs,
):
    pattern = PATTERNS[pattern_index]
    arrival = bounded_shuffle(trace, k=k, seed=seed)
    if punctuate:
        arrival = _with_punctuations(arrival)
    arrival = _forge(arrival, forged)

    def make():
        engine = ReorderingEngine(pattern, k=max(0, k - tighten))
        engine.validation = validation
        return engine

    _assert_batch_equals_serial(
        make, arrival, batch_size, make_candidate=lambda: _observed(make(), obs)
    )
