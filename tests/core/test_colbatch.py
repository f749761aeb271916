"""Columnar event batches (repro.core.colbatch) and the fused feed path."""

import random

import pytest

from repro import (
    Event,
    EventBatch,
    FnPredicate,
    OutOfOrderEngine,
    StreamError,
    parse,
)
from repro.core.colbatch import BATCH_FORMAT


def _rows(batch):
    """Full content tuple per row — identity AND attribute payload."""
    return [
        (e.etype, e.ts, e.eid, e.attrs) for e in batch.to_events()
    ]


def _expect(events):
    return [(e.etype, e.ts, e.eid, e.attrs) for e in events]


# -- round trip -------------------------------------------------------------------


def test_round_trip_plain():
    events = [Event("A", 1, {"x": 1}), Event("B", 2, {"x": 2, "y": "s"})]
    batch = EventBatch.from_events(events)
    assert len(batch) == 2
    assert _rows(batch) == _expect(events)


def test_round_trip_duplicate_timestamps():
    events = [Event("A", 5, {"x": i}) for i in range(4)]
    batch = EventBatch.from_events(events)
    assert _rows(batch) == _expect(events)
    assert [e.eid for e in batch.to_events()] == [e.eid for e in events]


def test_round_trip_missing_and_heterogeneous_attrs():
    events = [
        Event("A", 1, {"x": 1}),
        Event("A", 2),  # no attrs at all
        Event("B", 3, {"y": "str"}),
        Event("A", 4, {"x": "not-an-int", "y": 2.5}),
        Event("B", 5, {"x": None}),  # present-with-None != absent
    ]
    batch = EventBatch.from_events(events)
    assert _rows(batch) == _expect(events)
    decoded = batch.to_events()
    assert "x" not in decoded[1] and "x" not in decoded[2]  # absent
    assert decoded[3]["x"] == "not-an-int"
    # the last row carries an explicit None — present, not absent:
    assert "x" in decoded[4] and decoded[4]["x"] is None


def test_round_trip_unhashable_attr_values():
    events = [
        Event("A", 1, {"x": [1, 2]}),
        Event("A", 2, {"x": {"k": "v"}}),
    ]
    batch = EventBatch.from_events(events)
    assert _rows(batch) == _expect(events)


def test_from_events_rejects_non_events():
    from repro import Punctuation

    with pytest.raises(StreamError, match="events only"):
        EventBatch.from_events([Event("A", 1), Punctuation(1)])


# -- codec fuzz -------------------------------------------------------------------


def _random_events(rng, n):
    events = []
    for _ in range(n):
        attrs = {}
        for name in ("x", "y", "z"):
            draw = rng.random()
            if draw < 0.3:
                continue  # missing
            if draw < 0.6:
                attrs[name] = rng.randrange(-(2**70), 2**70)  # incl. big ints
            elif draw < 0.8:
                attrs[name] = rng.choice(["s", "", None, True, 2.5])
            else:
                attrs[name] = [rng.randrange(5)]  # unhashable
        events.append(Event(rng.choice("ABCD"), rng.randrange(1000), attrs))
    return events


def test_codec_fuzz_200_trials():
    rng = random.Random(20260808)
    for trial in range(200):
        events = _random_events(rng, rng.randrange(0, 24))
        batch = EventBatch.from_events(events)
        decoded = EventBatch.from_bytes(batch.to_bytes())
        assert _rows(decoded) == _expect(events), f"trial {trial} diverged"


def test_from_bytes_rejects_garbage():
    with pytest.raises(StreamError):
        EventBatch.from_bytes(b"not a batch")
    import pickle

    with pytest.raises(StreamError, match="unexpected shape"):
        EventBatch.from_bytes(pickle.dumps(("short",)))
    with pytest.raises(StreamError, match="unexpected shape"):
        # a format-1 blob (it carried an eighth, meta-column field)
        EventBatch.from_bytes(pickle.dumps((1, 0, [], [], [], (), [], {})))
    bad_format = EventBatch.from_events([Event("A", 1)])._state()
    with pytest.raises(StreamError, match="format"):
        EventBatch._from_state((BATCH_FORMAT + 1,) + bad_format[1:])


# -- fused feed path parity -------------------------------------------------------


QUERY = "PATTERN SEQ(A a, B b, C c) WHERE a.x == b.x AND b.x == c.x WITHIN 30"


def _trace(seed=5, n=400):
    rng = random.Random(seed)
    events = []
    for i in range(n):
        ts = max(0, i + rng.randrange(-6, 7))
        events.append(Event(rng.choice("ABC"), ts, {"x": rng.randrange(4)}))
    return events


def _run_pair(pattern, events, **kwargs):
    """(feed_batch engine, feed_colbatch engine) over the same trace."""
    per_event = OutOfOrderEngine(pattern, **kwargs)
    out_a = list(per_event.feed_batch(events))
    out_a += per_event.close()
    columnar = OutOfOrderEngine(pattern, **kwargs)
    out_b = list(columnar.feed_colbatch(EventBatch.from_events(events)))
    out_b += columnar.close()
    return per_event, out_a, columnar, out_b


def test_feed_colbatch_matches_feed_batch():
    pattern = parse(QUERY)
    a, out_a, b, out_b = _run_pair(pattern, _trace(), k=8)
    assert [m.key() for m in out_a] == [m.key() for m in out_b]
    assert a.stats.as_dict() == b.stats.as_dict()


def test_feed_colbatch_fn_predicate_falls_back_identically():
    def positive(bindings):
        return bindings["a"]["x"] >= 0

    base = parse(QUERY)
    pattern = type(base)(
        base.steps,
        tuple(base.where) + (FnPredicate(("a",), positive),),
        base.within,
        base.name,
    )
    a, out_a, b, out_b = _run_pair(pattern, _trace(seed=7), k=8)
    assert [m.key() for m in out_a] == [m.key() for m in out_b]
    assert a.stats.as_dict() == b.stats.as_dict()


def test_feed_colbatch_missing_attr_error_parity():
    pattern = parse(
        "PATTERN SEQ(A a, B b) WHERE a.x == b.size WITHIN 20"
    )
    events = [Event("A", 1, {"x": 3}), Event("B", 2, {"x": 3})]  # b lacks size
    reference = OutOfOrderEngine(pattern, k=2)
    with pytest.raises(KeyError) as interpreted:
        reference.feed_batch(events)
    columnar = OutOfOrderEngine(pattern, k=2)
    with pytest.raises(KeyError) as fused:
        columnar.feed_colbatch(EventBatch.from_events(events))
    assert str(fused.value) == str(interpreted.value)
