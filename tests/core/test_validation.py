"""Admission-time validation: malformed elements never enter an engine.

A NaN timestamp silently poisons every ordered structure the engines
rest on (heaps, sorted stacks, clock comparisons), so malformation is
caught at the door, with a policy choice between
rejecting the stream (:class:`StreamError`, the default) and
count-and-quarantine.  The batch loops must behave identically to the
per-event path — validation is part of the feed/feed_batch parity
contract.
"""

import math

import pytest

from repro import (
    Event,
    InOrderEngine,
    OutOfOrderEngine,
    Punctuation,
    ReorderingEngine,
    StreamError,
    ValidationPolicy,
    seq,
)
from repro.core.event import admission_error, malformed_reason
from repro.faultinject import corrupt_event, forge_event

PATTERN = seq("A a", "B b", within=10, name="val")


def engines():
    return [
        OutOfOrderEngine(PATTERN, k=5),
        InOrderEngine(PATTERN),
        ReorderingEngine(PATTERN, k=5),
    ]


def _forge_punctuation(ts):
    punctuation = object.__new__(Punctuation)
    object.__setattr__(punctuation, "ts", ts)
    return punctuation


MALFORMED = {
    "negative_ts": forge_event("A", -3),
    "float_ts": forge_event("A", 2.5),
    "nan_ts": forge_event("A", math.nan),
    "bool_ts": forge_event("A", True),
    "missing_type": forge_event("", 4),
    "none_type": forge_event(None, 4),
    "not_an_element": "just a string",
    "bad_punctuation": _forge_punctuation(-1),
}


class TestMalformedReason:
    @pytest.mark.parametrize("shape", sorted(MALFORMED))
    def test_every_shape_has_a_reason(self, shape):
        assert malformed_reason(MALFORMED[shape]) is not None

    def test_well_formed_has_none(self):
        assert malformed_reason(Event("A", 3, {"x": 1})) is None
        assert malformed_reason(Punctuation(3)) is None

    def test_admission_error_names_the_reason(self):
        error = admission_error(MALFORMED["nan_ts"])
        assert isinstance(error, StreamError)
        assert "admission" in str(error)

    @pytest.mark.parametrize("shape", ["negative_ts", "float_ts", "nan_ts", "missing_type"])
    def test_corrupt_event_shapes_are_malformed(self, shape):
        assert malformed_reason(corrupt_event(Event("A", 7, {"x": 0}), shape))


class TestRaisePolicy:
    @pytest.mark.parametrize("shape", sorted(MALFORMED))
    def test_feed_rejects_each_shape(self, shape):
        for engine in engines():
            with pytest.raises(StreamError):
                engine.feed(MALFORMED[shape])
            assert engine.stats.events_in == 0  # rejected before counting

    @pytest.mark.parametrize("shape", sorted(MALFORMED))
    def test_feed_batch_rejects_each_shape(self, shape):
        for engine in engines():
            with pytest.raises(StreamError):
                engine.feed_batch(
                    [Event("A", 1, {}), MALFORMED[shape], Event("B", 2, {})]
                )
            # The well-formed prefix was admitted before the rejection,
            # exactly as the per-event loop would have.
            assert engine.stats.events_in == 1


class TestQuarantinePolicy:
    def test_quarantine_counts_and_skips(self):
        for engine in engines():
            engine.validation = ValidationPolicy.QUARANTINE
            out = engine.feed(MALFORMED["nan_ts"])
            assert out == []
            assert engine.stats.events_quarantined == 1
            assert engine.stats.events_in == 0

    def test_batch_parity_with_per_event(self):
        stream = [
            Event("A", 1, {}),
            MALFORMED["float_ts"],
            Event("B", 3, {}),
            MALFORMED["bad_punctuation"],
            Event("A", 4, {}),
            MALFORMED["missing_type"],
            Event("B", 6, {}),
        ]
        for batched, single in zip(engines(), engines()):
            batched.validation = ValidationPolicy.QUARANTINE
            single.validation = ValidationPolicy.QUARANTINE
            batched_out = batched.feed_batch(stream)
            single_out = [m for el in stream for m in single.feed(el)]
            batched_out += batched.close()
            single_out += single.close()
            assert [m.key() for m in batched_out] == [m.key() for m in single_out]
            assert batched.stats.as_dict() == single.stats.as_dict()
            assert batched.stats.events_quarantined == 3

    def test_matching_unaffected_by_quarantined_neighbors(self):
        engine = OutOfOrderEngine(PATTERN, k=5)
        engine.validation = ValidationPolicy.QUARANTINE
        clean = OutOfOrderEngine(PATTERN, k=5)
        a, b = Event("A", 1, {}), Event("B", 3, {})
        dirty = [corrupt_event(a, "nan_ts"), a, corrupt_event(b, "float_ts"), b]
        out = engine.feed_batch(dirty) + engine.close()
        ref = clean.feed_batch([a, b]) + clean.close()
        assert [m.key() for m in out] == [m.key() for m in ref]
