"""Unit tests for the event model (repro.core.event)."""

import pytest

from repro import Event, Punctuation, StreamError, is_event, sort_by_occurrence


class TestEventConstruction:
    def test_basic_fields(self):
        event = Event("A", 5, {"x": 1})
        assert event.etype == "A"
        assert event.ts == 5
        assert event["x"] == 1

    def test_auto_ids_are_unique_and_increasing(self):
        first = Event("A", 1)
        second = Event("A", 1)
        assert first.eid != second.eid
        assert second.eid > first.eid

    def test_explicit_eid_respected(self):
        event = Event("A", 1, eid=42)
        assert event.eid == 42

    def test_empty_type_rejected(self):
        with pytest.raises(StreamError):
            Event("", 1)

    def test_non_string_type_rejected(self):
        with pytest.raises(StreamError):
            Event(3, 1)

    def test_negative_timestamp_rejected(self):
        with pytest.raises(StreamError):
            Event("A", -1)

    def test_non_int_timestamp_rejected(self):
        with pytest.raises(StreamError):
            Event("A", 1.5)

    def test_bool_timestamp_rejected(self):
        with pytest.raises(StreamError):
            Event("A", True)

    def test_zero_timestamp_allowed(self):
        assert Event("A", 0).ts == 0


class TestEventImmutability:
    def test_setattr_blocked(self):
        event = Event("A", 1)
        with pytest.raises(AttributeError):
            event.ts = 2

    def test_attrs_returns_copy(self):
        event = Event("A", 1, {"x": 1})
        snapshot = event.attrs
        snapshot["x"] = 99
        assert event["x"] == 1

    def test_source_mapping_not_aliased(self):
        source = {"x": 1}
        event = Event("A", 1, source)
        source["x"] = 99
        assert event["x"] == 1


class TestEventAccess:
    def test_missing_attribute_raises_keyerror_with_candidates(self):
        event = Event("A", 1, {"x": 1})
        with pytest.raises(KeyError, match="x"):
            event["nope"]

    def test_get_with_default(self):
        event = Event("A", 1, {"x": 1})
        assert event.get("nope", 7) == 7
        assert event.get("x") == 1

    def test_contains(self):
        event = Event("A", 1, {"x": 1})
        assert "x" in event
        assert "y" not in event


class TestEventEquality:
    def test_equality_by_identity_triple(self):
        event = Event("A", 1, {"x": 1}, eid=5)
        twin = Event("A", 1, {"x": 999}, eid=5)
        assert event == twin  # attributes are not part of identity

    def test_inequality_on_different_eids(self):
        assert Event("A", 1, eid=1) != Event("A", 1, eid=2)

    def test_hash_consistent_with_equality(self):
        event = Event("A", 1, eid=5)
        twin = Event("A", 1, eid=5)
        assert hash(event) == hash(twin)
        assert len({event, twin}) == 1

    def test_not_equal_to_other_types(self):
        assert Event("A", 1) != "A@1"


class TestPunctuation:
    def test_fields_and_equality(self):
        assert Punctuation(5) == Punctuation(5)
        assert Punctuation(5) != Punctuation(6)

    def test_immutable(self):
        punctuation = Punctuation(5)
        with pytest.raises(AttributeError):
            punctuation.ts = 6

    def test_negative_rejected(self):
        with pytest.raises(StreamError):
            Punctuation(-1)

    def test_is_event_distinguishes(self):
        assert is_event(Event("A", 1))
        assert not is_event(Punctuation(1))

    def test_hashable(self):
        assert len({Punctuation(1), Punctuation(1), Punctuation(2)}) == 2


class TestHelpers:
    def test_sort_by_occurrence_orders_by_ts_then_eid(self):
        a = Event("A", 5, eid=2)
        b = Event("B", 3, eid=9)
        c = Event("C", 5, eid=1)
        assert sort_by_occurrence([a, b, c]) == [b, c, a]

    def test_sort_is_deterministic_under_permutation(self):
        events = [Event("A", ts % 5, eid=ts) for ts in range(20)]
        import random

        shuffled = events[:]
        random.Random(3).shuffle(shuffled)
        assert sort_by_occurrence(shuffled) == sort_by_occurrence(events)

    def test_repr_contains_type_and_ts(self):
        text = repr(Event("A", 7, {"x": 1}))
        assert "A@7" in text and "x=1" in text
