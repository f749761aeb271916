"""Stream schemas: validation reasons, identity derivation, round-trips."""

from __future__ import annotations

import pickle

import pytest

from repro.core.errors import ConfigurationError
from repro.core.event import Event, malformed_reason
from repro.ingest import EventSchema, FieldSpec, StreamSchema, load_schema
from repro.ingest.schema import dump_schema

from ingest_helpers import make_schema


# -- validation ------------------------------------------------------------------------


def test_valid_frame_passes():
    schema = make_schema()
    assert schema.check_frame("A", {"ts": 5, "x": 1}) is None


@pytest.mark.parametrize(
    "etype, attrs, fragment",
    [
        ("", {"ts": 1, "x": 1}, "non-empty string"),
        ("C", {"ts": 1, "x": 1}, "not declared"),
        ("A", {"x": 1}, "missing required field 'ts'"),
        ("A", {"ts": "soon", "x": 1}, "must be int"),
        ("A", {"ts": -4, "x": 1}, ">= 0"),
        ("A", {"ts": 1.5, "x": 1}, "must be int"),
        ("A", {"ts": 1}, "missing required field 'x'"),
        ("A", "not a dict", "must be an object"),
    ],
)
def test_quarantine_reasons(etype, attrs, fragment):
    schema = make_schema()
    reason = schema.check_frame(etype, attrs)
    assert reason is not None and fragment in reason


def test_gateway_checks_subsume_engine_admission():
    """Any frame the schema admits builds an event the engine admits."""
    schema = make_schema()
    for attrs in ({"ts": 0, "x": 1}, {"ts": 7, "x": -3}, {"ts": 10**9, "x": 0}):
        assert schema.check_frame("A", attrs) is None
        event = schema.build_event("A", attrs)
        assert malformed_reason(event) is None


@pytest.mark.parametrize(
    "attrs", [{"ts": 5, "x": 2}, {"ts": 0, "x": -1, "note": "é"}], ids=["plain", "extra"]
)
def test_admission_built_event_keeps_the_event_contract(attrs):
    """event_for skips the constructor's checks, not what an Event is."""
    attrs = dict(attrs)
    schema = make_schema()
    reason, idem = schema.screen("A", attrs)
    assert reason is None
    built = schema.event_for("A", attrs, idem)
    plain = Event("A", attrs["ts"], attrs, eid=schema.derive_eid(idem))
    assert type(built) is Event
    assert built == plain and hash(built) == hash(plain)
    assert repr(built) == repr(plain) and built.attrs == plain.attrs
    assert malformed_reason(built) is None
    clone = pickle.loads(pickle.dumps(built))
    assert (clone, hash(clone), repr(clone)) == (plain, hash(plain), repr(plain))
    for name in ("etype", "ts", "eid", "_attrs", "_hash"):
        with pytest.raises(AttributeError):
            setattr(built, name, None)
    attrs["x"] = 99  # the caller's dict is not the event's
    assert built["x"] == plain["x"] != 99


def test_optional_fields_may_be_absent():
    schema = StreamSchema(
        "s", t_event="ts",
        events=[EventSchema("A", [FieldSpec("ts", "int"),
                                  FieldSpec("note", "str", required=False)])],
    )
    assert schema.check_frame("A", {"ts": 1}) is None
    assert schema.check_frame("A", {"ts": 1, "note": 5}) is not None


def test_partition_key_is_required_when_declared():
    schema = make_schema(slack=0, partition_key="x")
    assert schema.check_frame("A", {"ts": 1}) is not None
    assert schema.partition_of({"x": 9}) == 9


# -- scope constraints ------------------------------------------------------------------


def test_per_source_scope_requires_zero_slack():
    with pytest.raises(ConfigurationError):
        make_schema(slack=3, ordering_scope="per_source")


def test_per_key_scope_requires_partition_key():
    with pytest.raises(ConfigurationError):
        StreamSchema(
            "s", t_event="ts", ordering_scope="per_key",
            events=[EventSchema("A", [FieldSpec("ts", "int")])],
        )


def test_empty_event_list_rejected():
    with pytest.raises(ConfigurationError):
        StreamSchema("s", t_event="ts", events=[])


# -- identity derivation ---------------------------------------------------------------


def test_idempotency_id_is_deterministic_across_instances():
    a, b = make_schema(), make_schema()
    attrs = {"ts": 5, "x": 2}
    assert a.idempotency_id("A", attrs) == b.idempotency_id("A", attrs)


def test_idempotency_id_differs_by_payload_and_type():
    schema = make_schema()
    base = schema.idempotency_id("A", {"ts": 5, "x": 2})
    assert schema.idempotency_id("A", {"ts": 5, "x": 3}) != base
    assert schema.idempotency_id("A", {"ts": 6, "x": 2}) != base
    assert schema.idempotency_id("B", {"ts": 5, "x": 2}) != base


def test_explicit_idempotency_field_wins():
    schema = make_schema(
        slack=0, idempotency_field="x",
    )
    one = schema.idempotency_id("A", {"ts": 5, "x": 2})
    two = schema.idempotency_id("A", {"ts": 9, "x": 2})
    assert one == two  # same unique id, different payload -> same identity


def test_derived_eid_is_stable_and_positive():
    schema = make_schema()
    event1 = schema.build_event("A", {"ts": 5, "x": 2})
    event2 = schema.build_event("A", {"ts": 5, "x": 2})
    assert event1.eid == event2.eid > 0
    assert event1 == event2


def test_events_with_different_payloads_get_different_eids():
    schema = make_schema()
    eids = {
        schema.build_event("A", {"ts": t, "x": x}).eid
        for t in range(20) for x in range(20)
    }
    assert len(eids) == 400


# -- serialisation ---------------------------------------------------------------------


def test_round_trip_through_dict():
    schema = make_schema(slack=4, partition_key="x", ordering_scope="global")
    clone = StreamSchema.from_dict(schema.to_dict())
    assert clone.to_dict() == schema.to_dict()
    attrs = {"ts": 3, "x": 1}
    assert clone.idempotency_id("A", attrs) == schema.idempotency_id("A", attrs)


def test_round_trip_through_file(tmp_path):
    schema = make_schema(slack=1, ordering_scope="global")
    path = tmp_path / "orders.schema.json"
    dump_schema(schema, path)
    loaded = load_schema(path)
    assert loaded.to_dict() == schema.to_dict()


def test_load_schema_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(ConfigurationError):
        load_schema(path)


def test_unknown_format_rejected():
    with pytest.raises(ConfigurationError):
        StreamSchema.from_dict({"format": "somebody-elses-v9"})
