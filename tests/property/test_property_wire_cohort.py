"""A socket read is one unit from bytes to acks — and nobody can tell.

The transport decodes a read's lines with one ``json.loads``, admits
each run of event frames with one :meth:`IngestGateway.admit_cohort`
and formats the plain ack from a template.  Each of the three must be
indistinguishable from the per-line, per-frame, ``json.dumps`` path it
replaced:

(a) ``decode_lines`` — over arbitrary byte lines, hostile ones
    included — yields exactly the frames, and stops at exactly the
    line, the line-by-line decode does;
(b) a gateway driven through ``admit_cohort`` and its twin driven
    through ``admit_frame`` one frame at a time agree after every step
    on acks, counters, dedupe windows, the pending cohort, source marks,
    liveness transitions, journal records, flight notes and span
    metrics — observers on and off, with and without a shed policy
    whose pressure crosses both thresholds inside a cohort;
(c) ``encode_reply`` is ``json.dumps(reply, sort_keys=True)`` for every
    reply shape, and ``encode_acks`` — which writes a run's plain
    admitted acks from a template — is ``encode_reply`` per frame;
(d) the compiled admission pass — one generated function per event
    type — decides every frame as the interpretive reference does
    (``screen`` + ``Event(...)``): outcome, reason, idempotency id, eid,
    the event's slots and hash, per-source counters, and the dedupe
    window's contents and order across eviction.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import Event, OutOfOrderEngine, ShedPolicy, parse
from repro.ingest import EventSchema, FieldSpec, GatewayConfig, IngestGateway, StreamSchema
from repro.ingest import server
from repro.ingest.admission import AdmissionController, DedupeWindow
from repro.ingest.server import decode_lines, encode_acks, encode_reply
from repro.obs import MetricsRegistry
from repro.obs.export import render_prometheus
from repro.obs.flight import FlightRecorder

# -- (a) one decode per read -------------------------------------------------------------


def per_line_decode(lines):
    """The transport's decode before it was cohort-shaped, kept as the oracle."""
    frames = []
    for raw in lines:
        raw = raw.strip()
        if not raw:
            continue
        try:
            frame = json.loads(raw)
        except (ValueError, RecursionError):
            frame = None
        if not isinstance(frame, dict):
            return frames, "frame is not a JSON object"
        frames.append(frame)
    return frames, None


def _frame_line(n, etype, ts, x):
    frame = {"op": "event", "n": n, "etype": etype, "attrs": {"ts": ts, "x": x}}
    return json.dumps(frame, sort_keys=True).encode("utf-8")


valid_lines = st.builds(
    _frame_line,
    st.integers(0, 10**6), st.sampled_from(["A", "B", "é"]),
    st.integers(0, 99), st.integers(0, 3),
)
HOSTILE = [
    b"", b" ", b"\r", b"\t \r", b"1,2", b'{"a":1},{"b":2}', b'{"a":1} ,\t{"b":2}',
    b"]", b"[", b"1]", b"[2", b"}", b"{", b",", b'{"k":1},', b',{"k":1}',
    # Pairs that balance across two lines into as many objects as lines.
    b'{"a":[{}', b'{}]},{"c":1}', b'{"a":[{}, "}"', b'"{", {}]},{"c":1}',
    b'{"a": [{"b": 1}, {"c": 2}]}',  # one valid frame that looks like two
    b"\xff\xfe", b'{"s": "\xff"}', b'\xef\xbb\xbf{"op":"stats"}', b"\x0b{}", b"{} \r",
    b"NaN", b'{"x": NaN}', b'{"x": 1e400}', b"null", b'"str"', b"5", b"{not json",
    b'{"op":"stats"}\r', b' {"op": "bye"} ', b'{"a":1}]', b'[{"a":1}',
    b"[" * 3000, b'{"a":' * 3000, b"[" * 3000 + b"]" * 3000,
]
wire_lines = st.lists(
    st.one_of(valid_lines, st.sampled_from(HOSTILE), st.binary(max_size=12).map(
        lambda raw: raw.replace(b"\n", b"")
    )),
    max_size=12,
)


@settings(max_examples=400, deadline=None)
@given(wire_lines)
def test_joined_decode_is_the_per_line_decode(lines):
    assert decode_lines(list(lines)) == per_line_decode(lines)


@pytest.mark.parametrize(
    "lines",
    [
        [b'{"a":[{}', b'{}]},{"c":1}'],
        [b'{"a":[{}, "}"', b'"{", {}]},{"c":1}'],
        [b'{"op":"stats"}', b'{"a":[{}', b'{}]} ,\t{"c":1}'],
        [b"[1", b"2]", b"3,4"],
        [b"{}]", b"[{}"],
    ],
)
def test_lines_that_only_balance_across_a_join_are_not_frames(lines):
    """As many objects as lines, yet no line is one: the array parse alone
    cannot tell — the two-objects-in-a-line screen does."""
    assert decode_lines(list(lines)) == per_line_decode(lines)
    assert decode_lines(list(lines))[1] == "frame is not a JSON object"


@settings(max_examples=50, deadline=None)
@given(st.lists(valid_lines, min_size=1, max_size=64), st.sampled_from([b"", b"\r"]))
def test_a_clean_read_costs_one_json_loads(lines, ending):
    lines = [line + ending for line in lines]
    with mock.patch.object(server.json, "loads", wraps=json.loads) as loads:
        frames, fatal = decode_lines(lines)
    assert loads.call_count == 1
    assert (frames, fatal) == per_line_decode(lines)


# -- (b) admit_cohort == admit_frame, frame by frame ---------------------------------------

PATTERN = parse("PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 20")
SOURCES = ["s1", "s2"]


def _schema() -> StreamSchema:
    fields = [FieldSpec("ts", "int"), FieldSpec("x", "int")]
    return StreamSchema(
        "orders", t_event="ts", ordering_scope="global", source_slack=2,
        events=[EventSchema(etype, list(fields)) for etype in "AB"],
    )


def _gateway(observers: str, shed: bool):
    ticks = itertools.count()
    kwargs = {}
    if observers in ("flight", "full"):
        kwargs["flight"] = FlightRecorder()
    if observers == "full":
        kwargs["metrics"] = MetricsRegistry()
    gateway = IngestGateway(
        lambda: OutOfOrderEngine(
            PATTERN, k=4, shed=ShedPolicy.drop_oldest(8) if shed else None
        ),
        # Window 4: ids are evicted, and so re-admitted, inside one cohort.
        GatewayConfig(_schema(), liveness_timeout=5.0, dedupe_window=4),
        clock=lambda: float(next(ticks)),  # scripted: span metrics are exact
        **kwargs,
    )
    journal = []
    gateway._journal = lambda kind, **fields: journal.append((kind, fields))
    return gateway, journal


def _state(gateway, journal):
    """Everything admission may touch, readable before the commit."""
    flight, registry = gateway._flight, gateway.registry
    return {
        "stats": gateway.stats(),
        "dedupe": list(gateway.admission._window._order),
        "pending": [(e.etype, e.ts, e.eid, e.attrs) for e in gateway._pending],
        "advance_due": gateway._advance_due,
        "watermarks": gateway.liveness.watermarks.snapshot_state(),
        "last_seen": dict(gateway.liveness._last_seen),
        "journal": list(journal),
        "flight": list(flight._ring) if flight is not None else None,
        "metrics": render_prometheus(registry) if registry is not None else None,
    }


attrs_values = st.one_of(
    st.fixed_dictionaries({"ts": st.integers(0, 12), "x": st.integers(0, 2)}),
    st.sampled_from([{"x": 1}, {"ts": -5, "x": 1}, {"ts": "7", "x": 1},
                     {"ts": 3, "x": "one"}, {"ts": True, "x": 1}, None, [1], "attrs"]),
)
event_frames = st.fixed_dictionaries(
    {"etype": st.sampled_from(["A", "A", "B", "B", "Z", "", 7, None]), "attrs": attrs_values},
    optional={
        "span": st.sampled_from([{"t0": 0.5}, {"t0": "late"}, {}, None, 3]),
        "n": st.integers(0, 99),
    },
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("cohort"), st.sampled_from(SOURCES),
                  st.lists(event_frames, min_size=1, max_size=14)),  # a run is never empty
        st.tuples(st.just("watermark"), st.sampled_from(SOURCES), st.integers(0, 12)),
        st.tuples(st.just("tick")),
        st.tuples(st.just("sync")),
        st.tuples(st.just("disconnect"), st.sampled_from(SOURCES)),
    ),
    max_size=10,
)
#: Seconds between steps: past the liveness timeout often enough that
#: sources degrade at a tick and recover inside a later cohort.
gaps = st.lists(st.sampled_from([0.0, 0.5, 3.0, 6.0]), min_size=10, max_size=10)


def _drive(gateway, step, now, cohort: bool):
    kind = step[0]
    if kind == "cohort":
        _, source, frames = step
        if cohort:  # None is the plain admitted ack the transport templates
            acks = gateway.admit_cohort(source, [dict(frame) for frame in frames], now)
            return [ack or {"status": "admitted"} for ack in acks]
        return [
            gateway.admit_frame(
                source, frame.get("etype"), frame.get("attrs"), now, frame.get("span")
            )
            for frame in frames
        ]
    if kind == "watermark":
        return gateway.assert_watermark(step[1], step[2], now)
    if kind == "tick":
        return gateway.tick(now)
    if kind == "disconnect":
        return gateway.disconnect_source(step[1], now)
    return gateway.sync_acks()


@pytest.mark.parametrize("shed", [False, True], ids=["no-shed", "shed"])
@pytest.mark.parametrize("observers", ["off", "flight", "full"])
@settings(max_examples=60, deadline=None)
@given(script=steps, waits=gaps)
def test_cohort_admission_is_frame_by_frame_admission(observers, shed, script, waits):
    one, one_journal = _gateway(observers, shed)
    many, many_journal = _gateway(observers, shed)
    now = 0.0
    for step, wait in zip(script, waits):
        now += wait
        assert _drive(many, step, now, True) == _drive(one, step, now, False), step
        assert _state(many, many_journal) == _state(one, one_journal), step
    assert [m.key() for m in many.seal()] == [m.key() for m in one.seal()]
    assert _state(many, many_journal) == _state(one, one_journal)


def test_pressure_crosses_both_thresholds_inside_one_cohort():
    """The twin property's shed case, pinned: throttle, then busy, mid-cohort."""
    gateway, _ = _gateway("full", shed=True)
    frames = [{"etype": "A", "attrs": {"ts": t, "x": t}} for t in range(10)]
    acks = gateway.admit_cohort("s1", frames, now=0.0)
    seen = ["admitted" if ack is None else "throttle" if "throttle" in ack else ack["status"]
            for ack in acks]
    assert seen == ["admitted"] * 6 + ["throttle"] * 2 + ["busy"] * 2
    assert gateway.stats()["busy"] == 2 and gateway.stats()["throttled"] == 2
    assert len(gateway._pending) == 8 and gateway.engine.state_size() == 0


def test_the_one_frame_drivers_hold_no_ladder_of_their_own():
    """`admit_frame` is a one-element call into the cohort body."""
    gateway, _ = _gateway("off", shed=False)
    with mock.patch.object(
        gateway.admission, "decide_cohort", wraps=gateway.admission.decide_cohort
    ) as body:
        assert gateway.admit_frame("s1", "A", {"ts": 1, "x": 1}, now=0.0) == {
            "status": "admitted"
        }
    assert body.call_count == 1


# -- (c) templated acks ----------------------------------------------------------------------

any_n = st.one_of(
    st.integers(), st.integers(-(10**40), 10**40), st.booleans(), st.none(),
    st.text(max_size=8), st.floats(allow_nan=True, allow_infinity=True),
)
reply_shapes = st.one_of(
    st.fixed_dictionaries({"op": st.just("ack"), "status": st.just("admitted"), "n": any_n}),
    st.fixed_dictionaries({"op": st.just("ack"), "status": st.just("admitted"),
                           "n": any_n, "throttle": st.floats(0, 1)}),
    st.fixed_dictionaries({"op": st.just("ack"), "n": any_n,
                           "status": st.sampled_from(["duplicate", "ok", "Admitted"])}),
    st.fixed_dictionaries({"op": st.sampled_from(["nack", "error", 1]),
                           "status": st.just("admitted"), "n": any_n}),
    st.fixed_dictionaries({"status": st.just("admitted"), "n": any_n,
                           "throttle": st.floats(0, 1)}),
    st.fixed_dictionaries({"op": st.just("ack"), "status": st.just("quarantined"),
                           "n": any_n, "reason": st.text(max_size=30)}),
    st.fixed_dictionaries({"op": st.just("ack"), "status": st.just("busy"), "n": any_n,
                           "retry_after": st.floats(0, 1), "pressure": st.floats(0, 2)}),
    st.fixed_dictionaries({"op": st.just("ack"), "status": st.just("ok"), "n": any_n,
                           "watermark": st.integers(-1, 10**6)}),
    st.fixed_dictionaries({"op": st.just("stats_ok"),
                           "stats": st.dictionaries(st.text(max_size=5), st.integers())}),
    st.fixed_dictionaries({"op": st.just("error"), "reason": st.text(max_size=30)}),
    st.sampled_from([{"op": "bye_ok"}, {}, {"op": "hello_ok", "stream": "orders",
                                            "proto": 1, "recovered_frames": 0}]),
)


@settings(max_examples=600, deadline=None)
@given(reply_shapes)
def test_encoded_reply_is_sorted_json_dumps(reply):
    assert encode_reply(reply) == json.dumps(reply, sort_keys=True).encode("utf-8") + b"\n"


acks = st.one_of(
    st.none(), st.none(), st.none(),
    st.fixed_dictionaries({"status": st.just("admitted"), "throttle": st.floats(0, 1)}),
    st.fixed_dictionaries({"status": st.just("quarantined"), "reason": st.text(max_size=20)}),
    st.sampled_from([{"status": "duplicate"}, {"status": "busy", "retry_after": 0.05,
                                                "pressure": 0.97}]),
)
numbered_frames = st.one_of(
    st.fixed_dictionaries({"n": any_n}), st.just({}),
    st.fixed_dictionaries({"n": st.integers(0, 10**6)}),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(numbered_frames, acks), max_size=20))
def test_templated_ack_run_is_encode_reply_per_frame(run):
    frames = [frame for frame, _ in run]
    expected = b"".join(
        encode_reply(dict({"status": "admitted"} if ack is None else ack,
                          op="ack", n=frame.get("n")))
        for frame, ack in run
    )
    assert encode_acks(frames, [None if a is None else dict(a) for _, a in run]) == expected


# -- (d) compiled admission == the interpretive reference ------------------------------------

GOLDEN = Path(__file__).parents[1] / "ingest" / "admission_golden.json"
#: Schemas covering derived ids, an explicit idempotency field, an
#: idempotency_fields subset with a partition key and an undeclared key,
#: a non-ASCII stream name, and a t_event no event type declares.
SCHEMAS = {
    name: StreamSchema.from_dict(doc)
    for name, doc in json.loads(GOLDEN.read_text(encoding="utf-8"))["schemas"].items()
}
#: And required fields of type "any" (the declaration's default) that the
#: id material leaves out: under an explicit idempotency field, and under
#: an idempotency_fields subset.
SCHEMAS["untyped-explicit"] = StreamSchema.from_dict({
    "name": "orders", "t_event": "ts", "idempotency": {"field": "uid"},
    "events": [
        {"etype": "A", "fields": [{"name": "x", "type": "int"}, {"name": "blob"},
                                  {"name": "note", "type": "str", "required": False}]},
        {"etype": "B", "fields": [{"name": "free"}]},
    ],
})
SCHEMAS["untyped-subset"] = StreamSchema.from_dict({
    "name": "orders", "t_event": "ts", "ordering_scope": "global",
    "idempotency": {"fields": ["x"]},
    "events": [{"etype": "A", "fields": [{"name": "x", "type": "int"}, {"name": "blob"},
                                         {"name": "extra", "required": False}]}],
})
KEYS = ["ts", "at", "x", "note", "amt", "blob", "uid", "k", "extra", "free"]

scalars = st.one_of(
    st.integers(-3, 40), st.integers(-(2**70), 2**70), st.integers(2**63, 2**66),
    st.booleans(), st.none(),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([1.0, -0.0, 2.5]),
    st.text(max_size=6), st.sampled_from(["", "é流", "\\\"'\n\t\x00", "%d%s", "\ud83d\ude00"]),
)
values = st.one_of(scalars, st.lists(scalars, max_size=2),
                   st.dictionaries(st.text(max_size=2), scalars, max_size=2))
attr_dicts = st.dictionaries(st.sampled_from(KEYS), values, max_size=7)
#: Mostly frames every check passes (exact ints where ints are declared),
#: so the compiled functions' own path is the common one.
exact = st.fixed_dictionaries(
    {"ts": st.integers(0, 30), "at": st.integers(0, 30), "x": st.integers(-2, 2)},
    optional={"note": st.text(max_size=4), "amt": st.integers(0, 3), "blob": values,
              "uid": scalars, "k": st.text(max_size=3), "extra": values},
)
frames = st.tuples(
    st.sampled_from(["A", "A", "B", "Tick", "N", "Z", "", 7, None, ("A",), ["A"]]),
    st.one_of(exact, exact, attr_dicts, st.sampled_from([None, [1], "attrs", 3])),
)


def reference_decision(schema, etype, attrs):
    """What the interpretive pass decides: ``screen``, then ``Event(...)``."""
    reason, idem = schema.screen(etype, attrs)
    if reason is not None:
        return reason, None, None
    return None, idem, Event(etype, attrs[schema.t_event], attrs,
                             eid=schema.derive_eid(idem))


def event_slots(event):
    if event is None:
        return None
    return (type(event), event.etype, event.ts, type(event.ts), event.eid,
            event.attrs, hash(event), repr(event))


def _same(a, b):
    """Equality that counts NaN as equal to itself (attrs may carry one)."""
    return json.dumps(a, sort_keys=True, default=repr) == json.dumps(
        b, sort_keys=True, default=repr
    )


class ReferenceController:
    """The admission loop before it was compiled, kept as the oracle."""

    def __init__(self, schema, window):
        self.schema = schema
        self.window = DedupeWindow(window)
        self.counts = {}

    def admit(self, source, etype, attrs):
        counts = self.counts.setdefault(source, [0, 0, 0])
        reason, idem, event = reference_decision(self.schema, etype, attrs)
        if reason is not None:
            counts[2] += 1
            return "quarantined", reason, None, None
        if idem in self.window:
            counts[1] += 1
            return "duplicate", None, None, idem
        self.window.add(idem)
        counts[0] += 1
        return "admitted", None, event, idem


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(max_examples=150, deadline=None)
@given(
    cohorts=st.lists(
        st.tuples(st.sampled_from(["s1", "s2"]), st.lists(frames, min_size=1, max_size=8),
                  st.lists(st.integers(0, 40), max_size=3)),
        min_size=1, max_size=6,
    ),
    window=st.integers(1, 5),
)
def test_compiled_admission_is_the_interpretive_reference(name, cohorts, window):
    schema = SCHEMAS[name]
    compiled = AdmissionController(schema, window=window)
    reference = ReferenceController(schema, window)
    offered = []
    for source, fresh, resend in cohorts:
        # Resends of earlier frames: duplicates, or re-admissions past eviction.
        pairs = fresh + [offered[i % len(offered)] for i in resend if offered]
        offered += fresh
        for (etype, attrs), (reason, idem, event) in zip(
            pairs, compiled.decide_cohort(source, pairs)
        ):
            want = reference.admit(source, etype, attrs)
            outcome = ("quarantined" if reason is not None
                       else "duplicate" if event is None else "admitted")
            got = (outcome, reason, event, idem)
            assert got[:2] == want[:2] and got[3] == want[3]
            assert _same(event_slots(got[2]), event_slots(want[2]))
            view = schema.decide(etype, attrs)
            assert (view[0], view[1]) == reference_decision(schema, etype, attrs)[:2]
            assert view[0] == want[1]
            if want[1] is None:
                assert schema.idempotency_id(etype, attrs) == view[1]
                assert _same(event_slots(schema.build_event(etype, attrs)),
                             event_slots(view[2]))
        assert list(compiled._window._order) == list(reference.window._order)
        assert compiled._window._ids == reference.window._ids
        for source_id, (admitted, duplicates, quarantined) in reference.counts.items():
            counts = compiled.source_counts(source_id)
            assert (counts.admitted, counts.duplicates, counts.quarantined) == (
                admitted, duplicates, quarantined
            )


@pytest.mark.parametrize(
    "name, etype, attrs",
    [
        ("derived", "A", {"ts": 5, "x": 2, "note": "é", "amt": 3, "blob": [1.5]}),
        ("derived", "B", {"ts": 2**64, "x": -7, "extra": "kept"}),
        ("explicit", "A", {"ts": 5, "x": 2, "uid": "u-1"}),
        ("custom", "Tick", {"at": 7, "x": 2, "k": "IBM", "extra": None}),
        ("loose", "N", {"ts": 0}),
        ("untyped-explicit", "A", {"ts": 5, "x": 2, "note": "", "uid": 1, "blob": None}),
        ("untyped-subset", "A", {"ts": 5, "x": 2, "blob": {"k": [1]}}),
    ],
)
def test_exact_typed_frames_never_reach_the_interpretive_pass(name, etype, attrs):
    schema = SCHEMAS[name]
    with mock.patch.object(StreamSchema, "screen", wraps=schema.screen) as screen:
        [(reason, idem, event)] = AdmissionController(schema).decide_cohort(
            "s1", [(etype, attrs)]
        )
    assert screen.call_count == 0 and reason is None and event is not None
    assert idem == schema.screen(etype, attrs)[1]


@pytest.mark.parametrize(
    "name, etype, attrs",
    [
        ("derived", "A", {"ts": 5, "x": True}),  # a bool in an int field
        ("derived", "A", {"ts": 5, "x": 2, "amt": 1.5}),  # a float in a float field: admissible
        ("derived", "A", {"ts": 5, "x": 2, "amt": math.nan}),
        ("derived", "A", {"ts": 5}),  # a missing field
        ("derived", "Z", {"ts": 5, "x": 2}),  # an undeclared type
        ("derived", "A", [("ts", 5)]),  # attrs that are not a dict
        # a missing required field of type "any", outside the id material
        ("untyped-explicit", "A", {"ts": 5, "x": 2, "note": "", "uid": "u-1"}),
        ("untyped-subset", "A", {"ts": 5, "x": 2}),
    ],
)
def test_unusual_frames_take_the_interpretive_pass(name, etype, attrs):
    schema = SCHEMAS[name]
    with mock.patch.object(StreamSchema, "screen", wraps=schema.screen) as screen:
        decision = schema.decide(etype, attrs)
    assert screen.call_count == 1
    assert decision[:2] == reference_decision(schema, etype, attrs)[:2]


@pytest.mark.parametrize(
    "attrs",
    [{"ts": 5, "x": 2}, {"ts": 5, "x": 2, "amt": 1.5}],  # compiled; interpretive
)
def test_a_seen_id_is_decided_before_its_event_is_built(attrs):
    schema = SCHEMAS["derived"]
    reason, idem, event = schema.decide("A", attrs)
    assert reason is None and event is not None
    assert schema.decide("A", attrs, {idem}) == (None, idem, None)
