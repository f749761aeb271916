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
    reply shape.
"""

from __future__ import annotations

import itertools
import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import OutOfOrderEngine, ShedPolicy, parse
from repro.ingest import EventSchema, FieldSpec, GatewayConfig, IngestGateway, StreamSchema
from repro.ingest import server
from repro.ingest.server import decode_lines, encode_reply
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
        "flight": flight.records() if flight is not None else None,
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
        if cohort:
            return gateway.admit_cohort(source, [dict(frame) for frame in frames], now)
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
    seen = ["throttle" if "throttle" in ack else ack["status"] for ack in acks]
    assert seen == ["admitted"] * 6 + ["throttle"] * 2 + ["busy"] * 2
    assert gateway.stats()["busy"] == 2 and gateway.stats()["throttled"] == 2
    assert len(gateway._pending) == 8 and gateway.engine.state_size() == 0


def test_the_one_frame_drivers_hold_no_ladder_of_their_own():
    """`admit_frame` and `admit` are one-element calls into the cohort bodies."""
    gateway, _ = _gateway("off", shed=False)
    with mock.patch.object(
        gateway.admission, "admit_cohort", wraps=gateway.admission.admit_cohort
    ) as body:
        assert gateway.admit_frame("s1", "A", {"ts": 1, "x": 1}, now=0.0) == {
            "status": "admitted"
        }
        assert gateway.admission.admit("s1", "A", {"ts": 1, "x": 1}).outcome.value == (
            "duplicate"
        )
    assert body.call_count == 2


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
