"""Seeded input generation for the E24 workloads.

Everything the system under test receives is built here from the seed:
the serve workloads get a :class:`FramePlan` (wire-encoded frames in one
global send order with the ack each must draw), the engine workload gets
the ``SyntheticWorkload`` arrival order.  K and ``source_slack`` are
*derived* from the delay bound and the in-flight window, so the exact
reference result is reachable and ``failed_share`` is not noise.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List, Optional, Tuple

from repro.core.event import Event
from repro.ingest.schema import EventSchema, FieldSpec, StreamSchema
from repro.streams.disorder import RandomDelayModel
from repro.workloads.synthetic import SyntheticWorkload

from spec import SOURCES

STREAM = "e24"
X_VALUES = 5  # equality-join cardinality: about one match per frame


def make_schema(max_delay: int) -> StreamSchema:
    """The serve stream's admission contract.

    A source's own frames trail its newest occurrence time by at most
    *max_delay* ticks (see :func:`serve_plan`), so that is the slack; an
    in-order source declares the stronger ``per_source`` promise.
    """
    fields = [FieldSpec("ts", "int"), FieldSpec("x", "int")]
    return StreamSchema(
        STREAM,
        t_event="ts",
        ordering_scope="global" if max_delay else "per_source",
        source_slack=max_delay,
        events=[EventSchema(etype, list(fields)) for etype in ("A", "B", "C")],
    )


def engine_k(window: int, max_delay: int) -> int:
    """The smallest safe engine K for the strictly interleaved generator.

    The generator sends in one global due-time order and stalls *all*
    sending while any source has *window* frames unacked, so a frame the
    gateway has not processed yet is at most ``2 * window + 1`` positions
    behind the newest one it has.  Positions map to ticks one to one up
    to the delay bound on each end, hence ``2 * max_delay``; 8 is margin.
    """
    return 2 * window + 2 * max_delay + 8


class FramePlan:
    """The frames of one serve run, in global send order."""

    __slots__ = ("source", "line", "due", "expect", "seq", "eid", "events", "schema")

    def __init__(self, schema: StreamSchema):
        self.schema = schema
        self.source: List[int] = []  # index into SOURCES
        self.line: List[bytes] = []  # the wire frame, newline included
        self.due: List[float] = []  # seconds after start; empty = closed loop
        self.expect: List[str] = []  # the ack status this frame must draw
        self.seq: List[int] = []  # per-source sequence number "n"
        self.eid: List[int] = []  # derived event id (0 for malformed frames)
        self.events: List[Event] = []  # distinct admitted events (reference input)

    def __len__(self) -> int:
        return len(self.line)

    def add(
        self,
        source: int,
        etype: Any,
        attrs: Dict[str, Any],
        expect: str,
        due: Optional[float],
        counters: List[int],
    ) -> None:
        n = counters[source]
        counters[source] = n + 1
        frame = {"op": "event", "n": n, "etype": etype, "attrs": attrs}
        self.source.append(source)
        self.line.append(json.dumps(frame, sort_keys=True).encode("utf-8") + b"\n")
        if due is not None:
            self.due.append(due)
        self.expect.append(expect)
        self.seq.append(n)
        if expect == "quarantined":
            self.eid.append(0)
        else:
            event = self.schema.build_event(etype, attrs)
            self.eid.append(event.eid)
            if expect == "admitted":
                self.events.append(event)


def hello_line(source: int) -> bytes:
    frame = {"op": "hello", "source": SOURCES[source], "stream": STREAM, "proto": 1}
    return json.dumps(frame, sort_keys=True).encode("utf-8") + b"\n"


_BAD_FRAMES = (
    lambda rng: ("A", {"x": rng.randrange(X_VALUES)}),  # no t_event
    lambda rng: ("B", {"ts": rng.randrange(1000), "x": "seven"}),  # wrong type
    lambda rng: ("Z", {"ts": rng.randrange(1000), "x": 1}),  # undeclared type
    lambda rng: ("A", {"ts": -5, "x": 1}),  # negative t_event
)


def serve_plan(params: Dict[str, Any], seed: int) -> FramePlan:
    """Frames for a serve workload: one tick per event, sources alternate.

    In-order workloads send tick *i* at position *i*.  The paced workload
    delays ``delay_share`` of events by up to ``max_delay`` ticks, re-sends
    ``dup_share`` of frames a few positions later (at-least-once
    duplicates) and mixes in ``bad_share`` schema-invalid frames; frames
    are due at ``(tick + delay) / rate`` and sent in due order, so each
    connection's own disorder is bounded by ``max_delay`` ticks.
    """
    rng = random.Random(seed)
    frames = params["frames"]
    rate = params.get("rate")
    max_delay = params.get("max_delay", 0)
    delay_share = params.get("delay_share", 0.0)
    dup_share = params.get("dup_share", 0.0)
    bad_share = params.get("bad_share", 0.0)
    types = ("A", "B", "C") if "!C" in params["query"] else ("A", "B")
    weights = (45, 45, 10) if len(types) == 3 else (50, 50)

    # (due_tick, order, source, etype, attrs, expect)
    drafts: List[Tuple[float, int, int, Any, Dict[str, Any], str]] = []
    tick = 0
    for order in range(frames):
        roll = rng.random()
        if roll < bad_share:
            etype, attrs = rng.choice(_BAD_FRAMES)(rng)
            drafts.append((tick, order, rng.randrange(2), etype, attrs, "quarantined"))
            continue
        if roll < bad_share + dup_share and drafts:
            back = drafts[-1 - rng.randrange(min(len(drafts), 16))]
            if back[5] == "admitted":
                drafts.append(
                    (back[0] + 1 + rng.randrange(8), order, back[2], back[3],
                     back[4], "duplicate")
                )
                continue
        source = tick % 2
        delay = 0
        if delay_share and rng.random() < delay_share:
            delay = rng.randint(1, max_delay)
        attrs = {"ts": tick, "x": rng.randrange(X_VALUES)}
        etype = rng.choices(types, weights)[0]
        drafts.append((tick + delay, order, source, etype, attrs, "admitted"))
        tick += 1
    drafts.sort(key=lambda draft: (draft[0], draft[1]))

    plan = FramePlan(make_schema(max_delay))
    counters = [0, 0]
    for due_tick, _order, source, etype, attrs, expect in drafts:
        due = due_tick / rate if rate else None
        plan.add(source, etype, attrs, expect, due, counters)
    return plan


def resend_tail(plan: FramePlan, count: int) -> FramePlan:
    """The last *count* admitted frames again: after a restart all are duplicates."""
    tail = FramePlan(plan.schema)
    counters = [0, 0]
    for index in range(len(plan) - count, len(plan)):
        frame = json.loads(plan.line[index])
        tail.add(plan.source[index], frame["etype"], frame["attrs"], "duplicate",
                 None, counters)
    return tail


def engine_workload(params: Dict[str, Any], seed: int) -> SyntheticWorkload:
    return SyntheticWorkload(
        query_length=3,
        event_count=params["events"],
        within=params["within"],
        partitions=params["partitions"],
        negated_step=1,
        disorder=RandomDelayModel(params["delay_share"], params["max_delay"], seed=seed),
        seed=seed,
    )
