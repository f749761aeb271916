"""The flight recorder: a bounded ring of recent gateway trace records.

Production post-mortems need the *last few seconds* of what a gateway
was doing when it died, not a full journal of everything it ever did.
:class:`FlightRecorder` keeps a fixed-capacity ring of small tuples —
admissions, watermark moves, liveness fences, busy refusals, WAL sync
durations, sheds, retractions, and crash/termination markers — that
costs one tuple append per record and drops the oldest entries
silently.  The gateway dumps the ring to ``flight.jsonl`` when it
crashes or receives SIGTERM; ``repro explain --flight DUMP`` replays it
into a per-source timeline and names the proximate stall.

The recorder itself does no I/O and reads no clock: the gateway injects
timestamps and writes the dump (through
:func:`repro.core.recovery.write_lines`, as it writes its journal), so
this module stays rule-clean for the obs subtree gate.

Record kinds
------------
``admit`` / ``dup`` / ``quarantine``  one frame's admission outcome
``busy``        a hard-backpressure refusal; ``value`` = pressure*10000
``watermark``   the merged watermark moved; ``value`` = new mark
``hold``        reorder-buffer depth at a watermark move; ``value`` = depth,
                ``detail`` = oldest buffered occurrence time
``fence`` / ``unfence``  liveness transitions, per source
``shed``        the engine shed events; ``value`` = total shed so far
``retraction``  speculative retractions issued; ``value`` = total so far
``sync``        one group commit; ``value`` = duration in microseconds
``crash`` / ``sigterm`` / ``seal``  terminal markers
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Deque, Dict, List, NamedTuple, Optional, Tuple

FLIGHT_VERSION = 1

#: Stall verdicts analyze_flight can return (besides "none apparent").
STALL_BACKPRESSURE = "backpressure"
STALL_FENCED = "fenced source"
STALL_WAL_SYNC = "wal sync"
STALL_REORDER_HOLD = "reorder hold"
STALL_NONE = "none apparent"


class FlightRecord(NamedTuple):
    t: float
    kind: str
    source: str
    value: int
    detail: str


class FlightReport(NamedTuple):
    reason: str
    records: int
    dropped: int
    #: source -> most recent records mentioning it, oldest first
    timelines: Dict[str, List[FlightRecord]]
    #: one of the STALL_* constants (or STALL_NONE)
    verdict: str
    #: human sentence naming the proximate stall
    cause: str


class FlightRecorder:
    """Bounded, allocation-light ring of recent trace records."""

    __slots__ = ("capacity", "recorded", "_ring")

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self.recorded = 0
        self._ring: Deque[Tuple[float, str, str, int, str]] = deque(maxlen=capacity)

    def note(
        self, t: float, kind: str, source: str = "", value: int = 0, detail: str = ""
    ) -> None:
        self._ring.append((t, kind, source, value, detail))
        self.recorded += 1

    @property
    def dropped(self) -> int:
        return self.recorded - len(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def records(self) -> List[FlightRecord]:
        return [FlightRecord(*entry) for entry in self._ring]

    def dump_lines(self, reason: str, meta: Optional[Dict[str, Any]] = None) -> List[str]:
        """The ``flight.jsonl`` payload: a header line plus one line per
        record, oldest first.  The caller owns writing them to disk."""
        header: Dict[str, Any] = {
            "flight": FLIGHT_VERSION,
            "reason": reason,
            "records": len(self._ring),
            "recorded": self.recorded,
            "dropped": self.dropped,
        }
        if meta:
            header.update(meta)
        lines = [json.dumps(header, sort_keys=True)]
        for t, kind, source, value, detail in self._ring:
            record: Dict[str, Any] = {"t": round(t, 6), "kind": kind}
            if source:
                record["source"] = source
            if value:
                record["value"] = value
            if detail:
                record["detail"] = detail
            lines.append(json.dumps(record, sort_keys=True))
        return lines


def load_flight(text: str) -> Tuple[Dict[str, Any], List[FlightRecord]]:
    """Parse a ``flight.jsonl`` dump back to (header, records).

    Torn trailing lines (the dump raced process death) are skipped with
    the same repaired-tail semantics as the WAL reader.
    """
    header: Dict[str, Any] = {}
    records: List[FlightRecord] = []
    first = True
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except ValueError:
            continue  # torn write at process death
        if first and "flight" in payload:
            header = payload
            first = False
            continue
        first = False
        records.append(
            FlightRecord(
                float(payload.get("t", 0.0)),
                str(payload.get("kind", "?")),
                str(payload.get("source", "")),
                int(payload.get("value", 0)),
                str(payload.get("detail", "")),
            )
        )
    return header, records


def analyze_flight(
    header: Dict[str, Any],
    records: List[FlightRecord],
    last: int = 20,
) -> FlightReport:
    """Reconstruct per-source timelines and name the proximate stall.

    The verdict looks at the tail of the recording — the window after
    the last completed group commit, bounded to the final quarter of the
    recorded span — and asks, in order of operational urgency: was the
    gateway refusing frames (backpressure)?  did a fenced source
    coincide with the watermark going quiet?  was the last WAL sync an
    outlier?  was the reorder buffer still holding events at the end?
    """
    reason = str(header.get("reason", "unknown"))
    timelines: Dict[str, List[FlightRecord]] = {}
    for record in records:
        if record.source:
            timelines.setdefault(record.source, []).append(record)
    timelines = {
        source: entries[-last:] for source, entries in sorted(timelines.items())
    }
    if not records:
        return FlightReport(
            reason, 0, int(header.get("dropped", 0)), timelines,
            STALL_NONE, "the recording is empty",
        )

    t_end = records[-1].t
    t_begin = records[0].t
    span = max(t_end - t_begin, 1e-9)
    window_start = t_end - span / 4.0
    tail = [record for record in records if record.t >= window_start]

    busy = [record for record in tail if record.kind == "busy"]
    if busy:
        worst = max(record.value for record in busy) / 10000.0
        verdict = STALL_BACKPRESSURE
        cause = (
            f"{len(busy)} busy refusal(s) in the final window "
            f"(peak pressure {worst:.2f}) — the engine was shedding load "
            "and clients were being turned away"
        )
        return FlightReport(
            reason, len(records), int(header.get("dropped", 0)),
            timelines, verdict, cause,
        )

    fenced: Dict[str, FlightRecord] = {}
    for record in records:
        if record.kind == "fence":
            fenced[record.source] = record
        elif record.kind == "unfence":
            fenced.pop(record.source, None)
    if fenced:
        last_fence = max(fenced.values(), key=lambda record: record.t)
        marks = [record for record in records if record.kind == "watermark"]
        stalled_after_fence = not marks or marks[-1].t <= last_fence.t
        if stalled_after_fence or last_fence.t >= window_start:
            names = ", ".join(sorted(fenced))
            cause = (
                f"source(s) {names} fenced by the liveness timeout and never "
                "recovered; the merged watermark "
                + ("did not move afterwards" if stalled_after_fence
                   else "was still degraded at the end")
            )
            return FlightReport(
                reason, len(records), int(header.get("dropped", 0)),
                timelines, STALL_FENCED, cause,
            )

    syncs = [record for record in records if record.kind == "sync"]
    if syncs:
        tail_syncs = [record for record in syncs if record.t >= window_start]
        ordered = sorted(record.value for record in syncs)
        median = ordered[len(ordered) // 2]
        slow = [
            record for record in tail_syncs
            if record.value >= max(5 * max(median, 1), 50_000)
        ]
        if slow:
            worst_us = max(record.value for record in slow)
            cause = (
                f"group commit stalled: WAL sync took {worst_us / 1000.0:.1f} ms "
                f"(median {median / 1000.0:.3f} ms) right before the end — "
                "acks were gated on a slow flush"
            )
            return FlightReport(
                reason, len(records), int(header.get("dropped", 0)),
                timelines, STALL_WAL_SYNC, cause,
            )

    holds = [record for record in records if record.kind == "hold"]
    if holds and holds[-1].value > 0:
        depth = holds[-1].value
        oldest = holds[-1].detail
        cause = (
            f"the reorder buffer was still holding {depth} event(s) "
            + (f"(oldest occurrence time {oldest}) " if oldest else "")
            + "waiting for the watermark when the recording ended"
        )
        return FlightReport(
            reason, len(records), int(header.get("dropped", 0)),
            timelines, STALL_REORDER_HOLD, cause,
        )

    return FlightReport(
        reason, len(records), int(header.get("dropped", 0)), timelines,
        STALL_NONE, "no stall signature in the final window",
    )


def render_flight_lines(
    header: Dict[str, Any], records: List[FlightRecord], last: int = 20
) -> List[str]:
    """Human timeline for ``repro explain --flight``."""
    report = analyze_flight(header, records, last=last)
    lines = [
        f"flight recording: {report.records} record(s), "
        f"{report.dropped} dropped, reason: {report.reason}",
    ]
    for source, entries in report.timelines.items():
        lines.append(f"  source {source!r}:")
        for record in entries:
            detail = f" {record.detail}" if record.detail else ""
            value = f" value={record.value}" if record.value else ""
            lines.append(f"    t={record.t:.6f} {record.kind}{value}{detail}")
    unsourced = [record for record in records if not record.source][-last:]
    if unsourced:
        lines.append("  gateway:")
        for record in unsourced:
            detail = f" {record.detail}" if record.detail else ""
            value = f" value={record.value}" if record.value else ""
            lines.append(f"    t={record.t:.6f} {record.kind}{value}{detail}")
    lines.append(f"proximate stall: {report.verdict} — {report.cause}")
    return lines
