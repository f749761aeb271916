"""``repro explain``: answer "why was this match emitted late / never?".

The workflow: replay a recorded trace through a freshly built engine
with a :class:`~repro.obs.trace.Tracer` attached, then reconstruct the
lifecycle of the events that contribute (or should have contributed) to
a match of interest:

* for an **emitted** match — when each contributing event was admitted,
  how long it sat in a reorder buffer, when the match was routed through
  negation sealing, when it was emitted;
* for a **missing** match (present in the offline oracle's output but
  not the engine's) — which contributing event was dropped as late,
  rejected by a predicate, evicted by a purge, or shed under load, i.e.
  the proximate cause of the miss.

Everything here is offline tooling: it never touches the engine hot
path, and the replay is exactly as deterministic as the engine itself,
so an explanation is reproducible from the trace file alone.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.core.event import Event
from repro.core.oracle import OfflineOracle
from repro.core.pattern import Match, Pattern
from repro.obs import trace as stages
from repro.obs.trace import Tracer

#: Stages that terminate an event's useful life inside the engine —
#: the proximate causes `diagnose` reports for a missing match.
_TERMINAL_STAGES = (
    stages.LATE_DROPPED,
    stages.PURGED,
    stages.SHED,
    stages.QUARANTINED,
    stages.PREDICATE_REJECTED,
    stages.IGNORED,
)


def default_capacity(elements: Sequence[Any]) -> int:
    """A ring size that retains full lifecycles for a bounded replay.

    ~8 spans per element covers the worst realistic case (admission +
    buffer + release + several match participations); the floor keeps
    tiny traces from configuring a degenerate ring.
    """
    return max(4096, 8 * len(elements))


def replay_with_tracing(
    engine: Any,
    elements: Sequence[Any],
    capacity: Optional[int] = None,
) -> Tracer:
    """Run *elements* through a fresh *engine* with tracing; return the tracer.

    The engine must be freshly built (nothing fed yet) so arrival
    indices line up with the trace. Fed element-at-a-time — the
    instrumented path does that anyway — and closed at the end so
    close-time emissions are traced too.
    """
    tracer = Tracer(capacity if capacity is not None else default_capacity(elements))
    engine.enable_observability(tracer=tracer)
    for element in elements:
        engine.feed(element)
    engine.close()
    return tracer


# -- lifecycle rendering -------------------------------------------------------------


def lifecycle_lines(tracer: Tracer, eid: int) -> List[str]:
    """Human-readable lifecycle of event *eid*, one line per span."""
    spans = tracer.spans_for(eid)
    if not spans:
        note = "no spans retained"
        if tracer.overflowed():
            note += " (ring buffer overflowed; re-run with a larger --capacity)"
        return [f"eid {eid}: {note}"]
    lines = []
    for span in spans:
        subject = f"{span.etype}@{span.ts}" if span.etype is not None else f"ts={span.ts}"
        tier = f" [{span.stream}]" if span.stream else ""
        detail = f" — {span.detail}" if span.detail else ""
        lines.append(
            f"  arrival {span.arrival:>6}{tier}  {span.stage:<18} {subject}{detail}"
        )
    return lines


def diagnose(tracer: Tracer, eid: int) -> str:
    """One-line proximate cause for why *eid* is not available for matching."""
    spans = tracer.spans_for(eid)
    if not spans:
        if tracer.overflowed():
            return "unknown (trace ring overflowed)"
        return "never arrived in the trace"
    for span in reversed(spans):
        if span.stage == stages.MATCH_EMITTED:
            return f"participated in a match ({span.stage})"
        if span.stage == stages.MATCH_RETRACTED:
            # The speculative match this event contributed to was
            # withdrawn — for a missing-match question that withdrawal
            # IS the proximate cause, not whatever buried the event
            # earlier in its life.
            detail = f" ({span.detail})" if span.detail else ""
            return f"retracted{detail}"
        if span.stage == stages.MATCH_SPECULATED:
            return "participated in a speculative match (not yet sealed)"
        if span.stage in _TERMINAL_STAGES:
            detail = f" ({span.detail})" if span.detail else ""
            return f"{span.stage}{detail}"
    return f"last seen: {spans[-1].stage}"


# -- match-level explanations --------------------------------------------------------


def _match_header(match: Match, label: str) -> str:
    eids = ", ".join(str(event.eid) for event in match.events)
    return (
        f"{label} match [{eids}] "
        f"span {match.start_ts}..{match.end_ts} "
        f"({' -> '.join(event.etype for event in match.events)})"
    )


def explain_match(tracer: Tracer, match: Match, label: str = "emitted") -> str:
    """Full lifecycle story of one match: every contributing event."""
    lines = [_match_header(match, label)]
    for event in match.events:
        lines.append(f"event {event.etype}@{event.ts} (eid {event.eid}):")
        lines.extend(lifecycle_lines(tracer, event.eid))
    return "\n".join(lines)


def explain_missing(tracer: Tracer, match: Match) -> str:
    """Why an oracle-only match never surfaced: per-event proximate causes."""
    lines = [_match_header(match, "missing")]
    for event in match.events:
        lines.append(
            f"event {event.etype}@{event.ts} (eid {event.eid}): "
            f"{diagnose(tracer, event.eid)}"
        )
        lines.extend(lifecycle_lines(tracer, event.eid))
    return "\n".join(lines)


# -- target selection ----------------------------------------------------------------


def _stable_match_order(matches: Iterable[Match]) -> List[Match]:
    return sorted(matches, key=lambda m: (m.end_ts, m.start_ts, repr(m.key())))


def emitted_matches(
    engine: Any, eids: Optional[Sequence[int]] = None
) -> List[Match]:
    """The engine's emitted matches, optionally filtered to those whose
    contributing event ids include every id in *eids*."""
    matches = list(engine.results)
    if eids:
        wanted = set(eids)
        matches = [
            m for m in matches
            if wanted <= {event.eid for event in m.events}
        ]
    return _stable_match_order(matches)


def missing_matches(
    pattern: Pattern, elements: Sequence[Any], engine: Any
) -> Tuple[List[Match], int]:
    """Oracle-only matches (engine missed them) plus the oracle total."""
    events = [e for e in elements if isinstance(e, Event)]
    truth = OfflineOracle(pattern).evaluate(events)
    produced = engine.result_set()
    missing = [match for match in truth if match.key() not in produced]
    return _stable_match_order(missing), len(truth)


def summary_lines(tracer: Tracer) -> List[str]:
    """Stage histogram of the whole replay — the trace's table of contents."""
    counts = tracer.stage_counts()
    lines = [f"trace: {len(tracer)} spans retained, {tracer.recorded} recorded"]
    for stage in stages.STAGES:
        if stage in counts:
            lines.append(f"  {stage:<20} {counts[stage]}")
    if tracer.overflowed():
        lines.append(
            "  NOTE: ring buffer overflowed; early lifecycles are partial "
            "(raise --capacity)"
        )
    return lines
