"""Event-lifecycle tracing: structured spans per stream element.

A :class:`Tracer` records what happened to each element as the engine
processed it — admitted to which steps, rejected by which predicate,
parked in the reorder buffer, evicted by a purge or a shed, emitted in
a match — as flat :class:`Span` records in a bounded ring buffer.  The
``repro explain`` subcommand replays a trace with one of these attached
and reconstructs per-event lifecycles from the spans.

Determinism: span ids derive from the engine's arrival index (the
logical clock every engine already maintains) plus a per-arrival
sequence number — no wall clock, no process-global counters — so two
replays of the same trace produce byte-identical span streams.  The
ring buffer (``collections.deque(maxlen=...)``) bounds retention; the
tracer counts total recorded spans so overflow is detectable.

The default tracer on every engine is :class:`NullTracer` via the
engine's unset ``_obs`` attribute: the disabled hot path pays exactly
one attribute check per element (see ``Engine.feed``).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

# -- lifecycle stages ----------------------------------------------------------------
#
# One vocabulary across every engine family.  An element's lifecycle is
# the ordered sequence of its spans; a well-formed lifecycle starts with
# an admission outcome (ADMITTED / IGNORED / LATE_DROPPED / QUARANTINED /
# BUFFERED) and may continue through storage, release, match
# participation, and eviction stages.

ADMITTED = "admitted"  #: passed predicates, inserted into >=1 stack/side store
IGNORED = "ignored"  #: irrelevant type, or every admissible step's predicate rejected
QUARANTINED = "quarantined"  #: malformed, skipped under ValidationPolicy.QUARANTINE
LATE_DROPPED = "late_dropped"  #: at or below the K horizon: counted and dropped
BUFFERED = "buffered"  #: parked in a reorder buffer awaiting its seal
RELEASED = "released"  #: left the reorder buffer toward the inner engine
PREDICATE_REJECTED = "predicate_rejected"  #: a step's local predicate said no
MATCH_EMITTED = "match_emitted"  #: contributed to an emitted match
MATCH_PENDING = "match_pending"  #: contributed to a match parked for negation sealing
MATCH_CANCELLED = "match_cancelled"  #: contributed to a match cancelled at seal time
MATCH_SPECULATED = "match_speculated"  #: emitted into the speculative stream ahead of its seal
MATCH_RETRACTED = "match_retracted"  #: a speculative emission withdrawn by a retraction record
PURGED = "purged"  #: evicted as provably useless at the safe horizon
SHED = "shed"  #: evicted by load shedding (lossy, counted casualty)
PUNCTUATION = "punctuation"  #: a punctuation advanced the clock
REFROZEN = "refrozen"  #: an adaptive-K controller re-froze the bound at this boundary
SOURCE_DEGRADED = "source_degraded"  #: an ingestion source fell silent past its liveness timeout
SOURCE_RECOVERED = "source_recovered"  #: a degraded/disconnected source resumed sending

STAGES = (
    ADMITTED, IGNORED, QUARANTINED, LATE_DROPPED, BUFFERED,
    RELEASED, PREDICATE_REJECTED, MATCH_EMITTED, MATCH_PENDING,
    MATCH_CANCELLED, MATCH_SPECULATED, MATCH_RETRACTED,
    PURGED, SHED, PUNCTUATION, REFROZEN, SOURCE_DEGRADED, SOURCE_RECOVERED,
)


class Span:
    """One lifecycle observation: (span id, arrival, stage, subject event)."""

    __slots__ = (
        "span_id", "arrival", "stage", "eid", "ts", "etype", "detail", "stream",
    )

    def __init__(
        self,
        span_id: str,
        arrival: int,
        stage: str,
        eid: Optional[int] = None,
        ts: Optional[int] = None,
        etype: Optional[str] = None,
        detail: str = "",
        stream: str = "",
    ):
        self.span_id = span_id
        self.arrival = arrival
        self.stage = stage
        self.eid = eid
        self.ts = ts
        self.etype = etype
        self.detail = detail
        self.stream = stream

    def as_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "arrival": self.arrival,
            "stage": self.stage,
            "eid": self.eid,
            "ts": self.ts,
            "etype": self.etype,
            "detail": self.detail,
            "stream": self.stream,
        }

    def __repr__(self) -> str:
        subject = f" eid={self.eid}" if self.eid is not None else ""
        detail = f" {self.detail}" if self.detail else ""
        return f"Span[{self.span_id}] {self.stage}{subject}{detail}"


class NullTracer:
    """Disabled tracer: records nothing, costs nothing.

    Engines never call it on the hot path — the single ``_obs is None``
    check in ``Engine.feed`` short-circuits first — but the bundle API
    (and user code holding a tracer reference) stays uniform.
    """

    enabled = False
    __slots__ = ()

    def record(self, arrival: int, stage: str, **_: object) -> None:
        pass

    def spans(self) -> List[Span]:
        return []

    def spans_for(self, eid: int) -> List[Span]:
        return []

    def __len__(self) -> int:
        return 0


class Tracer:
    """Bounded ring buffer of lifecycle spans.

    Parameters
    ----------
    capacity:
        Maximum retained spans; older spans fall off the front.  The
        default suits interactive ``explain`` sessions on bounded
        traces — size it to ~8 spans per trace element for full
        retention.
    """

    enabled = True
    __slots__ = ("capacity", "_spans", "_subs", "recorded")

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError(f"tracer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._spans: Deque[Span] = deque(maxlen=capacity)
        # Per-stream sub-counter state ``stream -> [arrival, sub]``.
        # Layered engines share one tracer under distinct stream tags (a
        # reorder buffer's inner engine uses stream="inner"), and their
        # records *interleave within one outer arrival* — a release span
        # on outer arrival 5 may be followed by inner spans and then
        # another outer span for arrival 5.  Keeping one counter per
        # stream (bounded by the number of engine layers) makes span ids
        # collision-free under any interleaving.
        self._subs: Dict[str, List[int]] = {}
        #: Lifetime spans recorded (> len(self) means the ring dropped some).
        self.recorded = 0

    def record(
        self,
        arrival: int,
        stage: str,
        eid: Optional[int] = None,
        ts: Optional[int] = None,
        etype: Optional[str] = None,
        detail: str = "",
        stream: str = "",
    ) -> Span:
        state = self._subs.get(stream)
        if state is None or state[0] != arrival:
            state = [arrival, 0]
            self._subs[stream] = state
        prefix = f"{stream}:{arrival}" if stream else f"{arrival}"
        span = Span(
            f"{prefix}.{state[1]}", arrival, stage, eid, ts, etype, detail, stream
        )
        state[1] += 1
        self._spans.append(span)
        self.recorded += 1
        return span

    # -- queries ----------------------------------------------------------------

    def spans(self) -> List[Span]:
        return list(self._spans)

    def spans_for(self, eid: int) -> List[Span]:
        """Every retained span about the event *eid*, in record order."""
        return [span for span in self._spans if span.eid == eid]

    def stage_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for span in self._spans:
            counts[span.stage] = counts.get(span.stage, 0) + 1
        return counts

    def overflowed(self) -> bool:
        """True when the ring has dropped spans (lifecycles may be partial)."""
        return self.recorded > len(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def __repr__(self) -> str:
        return f"Tracer(spans={len(self._spans)}/{self.capacity}, recorded={self.recorded})"
