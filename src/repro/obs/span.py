"""Cross-layer latency spans: per-frame stage attribution for ingest.

A *span* is born on the client — :meth:`repro.ingest.client.IngestClient`
stamps each event frame with the monotonic time of its last transmission
— and dies when the gateway acks the frame (or, for the emit path, when
a match containing the frame's event is delivered).  In between, the
gateway records the boundary times of every stage the frame crosses, and
:class:`SpanTracker` turns those boundaries into stage-latency
histograms (``repro_stage_seconds{stage=...}``).

The accounting identity the E22 benchmark checks is **by construction**:
the ack-path stages partition the interval ``[t_receipt, t_ack]`` with
telescoping boundaries, so for every frame

    queue + admit + hold + feed + sync + ack == e2e  (exactly)

where ``e2e = t_ack - t_receipt`` is the measured end-to-end ack latency
of the frame's batch.  ``transit`` (client send → gateway receipt) is
observed separately and is *not* part of the identity — it compares two
processes' monotonic clocks, which is only meaningful on one host.

Nothing in this module reads a clock: every time value is injected by
the transport layer, so the tracker is a pure function of its inputs —
deterministic under scripted clocks, like the rest of ``repro.obs``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs.metrics import SECONDS_BUCKETS, MetricsRegistry

#: Client last-transmit -> gateway receipt (cross-process; same host only).
STAGE_TRANSIT = "transit"
#: Batch receipt -> this frame's admission start (waiting behind batchmates).
STAGE_QUEUE = "queue"
#: The admission ladder: backpressure check, schema, dedupe window.
STAGE_ADMIT = "admit"
#: Frame admitted -> its cohort's feed starts: batchmates being admitted.
STAGE_HOLD = "hold"
#: The cohort's one runner feed: WAL append + engine batch + its punctuation
#: (one interval per cohort, attributed in full to each of its frames).
STAGE_FEED = "feed"
#: The WAL flush barrier (group commit).
STAGE_SYNC = "sync"
#: Sync done -> ack bytes handed to the transport.
STAGE_ACK = "ack"

#: Ack-path stages, in causal order; their sums telescope to e2e.
ACK_STAGES: Tuple[str, ...] = (
    STAGE_QUEUE, STAGE_ADMIT, STAGE_HOLD, STAGE_FEED, STAGE_SYNC, STAGE_ACK,
)
STAGES: Tuple[str, ...] = (STAGE_TRANSIT,) + ACK_STAGES

#: Wire field carrying the client-minted span context on event frames.
SPAN_FIELD = "span"


def mint_span(t_sent: float) -> Dict[str, float]:
    """The client half: a span context stamped at (re)transmission."""
    return {"t0": round(t_sent, 9)}


def span_origin(frame_span: Any) -> Optional[float]:
    """Extract the transmit timestamp from a wire span context, if sane."""
    if isinstance(frame_span, dict):
        t0 = frame_span.get("t0")
        if isinstance(t0, (int, float)):
            return float(t0)
    return None


class _Frame:
    """One frame's boundary times inside an open cohort."""

    __slots__ = ("source", "status", "t_start", "t_admit", "t_sent", "eid")

    def __init__(
        self,
        source: str,
        status: str,
        t_start: float,
        t_admit: float,
        t_sent: Optional[float],
        eid: Optional[int],
    ):
        self.source = source
        self.status = status
        self.t_start = t_start
        self.t_admit = t_admit
        self.t_sent = t_sent
        self.eid = eid


class SpanTracker:
    """Stage-latency attribution over one gateway's frame cohorts.

    A *cohort* is one socket batch: every frame read off a connection in
    one chunk, admitted one by one, fed and made durable by one group
    commit, and acked together.  The transport opens a cohort at batch
    receipt, the gateway notes each frame's boundaries as it runs the
    admission ladder, and the transport seals the cohort once the acks
    are written; sealing observes every stage histogram and appends a
    compact per-cohort attribution record (bounded ring) that the E22
    benchmark audits for the sum-to-e2e identity.

    The emit path is tracked separately: admitted events park their
    ``(t_sent, t_admit)`` in a bounded map until a delivered match names
    them, yielding ``repro_emit_hold_seconds`` (admission → emission,
    i.e. cohort wait plus reorder-buffer/watermark residence) and
    ``repro_emit_e2e_seconds`` (client send → emission).
    """

    __slots__ = (
        "registry", "cohort_limit", "inflight_limit",
        "_stage", "_e2e", "_emit_hold", "_emit_e2e",
        "_open", "_t_receipt", "_inflight", "cohorts", "sealed_cohorts",
    )

    def __init__(
        self,
        registry: MetricsRegistry,
        cohort_limit: int = 256,
        inflight_limit: int = 4096,
    ):
        self.registry = registry
        self.cohort_limit = cohort_limit
        self.inflight_limit = inflight_limit
        self._stage = {
            stage: registry.histogram(
                "repro_stage_seconds",
                "per-frame latency attributed to one ingest stage",
                SECONDS_BUCKETS,
                labels={"stage": stage},
            )
            for stage in STAGES
        }
        self._e2e = registry.histogram(
            "repro_ack_e2e_seconds",
            "batch receipt to ack write, per frame",
            SECONDS_BUCKETS,
        )
        self._emit_hold = registry.histogram(
            "repro_emit_hold_seconds",
            "admission to match delivery, per matched event",
            SECONDS_BUCKETS,
        )
        self._emit_e2e = registry.histogram(
            "repro_emit_e2e_seconds",
            "client send to match delivery, per matched event",
            SECONDS_BUCKETS,
        )
        self._open: Optional[List[_Frame]] = None
        self._t_receipt = 0.0
        #: eid -> (t_sent, t_admit); insertion-ordered, bounded FIFO.
        self._inflight: Dict[int, Tuple[Optional[float], float]] = {}
        #: Bounded ring of per-cohort attribution records.
        self.cohorts: Deque[Dict[str, Any]] = deque(maxlen=cohort_limit)
        self.sealed_cohorts = 0

    # -- cohort lifecycle (driven by the transport) ------------------------------

    def open_cohort(self, t_receipt: float) -> None:
        """A batch of frames arrived at *t_receipt*; start attributing."""
        self._open = []
        self._t_receipt = t_receipt

    def note_frame(
        self,
        source: str,
        status: str,
        t_start: float,
        t_admit: float,
        t_sent: Optional[float] = None,
        eid: Optional[int] = None,
    ) -> None:
        """One frame crossed the admission ladder inside the open cohort.

        ``t_start``/``t_admit`` bound the admit stage, whatever the
        outcome; every frame then waits for its cohort's commit.
        Without an open cohort (tests driving ``admit_frame`` directly)
        the frame is attributed as its own single-frame cohort opened at
        ``t_start``.
        """
        if self._open is None:
            self.open_cohort(t_start)
        self._open.append(_Frame(source, status, t_start, t_admit, t_sent, eid))
        if eid is not None:
            if len(self._inflight) >= self.inflight_limit:
                self._inflight.pop(next(iter(self._inflight)))
            self._inflight[eid] = (t_sent, t_admit)

    def seal_cohort(
        self, t_feed: float, t_sync_start: float, t_sync_end: float, t_ack: float
    ) -> Optional[Dict[str, Any]]:
        """The cohort's group commit and ack write finished; attribute it.

        ``t_feed``/``t_sync_start`` bound the cohort's one runner feed
        (equal when the cohort admitted nothing), ``t_sync_start``/
        ``t_sync_end`` the WAL flush.
        """
        frames, self._open = self._open, None
        if not frames:
            return None
        t_receipt = self._t_receipt
        stage_sums = {stage: 0.0 for stage in ACK_STAGES}
        transit_sum = 0.0
        e2e_sum = 0.0
        for frame in frames:
            parts = (
                (STAGE_QUEUE, frame.t_start - t_receipt),
                (STAGE_ADMIT, frame.t_admit - frame.t_start),
                (STAGE_HOLD, t_feed - frame.t_admit),
                (STAGE_FEED, t_sync_start - t_feed),
                (STAGE_SYNC, t_sync_end - t_sync_start),
                (STAGE_ACK, t_ack - t_sync_end),
            )
            for stage, seconds in parts:
                self._stage[stage].observe(seconds)
                stage_sums[stage] += seconds
            e2e = t_ack - t_receipt
            self._e2e.observe(e2e)
            e2e_sum += e2e
            if frame.t_sent is not None:
                transit = max(0.0, t_receipt - frame.t_sent)
                self._stage[STAGE_TRANSIT].observe(transit)
                transit_sum += transit
        record = {
            "frames": len(frames),
            "t_receipt": t_receipt,
            "e2e_sum": e2e_sum,
            "stage_sums": stage_sums,
            "transit_sum": transit_sum,
            "statuses": sorted({frame.status for frame in frames}),
        }
        self.cohorts.append(record)
        self.sealed_cohorts += 1
        return record

    def drop_cohort(self) -> None:
        """Abandon the open cohort (the batch crashed before acking)."""
        self._open = None

    # -- emit path ---------------------------------------------------------------

    def note_emitted(self, eids: List[int], t_emit: float) -> None:
        """A delivered match named these events; close their emit spans."""
        for eid in eids:
            entry = self._inflight.pop(eid, None)
            if entry is None:
                continue
            t_sent, t_admit = entry
            self._emit_hold.observe(max(0.0, t_emit - t_admit))
            if t_sent is not None:
                self._emit_e2e.observe(max(0.0, t_emit - t_sent))


class SourceLagPanel:
    """Per-source watermark / lag / fencing gauges, registered lazily.

    ``lag`` is the distance a source's own watermark trails the
    fastest source's — the quantity that tells an operator *which*
    source is holding the min-merge back (a fenced source reports its
    last mark but no longer holds the merge).
    """

    __slots__ = ("registry", "_watermark", "_lag", "_fenced", "_merged")

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self._watermark: Dict[str, Any] = {}
        self._lag: Dict[str, Any] = {}
        self._fenced: Dict[str, Any] = {}
        self._merged = registry.gauge(
            "repro_gateway_merged_watermark", "min-merged source watermark"
        )

    def update(self, marks: Dict[str, int], fenced: Dict[str, bool], merged: int) -> None:
        """Refresh every per-source gauge from a watermark snapshot."""
        self._merged.set(merged)
        top = max(marks.values(), default=0)
        for source in sorted(marks):
            mark = marks[source]
            gauge = self._watermark.get(source)
            if gauge is None:
                labels = {"source": source}
                gauge = self._watermark[source] = self.registry.gauge(
                    "repro_source_watermark",
                    "per-source watermark (occurrence time)",
                    labels,
                )
                self._lag[source] = self.registry.gauge(
                    "repro_source_lag",
                    "timestamp units this source trails the fastest source",
                    labels,
                )
                self._fenced[source] = self.registry.gauge(
                    "repro_source_fenced",
                    "1 when the source is fenced out of the merge",
                    labels,
                )
            gauge.set(mark)
            self._lag[source].set(max(0, top - mark))
            self._fenced[source].set(1 if fenced.get(source) else 0)
