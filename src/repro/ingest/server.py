"""The ingestion gateway: a fault-tolerant TCP front door for engines.

:class:`IngestGateway` accepts newline-delimited-JSON connections from
many sources and feeds one engine behind a
:class:`~repro.core.recovery.ResilientRunner`, composing the layers the
rest of the package provides into the exactly-once admission story:

* **schema validation** (:mod:`repro.ingest.schema`) — malformed frames
  are quarantined with a reason, never fed;
* **idempotent admission** (:mod:`repro.ingest.admission`) — redelivered
  frames are counted as duplicates and dropped; after a crash the
  per-source windows are rebuilt from the runner's WAL so redeliveries
  racing the restart are still caught;
* **group-commit acks** — every batch of frames read off a socket (a
  *cohort*) is decoded at once, admitted a run of event frames at a time
  (:meth:`IngestGateway.admit_cohort`), then logged, fed, punctuated and
  made durable as one unit (:meth:`IngestGateway.sync_acks`) before a
  single ack is written back.  An acked frame is on disk; an unacked
  frame will be resent and deduped.  Exactly-once, relative to acks,
  with one ``runner.feed`` per cohort — one WAL write, one engine batch,
  at most one punctuation, one delivery-log append, one flush — instead
  of one per frame;
* **per-source watermarks** (:mod:`repro.ingest.liveness`) — each
  source's occurrence times advance its own watermark; the min-merge
  becomes engine punctuation at each group commit.  A source silent
  past the liveness timeout is *degraded*: fenced out of the merge so
  its silence stalls nothing, journalled, traced, and counted.  On
  reconnect its watermark floor is the already-emitted mark, so
  recovery never drags punctuation backward;
* **backpressure** — admission consults the engine's
  :class:`~repro.core.shedding.ShedPolicy` occupancy
  (:meth:`~repro.core.shedding.ShedPolicy.pressure`): from
  :data:`SOFT_PRESSURE` acks carry a ``throttle`` hint (clients slow
  down), from :data:`HARD_PRESSURE` frames are refused with ``busy`` +
  ``retry_after`` (:data:`RETRY_AFTER`) and are *not* admitted — the
  client retries later.  Never unbounded buffering.

The wire protocol is one JSON object per line in each direction (the
:mod:`repro.streams.replay` codec idiom).  Client → server ops:
``hello`` (first frame: source id, stream name, protocol version),
``event`` (sequence number ``n``, ``etype``, ``attrs``), ``watermark``
(explicit idle-source progress), ``stats``, ``bye``.  Server → client:
``hello_ok`` / ``error``, per-frame acks ``{"op": "ack", "n": ...,
"status": "admitted" | "duplicate" | "quarantined" | "ok"}``, ``busy``
refusals, ``stats_ok``, ``bye_ok``.

Determinism: all liveness decisions take injected ``now`` values; only
the asyncio timer task and the connection handlers read the wall clock.
Tests drive :meth:`IngestGateway.admit_frame` / :meth:`IngestGateway.
tick` directly with scripted clocks and never open a socket unless the
transport itself is under test; a direct driver commits with
:meth:`IngestGateway.sync_acks` (``tick``, ``disconnect_source`` and
``seal`` commit what is pending first).  Matches are output, not
state: the gateway takes each from its runner as it is delivered and
keeps a count; a consumer reads ``delivered.jsonl`` (:func:`~repro.core.
recovery.delivered_keys`) or what ``runner.feed`` / ``seal`` return.
"""

from __future__ import annotations

import asyncio
import json
import math
import operator
import re
import signal
import threading
import time
from collections import deque
from itertools import groupby
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.core.errors import ConfigurationError, ReproError
from repro.core.recovery import (
    ResilientRunner, decode_element, iter_wal_records, write_lines,
)
from repro.faultinject import CrashError
from repro.ingest.admission import AdmissionController
from repro.ingest.liveness import LivenessTracker, SourceStatus, Transition
from repro.ingest.schema import StreamSchema
from repro.obs import trace as stages
from repro.obs.export import render_prometheus
from repro.obs.flight import FlightRecorder
from repro.obs.httpserv import Route, TelemetryServer
from repro.obs.span import SPAN_FIELD, SourceLagPanel, SpanTracker, span_origin

PROTOCOL_VERSION = 1
#: Longest frame a connection may send before its newline; bounds the
#: per-connection line buffer against a source that never ends a line.
MAX_FRAME_BYTES = 1 << 20
JOURNAL_NAME = "gateway.jsonl"
FLIGHT_NAME = "flight.jsonl"
#: Shed-policy occupancy bounding the backpressure ladder: from
#: SOFT_PRESSURE acks carry a ``throttle`` hint, from HARD_PRESSURE frames
#: are refused with ``busy``, telling the client to wait RETRY_AFTER seconds.
SOFT_PRESSURE = 0.7
HARD_PRESSURE = 0.95
RETRY_AFTER = 0.05

#: Two objects with only a comma between them inside one line.
_TWO_OBJECTS = re.compile(rb"\}[ \t\r]*,[ \t\r]*\{")
_frame_op = operator.methodcaller("get", "op")


def decode_lines(lines: List[bytes]) -> Tuple[List[Dict[str, Any]], Optional[str]]:
    """One read's complete lines as ``(frames, why the next line is fatal)``.

    One ``json.loads`` over the lines joined as an array, kept only when
    it is the line-by-line decode: as many values as lines, all objects,
    and no line holding ``…},{…`` — then none of the array's top-level
    commas is inside a line, so each join is one and each line is one
    value.  Anything else is redone line by line: blank lines skipped,
    frames up to the first line that is not one JSON object.
    """
    body = b",\n".join(lines)
    if _TWO_OBJECTS.search(body) is None:
        try:
            frames = json.loads(b"[" + body + b"]")
        except (ValueError, RecursionError):
            frames = ()
        if len(frames) == len(lines) and set(map(type, frames)) == {dict}:
            return frames, None
    frames = []
    for raw in lines:
        raw = raw.strip()
        if not raw:
            continue
        try:
            frame = json.loads(raw)
        except (ValueError, RecursionError):  # nested too deep reads as malformed
            frame = None
        if not isinstance(frame, dict):
            return frames, "frame is not a JSON object"
        frames.append(frame)
    return frames, None


def encode_reply(reply: Dict[str, Any]) -> bytes:
    """One reply line, byte for byte ``json.dumps(reply, sort_keys=True)``;
    the plain admitted ack, nearly every line written, comes from a template."""
    n = reply.get("n")
    if (
        type(n) is int
        and len(reply) == 3
        and reply.get("status") == "admitted"
        and reply.get("op") == "ack"
    ):
        return b'{"n": %d, "op": "ack", "status": "admitted"}\n' % n
    return json.dumps(reply, sort_keys=True).encode("utf-8") + b"\n"


class GatewayConfig:
    """Tunables for one gateway instance.

    Parameters
    ----------
    schema:
        The stream's admission contract.
    host / port:
        Listen address; port 0 binds an ephemeral port (the bound port
        is on :attr:`IngestGateway.port` after start).
    dedupe_window:
        Idempotency window capacity, shared by every source.
    liveness_timeout:
        Seconds of silence before a live source is degraded; the
        liveness timer sweeps every quarter of it.
    checkpoint_every:
        Runner checkpoint interval in WAL elements; tested once per
        group commit, so a checkpoint lands on the first cohort boundary
        at or past each multiple.
    telemetry_port:
        When not None, an HTTP telemetry sidecar
        (:class:`~repro.obs.httpserv.TelemetryServer`) listens on this
        port (0 = ephemeral) sharing the gateway's event loop, serving
        ``/metrics``, ``/healthz`` and ``/sources``.
    """

    __slots__ = (
        "schema",
        "host",
        "port",
        "dedupe_window",
        "liveness_timeout",
        "checkpoint_every",
        "telemetry_port",
    )

    def __init__(
        self,
        schema: StreamSchema,
        host: str = "127.0.0.1",
        port: int = 0,
        dedupe_window: int = 4096,
        liveness_timeout: float = 2.0,
        checkpoint_every: int = 256,
        telemetry_port: Optional[int] = None,
    ):
        if not isinstance(schema, StreamSchema):
            raise ConfigurationError(f"schema must be a StreamSchema, got {schema!r}")
        if not (math.isfinite(liveness_timeout) and liveness_timeout > 0):
            raise ConfigurationError(
                f"liveness_timeout must be finite and > 0, got {liveness_timeout!r}"
            )
        if dedupe_window < 1:
            raise ConfigurationError(f"dedupe_window must be >= 1, got {dedupe_window!r}")
        if checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every!r}"
            )
        self.schema = schema
        self.host = host
        self.port = port
        self.dedupe_window = dedupe_window
        self.liveness_timeout = float(liveness_timeout)
        self.checkpoint_every = checkpoint_every
        self.telemetry_port = telemetry_port


class _DirectRunner:
    """In-memory stand-in for :class:`ResilientRunner` (durability off).

    Keeps the gateway's feeding surface uniform — ``feed`` / ``sync`` /
    ``close`` / ``take_emissions`` / ``seq`` — when no directory is
    given, at the cost of losing everything on a crash (which is exactly
    what an undurable deployment asked for).
    """

    __slots__ = ("engine", "_seq")

    def __init__(self, engine: Any):
        self.engine = engine
        self._seq = 0

    def feed(self, elements: Any) -> List[Any]:
        """One element or a ``list`` of them, as :meth:`ResilientRunner.feed`."""
        cohort = elements if isinstance(elements, list) else [elements]
        self._seq += len(cohort)
        return self.engine.feed_batch(cohort)

    def sync(self) -> None:
        pass

    def close(self) -> List[Any]:
        return self.engine.close()  # idempotent: a closed engine returns []

    def take_emissions(self) -> List[Any]:
        return self.engine.take_emissions()

    @property
    def seq(self) -> int:
        return self._seq


class IngestGateway:
    """One stream's ingestion front door: admission, liveness, durability.

    Parameters
    ----------
    make_engine:
        Zero-argument engine factory.  A factory (not an instance) so a
        recovering incarnation builds the same fresh configuration the
        runner's checkpoint restore expects.
    config:
        :class:`GatewayConfig`.
    directory:
        Durability directory for the :class:`ResilientRunner` (WAL,
        checkpoint, delivery log, gateway journal).  None runs without
        durability (tests, throwaway demos).
    fault:
        Optional :class:`~repro.faultinject.FaultInjector` handed to the
        runner — its crash points simulate the gateway process dying
        mid-ingest.
    tracer / metrics:
        Optional observability attached to the engine; the gateway adds
        its own counters (admission outcomes, busy refusals, liveness
        transitions), records ``source_degraded`` /
        ``source_recovered`` spans, and — with *metrics* attached —
        stage-latency attribution (:class:`~repro.obs.span.SpanTracker`)
        plus per-source watermark/lag/fencing gauges.
    flight:
        Optional :class:`~repro.obs.flight.FlightRecorder`: a bounded
        ring of recent trace records dumped to ``flight.jsonl`` (in the
        durability directory) on crash or SIGTERM.
    clock:
        Wall clock used by the transport layer only (injectable for
        tests); ``time.monotonic`` by default.
    """

    def __init__(
        self,
        make_engine: Callable[[], Any],
        config: GatewayConfig,
        directory: Optional[Union[str, Path]] = None,
        fault: Optional[Any] = None,
        tracer: Optional[Any] = None,
        metrics: Optional[Any] = None,
        flight: Optional[FlightRecorder] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config
        self.schema = config.schema
        self._clock = clock
        engine = make_engine()
        if tracer is not None or metrics is not None:
            engine.enable_observability(tracer=tracer, metrics=metrics)
        self.tracer = tracer
        self.registry = metrics
        if directory is not None:
            self.directory: Optional[Path] = Path(directory)
            self.runner: Any = ResilientRunner(
                engine,
                self.directory,
                checkpoint_every=config.checkpoint_every,
                fault=fault,
            )
        else:
            if fault is not None:
                raise ConfigurationError(
                    "fault injection needs a durability directory — a crash "
                    "without a WAL has nothing to recover from"
                )
            self.directory = None
            self.runner = _DirectRunner(engine)
        self.admission = AdmissionController(self.schema, window=config.dedupe_window)
        self.liveness = LivenessTracker(
            config.liveness_timeout, slack=self.schema.source_slack
        )
        # Matches delivered by this incarnation: a count, never the
        # matches — what recovery delivered is in the delivery log.
        self._matches = len(self.runner.take_emissions())
        self.recovered_frames = 0
        self._known_sources: Set[str] = set()
        if self.directory is not None and self.runner.recovered:
            # Every WAL event counts; only a window's worth is kept and hashed.
            recent: deque = deque(maxlen=config.dedupe_window)
            emitted = -1
            for record in iter_wal_records(self.directory):
                if record["kind"] == "event":
                    recent.append(record)
                    self.recovered_frames += 1
                elif record["kind"] == "punct" and record["ts"] > emitted:
                    emitted = record["ts"]
            self.admission.preload_events(map(decode_element, recent))
            # Restore watermark progress, not just dedupe state.  The
            # emitted mark resumes at the highest punctuation the WAL fed
            # downstream (post-restart punctuation stays monotone with
            # the pre-crash stream), and every journalled source is
            # re-registered floored at that mark: until it reconnects
            # and speaks — or the liveness timeout fences it — it keeps
            # holding the min-merge, so the first source back after a
            # restart cannot race punctuation past sources still backing
            # off, late-dropping their in-flight frames.
            self.liveness.watermarks.restore_state(
                {"marks": {}, "fenced": [], "emitted": emitted}
            )
            now = self._clock()
            for source in self._read_journal_sources():
                self._known_sources.add(source)
                self.liveness.connect(source, now)
            self._journal(
                "recover",
                frames=self.recovered_frames,
                watermark=emitted,
                sources=sorted(self._known_sources),
            )
        # A source mark moved and sync_acks owes the cohort a punctuation.
        # Gateway-transient, not checkpoint state: a restart rebuilds the
        # emitted mark from the WAL, where nothing is owed.
        self._advance_due = False
        # Events admitted since the last commit, in admission order; one
        # ``runner.feed`` takes them all.  Gateway-transient like the flag
        # above: none of them has been acked, so a restart owes nothing.
        self._pending: List[Any] = []
        self.busy_total = 0
        self.throttled_total = 0
        self.crashed = False
        self.closed = False
        self.terminated = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._tick_task: Optional[asyncio.Task] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._stopping = False
        self._bound_port: Optional[int] = None
        self._telemetry: Optional[TelemetryServer] = None
        # Latency attribution and the flight recorder ride on the same
        # enablement story as engine observability: None means every hot
        # path pays exactly one attribute check (priced by E22).
        self._spans: Optional[SpanTracker] = (
            SpanTracker(metrics) if metrics is not None else None
        )
        self._lag_panel: Optional[SourceLagPanel] = (
            SourceLagPanel(metrics) if metrics is not None else None
        )
        self._flight = flight
        self._last_shed = 0
        self._last_retractions = 0
        if flight is not None and isinstance(self.runner, ResilientRunner):
            # Time each group commit off the runner's own sync point so
            # the flight timeline can name a slow WAL flush directly.
            self.runner.sync_probe = (self._clock, self._note_sync_duration)
        if metrics is not None:
            self._c_admitted = metrics.counter(
                "repro_ingest_admitted_total", "frames admitted and fed"
            )
            self._c_duplicates = metrics.counter(
                "repro_ingest_duplicates_total", "redelivered frames deduped"
            )
            self._c_quarantined = metrics.counter(
                "repro_ingest_quarantined_total", "frames failing schema admission"
            )
            self._c_busy = metrics.counter(
                "repro_ingest_busy_total", "frames refused under hard backpressure"
            )
            self._c_degraded = metrics.counter(
                "repro_ingest_degraded_total", "liveness degradations"
            )
            self._c_recovered = metrics.counter(
                "repro_ingest_recovered_total", "source recoveries"
            )
            self._g_live = metrics.gauge(
                "repro_ingest_sources_live", "sources currently live"
            )
        else:
            self._c_admitted = self._c_duplicates = self._c_quarantined = None
            self._c_busy = self._c_degraded = self._c_recovered = None
            self._g_live = None

    # -- engine access ---------------------------------------------------------------

    @property
    def engine(self) -> Any:
        return self.runner.engine

    @property
    def port(self) -> int:
        if self._bound_port is None:
            raise ReproError("gateway is not listening; call start() first")
        return self._bound_port

    # -- admission core (transport-independent) ----------------------------------------

    def pressure(self) -> float:
        """Shed-policy occupancy in [0, 1+); 0.0 without a shed policy.

        State only grows at a commit, so the pending cohort counts as
        state already: conservative by at most the frames not yet fed.
        """
        shed = getattr(self.engine, "shed", None)
        if shed is None:
            return 0.0
        return shed.pressure(self.engine.state_size() + len(self._pending))

    def admit_frame(
        self,
        source: str,
        etype: Any,
        attrs: Any,
        now: Optional[float] = None,
        span: Any = None,
    ) -> Dict[str, Any]:
        """Decide one event frame; returns the ack payload.

        A one-frame :meth:`admit_cohort`.  *span* is the client-minted
        span context from the wire frame (``{"t0": <monotonic
        seconds>}``); it only feeds latency attribution and never
        changes the decision.
        """
        frame = {"etype": etype, "attrs": attrs, SPAN_FIELD: span}
        return self.admit_cohort(source, [frame], now)[0]

    def admit_cohort(
        self, source: str, frames: List[Dict[str, Any]], now: Optional[float] = None
    ) -> List[Dict[str, Any]]:
        """Decide a run of ``event`` frames from *source*; returns their ack
        payloads in frame order.

        The full admission ladder: backpressure refusal → schema
        quarantine → duplicate drop → source-mark advance + a place in
        the pending cohort.  ``admitted`` means *decided*: the event is
        neither logged, fed NOR punctuated until :meth:`sync_acks`
        commits its cohort — transports must sync before acking, and an
        injected crash surfaces from the committing call, not from here.

        What the run shares is done once — crashed test, clock read,
        journalled source, engine state size (state only grows at a
        commit, so a frame's pressure is that size plus the pending
        cohort), the liveness stamp by the first frame not refused, the
        source mark's move to the newest ``ts``, counters — and per frame
        only screen → dedupe → ``Event`` → ack.  Pressure and span
        boundaries are per frame: with a shed policy or attribution on,
        frames are decided one at a time.
        """
        if self.crashed:
            raise ReproError("gateway crashed; rebuild it to recover")
        if now is None:
            now = self._clock()
        self._remember_source(source)
        clock, spans, flight = self._clock, self._spans, self._flight
        pending = self._pending
        shed = getattr(self.engine, "shed", None)
        size = self.engine.state_size() if shed is not None else 0
        step = max(len(frames), 1) if shed is None and spans is None else 1
        acks: List[Dict[str, Any]] = []
        pressure = t_start = 0.0
        first = newest = -1  # ts (screened >= 0) of the stamping frame / the newest admitted
        stamped = False
        admitted = duplicates = quarantined = busy = 0
        for at in range(0, len(frames), step):
            chunk = frames[at:at + step]
            if spans is not None:
                t_start = clock()
            if shed is not None:
                pressure = shed.pressure(size + len(pending))
            if pressure >= HARD_PRESSURE:
                busy += 1
                if flight is not None:
                    flight.note(now, "busy", source, int(pressure * 10000))
                if spans is not None:
                    origin = span_origin(chunk[0].get(SPAN_FIELD))
                    spans.note_frame(source, "busy", t_start, clock(), origin)
                acks.append({"status": "busy", "retry_after": RETRY_AFTER,
                             "pressure": round(pressure, 4)})
                continue
            decided = self.admission.admit_cohort(
                source, [(frame.get("etype"), frame.get("attrs")) for frame in chunk]
            )
            for frame, (_, reason, event, _) in zip(chunk, decided):
                if not stamped:
                    # Activity whatever the outcome: a source sending
                    # garbage or resends is alive, not silent.
                    stamped = True
                    if event is None:
                        transition = self.liveness.connect(source, now)
                    else:
                        first = event.ts
                        transition = self.liveness.observe(source, first, now)
                    if transition is not None:
                        self._note_transition(transition)
                if event is not None:
                    if event.ts > newest:
                        newest = event.ts
                    pending.append(event)
                    admitted += 1
                    if flight is not None:
                        flight.note(now, "admit", source, value=event.ts)
                    ack: Dict[str, Any] = {"status": "admitted"}
                    if pressure >= SOFT_PRESSURE:
                        # Soft band: admit, but ask the client to slow down
                        # proportionally to how deep into the band we are.
                        depth = (pressure - SOFT_PRESSURE) / (HARD_PRESSURE - SOFT_PRESSURE)
                        ack["throttle"] = round(RETRY_AFTER * depth, 6)
                        self.throttled_total += 1
                elif reason is not None:
                    quarantined += 1
                    if flight is not None:
                        flight.note(now, "quarantine", source, detail=str(reason)[:60])
                    ack = {"status": "quarantined", "reason": reason}
                else:
                    duplicates += 1
                    if flight is not None:
                        flight.note(now, "dup", source)
                    ack = {"status": "duplicate"}
                if spans is not None:
                    spans.note_frame(
                        source, ack["status"], t_start, clock(),
                        span_origin(frame.get(SPAN_FIELD)),
                        None if event is None else event.eid,
                    )
                acks.append(ack)
        if admitted:
            self._advance_due = True
            if newest != first:
                self.liveness.observe(source, newest, now)
        self.busy_total += busy
        if self._c_admitted is not None:  # the four counters come together
            self._c_admitted.inc(admitted)
            self._c_duplicates.inc(duplicates)
            self._c_quarantined.inc(quarantined)
            self._c_busy.inc(busy)
        return acks

    def assert_watermark(
        self, source: str, ts: int, now: Optional[float] = None
    ) -> Dict[str, Any]:
        """An idle source asserted its progress; :meth:`sync_acks` punctuates."""
        if self.crashed:
            raise ReproError("gateway crashed; rebuild it to recover")
        if now is None:
            now = self._clock()
        self._remember_source(source)
        transition = self.liveness.connect(source, now)
        if transition is not None:
            self._note_transition(transition)
        self.liveness.assert_watermark(source, ts, now)
        self._advance_due = True
        return {"status": "ok", "watermark": self.liveness.merged_watermark()}

    def sync_acks(self) -> Tuple[float, float]:
        """Group commit: feed the cohort in one call, then make it durable.

        The cohort (every frame and ``watermark`` op since the last
        commit) is the unit of work all the way down: one min-merge of
        the source marks, one ``runner.feed`` — one WAL write of the
        admitted events followed by at most one punctuation, one engine
        batch, one delivery-log append, one checkpoint test — then the
        flush.  A later punctuation subsumes the earlier ones, so
        sources that honour their slack get the same matches; engine
        state is purged per cohort.  An injected crash surfaces here.

        Returns the clock before and after the cohort's feed (zeros with
        attribution off): the ``feed`` stage boundaries ``seal_cohort``
        needs, the second being where ``sync`` starts.
        """
        spans = self._spans
        t_feed = self._clock() if spans is not None else 0.0
        self._commit()
        t_flush = self._clock() if spans is not None else 0.0
        self.runner.sync()
        return t_feed, t_flush

    def connect_source(self, source: str, now: Optional[float] = None) -> None:
        """Register a (re)connecting source with liveness."""
        if now is None:
            now = self._clock()
        self._remember_source(source)
        transition = self.liveness.connect(source, now)
        if transition is not None:
            self._note_transition(transition)

    def disconnect_source(self, source: str, now: Optional[float] = None) -> None:
        """Note a departing source; the liveness timeout fences it later."""
        self._commit()
        if now is None:
            now = self._clock()
        transition = self.liveness.disconnect(source, now)
        if transition is not None:
            self._note_transition(transition)
            self._advance_due = True
            self._commit()

    def tick(self, now: Optional[float] = None) -> List[Transition]:
        """One liveness sweep: degrade silent sources, advance the merge."""
        if self.crashed or self.closed:
            return []
        self._commit()
        if now is None:
            now = self._clock()
        transitions = self.liveness.tick(now)
        for transition in transitions:
            self._note_transition(transition)
        if transitions:
            self._advance_due = True
            self._commit()
        return transitions

    def _commit(self) -> None:
        """Hand the pending cohort to the runner: the one ``runner.feed``.

        Called by :meth:`sync_acks`, and first thing by every other call
        that reads or closes the engine, so a direct driver never sees
        one that is behind what the gateway has admitted.
        """
        cohort, self._pending = self._pending, []
        advance = self._advance_due
        punctuation = None
        if advance:
            # Fed AFTER the events that moved it: a mark trails t_event by
            # slack + 1, so the punctuation never contradicts its triggers.
            self._advance_due = False
            punctuation = self.liveness.watermarks.advance()
            if punctuation is not None:
                cohort.append(punctuation)
        if cohort:
            try:
                matches = self.runner.feed(cohort)
            except CrashError:
                self._note_crash()
                raise
            self._note_delivered(matches)
        if advance:
            self._note_watermark(punctuation is not None)

    def _note_watermark(self, punctuated: bool) -> None:
        """Lag panel and flight record after a watermark advance."""
        if self._lag_panel is None and self._flight is None:
            # Unobserved gateways skip the merge entirely: min-merging
            # the source marks is the one non-trivial cost here.
            return
        merged = self.liveness.merged_watermark()
        if self._lag_panel is not None:
            self._lag_panel.update(
                self.liveness.source_marks(), self.liveness.fenced_map(), merged
            )
        if self._flight is not None and punctuated:
            now = self._clock()
            self._flight.note(now, "watermark", value=merged)
            self._note_engine_pressure(now)

    def _note_engine_pressure(self, now: float) -> None:
        """Flight records for reorder holds, sheds, and retractions.

        Read at watermark moves (the cadence at which these quantities
        change meaningfully) via getattr so plain engines — no reorder
        wrapper, no shedding, no speculation — cost nothing.
        """
        flight = self._flight
        if flight is None:
            return
        engine = self.engine
        depth_fn = getattr(engine, "buffer_size", None)
        oldest_fn = getattr(engine, "oldest_buffered_ts", None)
        if callable(depth_fn):
            depth = depth_fn()
            if depth:
                oldest = oldest_fn() if callable(oldest_fn) else None
                flight.note(
                    now, "hold", value=depth,
                    detail="" if oldest is None else str(oldest),
                )
        stats = getattr(engine, "stats", None)
        shed = getattr(stats, "events_shed", 0)
        if shed > self._last_shed:
            flight.note(now, "shed", value=shed)
            self._last_shed = shed
        # The counter, not the log: a receiver's take shrinks the log.
        retractions = getattr(stats, "retractions_issued", 0)
        if retractions > self._last_retractions:
            flight.note(now, "retraction", value=retractions)
            self._last_retractions = retractions

    def _note_transition(self, transition: Transition) -> None:
        stage = (
            stages.SOURCE_RECOVERED
            if transition.status is SourceStatus.LIVE
            else stages.SOURCE_DEGRADED
        )
        if self.tracer is not None:
            self.tracer.record(
                self.engine.arrival_index,
                stage,
                detail=f"{transition.source}:{transition.status.value}",
                stream="ingest",
            )
        if transition.status is SourceStatus.LIVE:
            if self._c_recovered is not None:
                self._c_recovered.inc()
        elif self._c_degraded is not None:
            self._c_degraded.inc()
        if self._g_live is not None:
            self._g_live.set(self.liveness.live_count())
        if self._flight is not None:
            if transition.status is SourceStatus.DEGRADED:
                self._flight.note(transition.at, "fence", transition.source)
            elif transition.status is SourceStatus.LIVE:
                self._flight.note(transition.at, "unfence", transition.source)
        if self._lag_panel is not None:
            self._lag_panel.update(
                self.liveness.source_marks(),
                self.liveness.fenced_map(),
                self.liveness.merged_watermark(),
            )
        self._journal(
            "transition",
            source=transition.source,
            status=transition.status.value,
            at=round(transition.at, 6),
            watermark=self.liveness.merged_watermark(),
        )

    def _note_crash(self) -> None:
        # On disk before the CrashError propagates: the next incarnation
        # (and the operator) reads the journal to learn this one died.
        self.crashed = True
        self._journal("crash", seq=self.runner.seq)
        if self._flight is not None:
            self._flight.note(self._clock(), "crash", value=self.runner.seq)
            self._dump_flight("crash")

    def _note_sync_duration(self, seconds: float) -> None:
        """The runner's sync probe: one group commit took *seconds*."""
        if self._flight is not None:
            self._flight.note(
                self._clock(), "sync", value=int(seconds * 1_000_000)
            )

    def _note_delivered(self, matches: List[Any]) -> None:
        """Count what the runner returned and handed on, take it, close spans."""
        if matches:
            self._matches += len(matches)
            self.runner.take_emissions()
            if self._spans is not None:
                eids = [event.eid for match in matches for event in match.events]
                self._spans.note_emitted(eids, self._clock())

    def _dump_flight(self, reason: str) -> None:
        if self._flight is None or self.directory is None:
            return
        lines = self._flight.dump_lines(
            reason, meta={"stream": self.schema.name, "seq": self.runner.seq}
        )
        # Each dump replaces the previous one: flight.jsonl is "the last
        # moments", not an append-only log, and a stacked second header
        # would corrupt the reader.
        write_lines(self.directory / FLIGHT_NAME, lines, replace=True)

    def dump_flight(self, reason: str = "manual") -> None:
        """Write the flight ring to ``flight.jsonl`` now (operator probe).

        Crash and SIGTERM paths dump on their own; this is for drills
        and debugging a live-but-suspect gateway.
        """
        self._dump_flight(reason)

    def _journal(self, kind: str, **fields: Any) -> None:
        """Append one record to ``gateway.jsonl``; on disk when this returns."""
        if self.directory is None:
            return
        record = {"kind": kind}
        record.update(fields)
        write_lines(self.directory / JOURNAL_NAME, [json.dumps(record, sort_keys=True)])

    def _remember_source(self, source: str) -> None:
        """Journal a source's first sighting so a restart re-registers it:
        the one record recovery depends on, on disk before any ack."""
        if source in self._known_sources:
            return
        self._known_sources.add(source)
        self._journal("source", source=source)

    def _read_journal_sources(self) -> List[str]:
        """Distinct journalled source ids, in first-sighting order."""
        path = self.directory / JOURNAL_NAME
        if not path.exists():
            return []
        sources: List[str] = []
        with path.open(encoding="utf-8") as journal:
            for line in journal:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # blank, or a torn trailing write: skip
                if record.get("kind") == "source" and record.get("source"):
                    if record["source"] not in sources:
                        sources.append(record["source"])
        return sources

    # -- stats / sealing ---------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Operator-facing counters, JSON-ready (the ``stats`` op body).

        Admission counters are up to the frame; ``state_size``, ``seq``
        and ``matches`` report committed state — the pending cohort is
        not in them until :meth:`sync_acks`.
        """
        return {
            "stream": self.schema.name,
            "admitted": self.admission.admitted,
            "duplicates": self.admission.duplicates,
            "quarantined": self.admission.quarantined,
            "busy": self.busy_total,
            "throttled": self.throttled_total,
            "recovered_frames": self.recovered_frames,
            "watermark": self.liveness.merged_watermark(),
            "sources": {
                source: {
                    "status": self.liveness.status_of(source).value
                    if self.liveness.status_of(source) is not None
                    else "unknown",
                    "admitted": self.admission.source_counts(source).admitted,
                    "duplicates": self.admission.source_counts(source).duplicates,
                    "quarantined": self.admission.source_counts(source).quarantined,
                }
                for source in sorted(
                    set(self.admission.sources()) | set(self.liveness.sources())
                )
            },
            "degraded_total": self.liveness.degraded_total,
            "recovered_total": self.liveness.recovered_total,
            "state_size": self.engine.state_size(),
            "seq": self.runner.seq,
            "matches": self._matches,
        }

    def seal(self) -> List[Any]:
        """Commit what is pending, then close the engine through the runner.

        Returns the matches the close itself released.
        """
        if self.crashed:
            raise ReproError("gateway crashed; rebuild it to recover")
        self._commit()
        self.closed = True
        matches = self.runner.close()
        self._note_delivered(matches)
        self._journal("seal", matches=self._matches)
        if self._flight is not None:
            self._flight.note(self._clock(), "seal", value=self._matches)
        return matches

    # -- telemetry sidecar -------------------------------------------------------------

    @property
    def telemetry_port(self) -> int:
        """The telemetry sidecar's bound port (raises when disabled)."""
        if self._telemetry is None:
            raise ReproError(
                "telemetry is disabled; pass GatewayConfig(telemetry_port=0)"
            )
        return self._telemetry.port

    def _telemetry_routes(self) -> Dict[str, Route]:
        return {
            "/metrics": self._route_metrics,
            "/healthz": self._route_healthz,
            "/sources": self._route_sources,
        }

    def _route_metrics(self) -> Tuple[int, str, str]:
        if self.registry is None:
            return 404, "text/plain", "metrics are disabled on this gateway\n"
        return 200, "text/plain; version=0.0.4", render_prometheus(self.registry)

    def _route_healthz(self) -> Tuple[int, str, str]:
        pressure = self.pressure()
        if pressure >= HARD_PRESSURE:
            band = "busy"
        elif pressure >= SOFT_PRESSURE:
            band = "throttle"
        else:
            band = "ok"
        body = {
            "status": "crashed" if self.crashed else "ok",
            "pressure": round(pressure, 4),
            "band": band,
            "dedupe_ids": self.admission.dedupe_ids,
            "live_sources": self.liveness.live_count(),
            "watermark": self.liveness.merged_watermark(),
            "seq": self.runner.seq,
        }
        status = 503 if self.crashed else 200
        return status, "application/json", json.dumps(body, sort_keys=True) + "\n"

    def _route_sources(self) -> Tuple[int, str, str]:
        marks = self.liveness.source_marks()
        fenced = self.liveness.fenced_map()
        top = max(marks.values(), default=0)
        sources: Dict[str, Any] = {}
        for source in sorted(set(self.admission.sources()) | set(marks)):
            status = self.liveness.status_of(source)
            counts = self.admission.source_counts(source)
            mark = marks.get(source, 0)
            sources[source] = {
                "status": status.value if status is not None else "unknown",
                "watermark": mark,
                "lag": max(0, top - mark),
                "fenced": bool(fenced.get(source)),
                "admitted": counts.admitted,
                "duplicates": counts.duplicates,
                "quarantined": counts.quarantined,
            }
        body = {
            "stream": self.schema.name,
            "watermark": self.liveness.merged_watermark(),
            "sources": sources,
        }
        return 200, "application/json", json.dumps(body, sort_keys=True) + "\n"

    # -- asyncio transport -------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listen socket and start the liveness timer."""
        if self.crashed:
            raise ReproError("gateway crashed; rebuild it to recover")
        self._stopping = False
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._bound_port = self._server.sockets[0].getsockname()[1]
        self._tick_task = asyncio.get_running_loop().create_task(self._tick_loop())
        if self.config.telemetry_port is not None:
            telemetry = TelemetryServer(
                self.config.host,
                self.config.telemetry_port,
                self._telemetry_routes(),
            )
            await telemetry.start()
            self._telemetry = telemetry
            self._journal("telemetry", port=telemetry.port)
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, self._on_sigterm)
        except (NotImplementedError, RuntimeError, ValueError):
            # Off-main-thread loops (GatewayHandle) and platforms without
            # signal support: SIGTERM dumps are a best-effort extra.
            pass
        self._journal("listen", host=self.config.host, port=self._bound_port)

    def _on_sigterm(self) -> None:
        """SIGTERM: dump the flight ring and let the serve loop exit."""
        self.terminated = True
        if self._flight is not None:
            self._flight.note(self._clock(), "sigterm", value=self.runner.seq)
            self._dump_flight("sigterm")

    async def stop(self, seal: bool = True) -> None:
        """Stop accepting, drop connections, optionally seal the engine.

        Shared handles are swapped out *before* the first await:
        a concurrent ``stop`` or a tick-loop crash interleaving at an
        await point sees the already-cleared attribute instead of
        double-closing, and nothing decided before a suspension is
        written back after one.  A connection whose handler starts
        after this point hangs up without registering.  Connections
        close before ``server.wait_closed()``, which from Python 3.12.1
        waits for every one of them.
        """
        self._stopping = True
        task, self._tick_task = self._tick_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        server, self._server = self._server, None
        if server is not None:
            server.close()
        writers, self._writers = list(self._writers), set()
        for writer in writers:
            writer.close()
        if server is not None:
            await server.wait_closed()
        telemetry, self._telemetry = self._telemetry, None
        if telemetry is not None:
            await telemetry.stop()
        for writer in writers:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # peer already gone; the transport is torn either way
        if seal and not self.crashed and not self.closed:
            self.seal()
        elif self.directory is not None:
            # Unsealed: the logs stay for a restart, their file handles go.
            self.runner.__exit__(None, None, None)

    async def _tick_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.liveness_timeout / 4.0)
            try:
                self.tick(self._clock())
            except CrashError:
                self._abort_crashed()
                return

    def _abort_crashed(self) -> None:
        # Simulated process death: every connection is torn, nothing is
        # acked, the listener stops.  Clients reconnect to the next
        # incarnation and resend; the WAL-preloaded window dedupes.
        task, self._tick_task = self._tick_task, None
        if task is not None:
            task.cancel()
        server, self._server = self._server, None
        if server is not None:
            server.close()
        telemetry, self._telemetry = self._telemetry, None
        if telemetry is not None:
            telemetry.abort()
        for writer in list(self._writers):
            writer.transport.abort()
        self._writers.clear()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._stopping:
            # Accepted just before stop() closed the listener.
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            return
        self._writers.add(writer)
        source: Optional[str] = None
        buffer = b""
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk or self._stopping:
                    break  # nothing read after stop() began is admitted
                spans = self._spans
                if spans is not None:
                    spans.open_cohort(self._clock())
                buffer += chunk
                lines = buffer.split(b"\n")
                buffer = lines.pop()
                frames, undecodable = decode_lines(lines)
                replies: List[Dict[str, Any]] = []
                goodbye = False
                fatal: Optional[str] = None  # why the connection must close
                # A run of event frames is one admit_cohort; any other op
                # ends the run first, so replies stay in frame order.
                for op, run in groupby(frames, _frame_op):
                    if op == "event" and source is not None:
                        events = list(run)
                        acks = self.admit_cohort(source, events)
                        for frame, ack in zip(events, acks):
                            ack["op"] = "ack"
                            ack["n"] = frame.get("n")
                        replies += acks
                        continue
                    for frame in run:
                        if source is None:
                            if op != "hello":
                                fatal = "first frame must be hello"
                                break
                            reply, source = self._handle_hello(frame)
                            replies.append(reply)
                            if source is None:
                                goodbye = True
                                break
                        elif op == "watermark":
                            try:
                                ts = int(frame.get("ts", 0))
                            except (TypeError, ValueError, OverflowError):
                                fatal = "watermark ts must be an int"
                                break
                            ack = self.assert_watermark(source, ts)
                            ack["op"] = "ack"
                            ack["n"] = frame.get("n")
                            replies.append(ack)
                        elif op == "stats":
                            replies.append({"op": "stats_ok", "stats": self.stats()})
                        elif op == "bye":
                            replies.append({"op": "bye_ok"})
                            goodbye = True
                            break
                        else:
                            replies.append(
                                {"op": "error", "reason": f"unknown op {op!r}"}
                            )
                    if goodbye or fatal is not None:
                        break
                else:  # every decoded frame handled: now the line that was not one
                    fatal = undecodable
                if fatal is None and len(buffer) > MAX_FRAME_BYTES:
                    fatal = f"frame exceeds {MAX_FRAME_BYTES} bytes"
                if fatal is not None:
                    # What the cohort fed before it is still committed
                    # and acked below; then the connection closes.
                    replies.append({"op": "error", "reason": fatal})
                    goodbye = True
                if self._advance_due:
                    # The group commit, owed by any admitted frame or
                    # watermark op above: nothing is logged, fed,
                    # punctuated or acked until this returns.
                    t_feed, t_sync_start = self.sync_acks()
                else:
                    t_feed = t_sync_start = (
                        self._clock() if spans is not None else 0.0
                    )
                t_sync_end = self._clock() if spans is not None else 0.0
                if replies:
                    writer.write(b"".join(map(encode_reply, replies)))
                    await writer.drain()
                if spans is not None:
                    spans.seal_cohort(
                        t_feed, t_sync_start, t_sync_end, self._clock()
                    )
                if goodbye:
                    break
        except CrashError:
            if self._spans is not None:
                self._spans.drop_cohort()
            self._abort_crashed()
            return
        except ReproError:
            # Another connection crashed the gateway mid-batch; this
            # handler's socket is already aborted.  Fall through.
            pass
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        finally:
            self._writers.discard(writer)
            # A hang-up that stop() caused is not a source departing, and
            # a commit after stop() would write past the runner's release.
            if source is not None and not self.crashed and not self._stopping:
                self.disconnect_source(source)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # peer reset or transport aborted mid-teardown

    def _handle_hello(self, frame: Dict[str, Any]) -> Any:
        source = frame.get("source")
        stream = frame.get("stream")
        proto = frame.get("proto")
        if not isinstance(source, str) or not source:
            return {"op": "error", "reason": "hello needs a source id"}, None
        if proto != PROTOCOL_VERSION:
            return (
                {
                    "op": "error",
                    "reason": f"protocol {proto!r} unsupported (speak "
                    f"{PROTOCOL_VERSION})",
                },
                None,
            )
        if stream != self.schema.name:
            return (
                {
                    "op": "error",
                    "reason": f"stream {stream!r} not served here "
                    f"(serving {self.schema.name!r})",
                },
                None,
            )
        self.connect_source(source)
        return (
            {
                "op": "hello_ok",
                "stream": self.schema.name,
                "proto": PROTOCOL_VERSION,
                "recovered_frames": self.recovered_frames,
            },
            source,
        )


class GatewayHandle:
    """A gateway event loop running in a daemon thread (sync callers).

    The CLI's ``repro send``, the examples, and the soak tests are
    synchronous; this wraps the asyncio transport so they can start a
    gateway, read its bound port, and stop it without touching a loop.
    """

    def __init__(self, gateway: IngestGateway):
        self.gateway = gateway
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._error: Optional[BaseException] = None

    def start(self, timeout: float = 10.0) -> "GatewayHandle":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout):
            raise ReproError("gateway failed to start listening in time")
        if self._error is not None:
            raise ReproError(f"gateway failed to start: {self._error}")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.gateway.start())
        except BaseException as exc:  # startup failure surfaces to start()
            self._error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    @property
    def port(self) -> int:
        return self.gateway.port

    def stop(self, seal: bool = True, timeout: float = 10.0) -> None:
        loop = self._loop
        if loop is None or not loop.is_running():
            if self._thread is not None:
                self._thread.join(timeout)
            return
        future = asyncio.run_coroutine_threadsafe(self.gateway.stop(seal=seal), loop)
        try:
            future.result(timeout)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            if self._thread is not None:
                self._thread.join(timeout)


def serve_in_thread(gateway: IngestGateway) -> GatewayHandle:
    """Start *gateway* in a background thread; returns the handle."""
    return GatewayHandle(gateway).start()
