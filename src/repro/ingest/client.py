"""A retrying, at-least-once ingestion client for the gateway protocol.

:class:`IngestClient` speaks the newline-JSON protocol of
:class:`repro.ingest.server.IngestGateway` over a blocking socket and
owns the *client half* of the exactly-once contract:

* every event frame gets a client-local sequence number ``n`` and stays
  in a **bounded in-flight window** until the matching ack arrives —
  :meth:`send` blocks (draining acks) once the window is full, so a
  slow or refusing server backpressures the producer instead of growing
  an unbounded queue;
* a torn connection, timeout, or refused connect triggers reconnect
  under the shared :class:`~repro.ingest.backoff.BackoffPolicy`
  (exponential, capped, deterministically jittered), after which every
  unacked frame is **resent in order** — delivery becomes
  at-least-once, which is exactly what the gateway's idempotent
  admission is for;
* ``busy`` refusals honour the server's ``retry_after`` and acked
  ``throttle`` hints slow the send loop — the client is a good citizen
  of the gateway's backpressure ladder.

Failure drills are built in: a :class:`ClientFaultPlan` tears the
connection at chosen frames (before send: clean loss; after send:
the ack-lost shape that *produces* duplicates at the server) or sends
chosen frames twice, so tests script the exact at-least-once anomalies
admission must absorb.  ``sleep`` is injectable; with a scripted clock
and a fault plan the client's behaviour is fully deterministic.
"""

from __future__ import annotations

import json
import math
import socket
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError, ReproError
from repro.ingest.backoff import BackoffPolicy

from repro.ingest.server import PROTOCOL_VERSION
from repro.obs.span import SPAN_FIELD, mint_span


class ClientFaultPlan:
    """Scripted client-side failures, by 0-based event-frame index.

    Parameters
    ----------
    torn_before_send:
        Frames whose first transmission is preceded by tearing the
        connection (the frame is never sent on the old socket; the
        reconnect resends it — no duplicate reaches the server).
    torn_after_send:
        Frames transmitted and then immediately torn before reading the
        ack — the lost-ack shape: the server admitted the frame, the
        client must resend, the gateway must dedupe.
    duplicate_send:
        Frames transmitted twice back-to-back on a healthy connection
        (a confused producer rather than a torn one).

    Each index fires once.
    """

    __slots__ = ("torn_before_send", "torn_after_send", "duplicate_send")

    def __init__(
        self,
        torn_before_send: Any = (),
        torn_after_send: Any = (),
        duplicate_send: Any = (),
    ):
        self.torn_before_send = set(torn_before_send)
        self.torn_after_send = set(torn_after_send)
        self.duplicate_send = set(duplicate_send)


class SendReport:
    """What one client observed: outcome counts and admission latencies."""

    __slots__ = (
        "sent",
        "admitted",
        "duplicates",
        "quarantined",
        "busy_retries",
        "reconnects",
        "resends",
        "throttles",
        "latencies",
    )

    def __init__(self) -> None:
        self.sent = 0  #: distinct event frames handed to send()
        self.admitted = 0
        self.duplicates = 0
        self.quarantined = 0
        self.busy_retries = 0
        self.reconnects = 0
        self.resends = 0  #: retransmissions (any cause)
        self.throttles = 0  #: acks carrying a throttle hint
        self.latencies: List[float] = []  #: seconds, last-transmit -> ack

    def latency_quantile(self, q: float) -> float:
        """The q-quantile (0..1] of observed admission latencies."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        index = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.999999) - 1))
        return ordered[index]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "sent": self.sent,
            "admitted": self.admitted,
            "duplicates": self.duplicates,
            "quarantined": self.quarantined,
            "busy_retries": self.busy_retries,
            "reconnects": self.reconnects,
            "resends": self.resends,
            "throttles": self.throttles,
            "p50_latency": self.latency_quantile(0.50),
            "p99_latency": self.latency_quantile(0.99),
        }

    def __repr__(self) -> str:
        return (
            f"SendReport(sent={self.sent}, admitted={self.admitted}, "
            f"duplicates={self.duplicates}, quarantined={self.quarantined}, "
            f"reconnects={self.reconnects}, resends={self.resends})"
        )


class _Pending:
    """One unacked frame: wire payload plus bookkeeping."""

    __slots__ = ("frame", "index", "sent_at", "busy_attempts")

    def __init__(self, frame: Dict[str, Any], index: int):
        self.frame = frame
        self.index = index  #: event-frame index (fault-plan coordinate)
        self.sent_at = 0.0
        self.busy_attempts = 0


class IngestClient:
    """Blocking gateway client with retries, resends and a bounded window.

    Parameters
    ----------
    host / port:
        Gateway address.
    source:
        This client's source id (one client per source).
    stream:
        Stream name; must match the gateway schema's.
    timeout:
        Socket timeout for connects and ack reads.
    backoff:
        Reconnect schedule; default policy reseeded with a hash of the
        source id, so a fleet of clients spreads its retry storms.
    window:
        Maximum unacked frames in flight; :meth:`send` blocks past it.
    sleep / clock:
        Injectable time (tests script both).
    fault_plan:
        Optional :class:`ClientFaultPlan`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        source: str,
        stream: str,
        timeout: float = 5.0,
        backoff: Optional[BackoffPolicy] = None,
        window: int = 32,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        fault_plan: Optional[ClientFaultPlan] = None,
    ):
        if not isinstance(source, str) or not source:
            raise ConfigurationError(f"source must be a non-empty string, got {source!r}")
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window!r}")
        if not (math.isfinite(timeout) and timeout > 0):
            raise ConfigurationError(f"timeout must be finite and > 0, got {timeout!r}")
        self.host = host
        self.port = port
        self.source = source
        self.stream = stream
        self.timeout = float(timeout)
        if backoff is None:
            seed = sum(source.encode("utf-8")) + len(source)
            backoff = BackoffPolicy(base=0.02, cap=1.0, retries=10).reseeded(seed)
        self.backoff = backoff
        self.window = window
        self._sleep = sleep
        self._clock = clock
        self.fault_plan = fault_plan
        self.report = SendReport()
        self._sock: Optional[socket.socket] = None
        self._recv_buffer = b""
        self._next_n = 0
        self._frame_index = 0  #: event frames only (fault-plan coordinate)
        self._pending: Dict[int, _Pending] = {}  #: n -> frame, insertion-ordered
        self.server_recovered_frames = 0

    # -- connection -------------------------------------------------------------------

    def connect(self) -> None:
        """Connect and handshake, retrying under the backoff policy."""
        attempt = 0
        while True:
            try:
                self._connect_once()
                return
            except (ConnectionError, OSError, socket.timeout):
                self._drop_socket()
                if attempt >= self.backoff.retries:
                    raise
                self._sleep(self.backoff.delay(attempt))
                attempt += 1
                self.report.reconnects += 1

    def _connect_once(self) -> None:
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.settimeout(self.timeout)
        self._sock = sock
        self._recv_buffer = b""
        self._write_line(
            {
                "op": "hello",
                "source": self.source,
                "stream": self.stream,
                "proto": PROTOCOL_VERSION,
            }
        )
        reply = self._read_frame()
        if reply.get("op") != "hello_ok":
            reason = reply.get("reason", "no reason given")
            self._drop_socket()
            raise ReproError(f"gateway refused hello: {reason}")
        self.server_recovered_frames = int(reply.get("recovered_frames", 0))

    def _drop_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._recv_buffer = b""

    def _reconnect_and_resend(self) -> None:
        """Reconnect, then retransmit every unacked frame in order."""
        self._drop_socket()
        self.report.reconnects += 1
        attempt = 0
        while True:
            self._sleep(self.backoff.delay(attempt))
            try:
                self._connect_once()
                break
            except (ConnectionError, OSError, socket.timeout, ReproError):
                self._drop_socket()
                attempt += 1
                if attempt > self.backoff.retries:
                    raise
        for n in sorted(self._pending):
            self._transmit(self._pending[n], resend=True)

    # -- sending ----------------------------------------------------------------------

    def send(self, etype: str, attrs: Dict[str, Any]) -> int:
        """Queue one event frame; returns its sequence number ``n``.

        Blocks (draining acks) while the in-flight window is full, so
        total client-side buffering is bounded by *window* frames.
        """
        if self._sock is None:
            self.connect()
        n = self._next_n
        self._next_n += 1
        pending = _Pending(
            {"op": "event", "n": n, "etype": etype, "attrs": attrs},
            self._frame_index,
        )
        self._frame_index += 1
        self._pending[n] = pending
        self.report.sent += 1
        self._transmit(pending)
        while len(self._pending) >= self.window:
            self._drain_one()
        return n

    def watermark(self, ts: int) -> int:
        """Assert this source's progress while idle; acked like an event."""
        if self._sock is None:
            self.connect()
        n = self._next_n
        self._next_n += 1
        pending = _Pending({"op": "watermark", "n": n, "ts": ts}, -1)
        self._pending[n] = pending
        self._transmit(pending)
        return n

    def flush(self) -> None:
        """Block until every queued frame is acked."""
        while self._pending:
            self._drain_one()

    def stats(self) -> Dict[str, Any]:
        """Fetch the gateway's operator counters (flushes first)."""
        self.flush()
        self._write_line({"op": "stats"})
        while True:
            reply = self._read_frame()
            if reply.get("op") == "stats_ok":
                return reply["stats"]

    def close(self) -> SendReport:
        """Flush, say goodbye, and return the accumulated report."""
        if self._sock is not None:
            self.flush()
            try:
                self._write_line({"op": "bye"})
                self._read_frame()  # bye_ok (best effort)
            except (ConnectionError, OSError, socket.timeout, ReproError):
                pass
            self._drop_socket()
        return self.report

    # -- the wire ---------------------------------------------------------------------

    def _transmit(self, pending: _Pending, resend: bool = False) -> None:
        plan = self.fault_plan
        if plan is not None and pending.index in plan.torn_before_send:
            plan.torn_before_send.discard(pending.index)
            self._reconnect_and_resend()
            # The reconnect resent every pending frame, this one included.
            return
        if resend:
            self.report.resends += 1
        pending.sent_at = self._clock()
        if pending.frame.get("op") == "event":
            # Span context rides the wire: re-stamped on every
            # (re)transmission so the gateway's transit stage measures
            # the delivery that actually arrived, not the first try.
            pending.frame[SPAN_FIELD] = mint_span(pending.sent_at)
        try:
            self._write_line(pending.frame)
        except (ConnectionError, OSError, socket.timeout):
            self._reconnect_and_resend()
            return
        if plan is not None and pending.index in plan.duplicate_send:
            plan.duplicate_send.discard(pending.index)
            self.report.resends += 1
            try:
                self._write_line(pending.frame)
            except (ConnectionError, OSError, socket.timeout):
                self._reconnect_and_resend()
                return
        if plan is not None and pending.index in plan.torn_after_send:
            plan.torn_after_send.discard(pending.index)
            # The frame is on the wire (and may be admitted); losing the
            # connection here loses the ack — the duplicate-producing shape.
            self._reconnect_and_resend()

    def _drain_one(self) -> None:
        """Consume server frames until one pending frame resolves."""
        while self._pending:
            try:
                reply = self._read_frame()
            except (ConnectionError, OSError, socket.timeout, ReproError):
                self._reconnect_and_resend()
                continue
            op = reply.get("op")
            if op == "ack":
                if self._apply_ack(reply):
                    return
                continue
            if op == "error":
                raise ReproError(f"gateway error: {reply.get('reason')}")
            # stats_ok / bye_ok out of band: ignore while draining.

    def _apply_ack(self, reply: Dict[str, Any]) -> bool:
        """Resolve one ack; True when a pending frame left the window."""
        n = reply.get("n")
        pending = self._pending.get(n)
        if pending is None:
            return False  # duplicate ack (our own duplicate_send echo)
        status = reply.get("status")
        if status == "busy":
            pending.busy_attempts += 1
            self.report.busy_retries += 1
            if pending.busy_attempts > self.backoff.retries:
                raise ReproError(
                    f"frame {n} refused {pending.busy_attempts} times; giving up"
                )
            self._sleep(float(reply.get("retry_after", 0.05)))
            self._transmit(pending, resend=True)
            return False
        del self._pending[n]
        self.report.latencies.append(max(0.0, self._clock() - pending.sent_at))
        if status == "admitted":
            self.report.admitted += 1
        elif status == "duplicate":
            self.report.duplicates += 1
        elif status == "quarantined":
            self.report.quarantined += 1
        throttle = reply.get("throttle")
        if throttle:
            self.report.throttles += 1
            self._sleep(float(throttle))
        return True

    def _write_line(self, frame: Dict[str, Any]) -> None:
        if self._sock is None:
            raise ConnectionError("not connected")
        data = json.dumps(frame, sort_keys=True).encode("utf-8") + b"\n"
        self._sock.sendall(data)

    def _read_frame(self) -> Dict[str, Any]:
        while b"\n" not in self._recv_buffer:
            if self._sock is None:
                raise ConnectionError("not connected")
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("gateway closed the connection")
            self._recv_buffer += chunk
        line, self._recv_buffer = self._recv_buffer.split(b"\n", 1)
        try:
            return json.loads(line)
        except ValueError:
            raise ReproError(f"gateway sent a non-JSON frame: {line[:80]!r}") from None


def send_events(
    host: str,
    port: int,
    source: str,
    stream: str,
    frames: List[Tuple[str, Dict[str, Any]]],
    **kwargs: Any,
) -> SendReport:
    """Convenience: connect, send every (etype, attrs) frame, close."""
    client = IngestClient(host, port, source, stream, **kwargs)
    client.connect()
    for etype, attrs in frames:
        client.send(etype, attrs)
    return client.close()
