"""The load generator: one thread, one loop, one connection per source.

Frames leave in the plan's global order and nothing else: when the next
frame's source already has ``window`` frames unacked, *all* sending
stalls until an ack frees it.  That keeps the skew between sources at the
gateway bounded by the window (free-racing client threads lost 62 of
19 990 matches in a scratch run, which would make ``failed_share``
noise) and is what :func:`inputs.engine_k` sizes K from.

Closed loop (``plan.due`` empty): a frame is sent as soon as the window
allows.  Open loop: a frame is sent when its due time arrives; one that
cannot be sent when due is still timed from its due time, and how late
the generator itself ran is reported as scheduling lag.
"""

from __future__ import annotations

import gc
import json
import selectors
import socket
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from inputs import FramePlan, hello_line

clock = time.monotonic


class DriveResult:
    """What the generator saw: per-frame stamps and ack statuses."""

    __slots__ = ("origin", "sent_at", "acked_at", "status", "started", "ended",
                 "backlog_end", "bad_acks")

    def __init__(self, frames: int):
        self.origin: List[float] = [0.0] * frames  # due time (open) / send time (closed)
        self.sent_at: List[float] = [0.0] * frames
        self.acked_at: List[float] = [0.0] * frames
        self.status: List[Optional[str]] = [None] * frames
        self.started = 0.0
        self.ended = 0.0
        self.backlog_end = 0  # open loop: frames due but unsent when the schedule ended
        self.bad_acks = 0  # acks out of order or not acks at all


class Connections:
    """Both sources' sockets, registered (hello / hello_ok) before streaming."""

    def __init__(self, port: int, sources: int = 2, timeout: float = 60.0):
        self.socks: List[socket.socket] = []
        self.buffers: List[bytes] = []
        self.selector = selectors.DefaultSelector()
        self.hello: List[Dict[str, Any]] = []
        for source in range(sources):
            sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.socks.append(sock)
            self.buffers.append(b"")
        # Every source says hello before any frame flows: from its hello on,
        # the gateway counts a source in the watermark min-merge.
        for source, sock in enumerate(self.socks):
            sock.sendall(hello_line(source))
        for source, sock in enumerate(self.socks):
            reply = json.loads(self._read_line(source))
            if reply.get("op") != "hello_ok":
                raise RuntimeError(f"source {source} refused: {reply}")
            self.hello.append(reply)
            self.selector.register(sock, selectors.EVENT_READ, source)

    def _read_line(self, source: int) -> bytes:
        while b"\n" not in self.buffers[source]:
            chunk = self.socks[source].recv(65536)
            if not chunk:
                raise ConnectionError("gateway closed the connection")
            self.buffers[source] += chunk
        line, _, rest = self.buffers[source].partition(b"\n")
        self.buffers[source] = rest
        return line

    def read_lines(self, source: int) -> List[bytes]:
        """Whatever complete lines are readable on *source* right now."""
        chunk = self.socks[source].recv(262144)
        if not chunk:
            raise ConnectionError("gateway closed the connection")
        lines = (self.buffers[source] + chunk).split(b"\n")
        self.buffers[source] = lines.pop()
        return lines

    def close(self) -> None:
        """Say bye on every connection and wait for the gateway's bye_ok."""
        for source, sock in enumerate(self.socks):
            try:
                sock.sendall(b'{"op": "bye"}\n')
                self._read_line(source)
            except (OSError, ConnectionError):
                pass
        self.abandon()

    def abandon(self) -> None:
        """Drop the sockets without a goodbye (the gateway is being killed)."""
        self.selector.close()
        for sock in self.socks:
            sock.close()


def drive(conns: Connections, plan: FramePlan, window: int) -> DriveResult:
    """Send every frame of *plan* and collect every ack.

    The collector is off while frames flow: this process holds the whole
    plan and reference, a full collection over them takes tens of
    milliseconds, and a generator that pauses is a generator that lies
    about the schedule.  The loop allocates no cycles.
    """
    gc.collect()
    gc.disable()
    try:
        return _drive(conns, plan, window)
    finally:
        gc.enable()


def _drive(conns: Connections, plan: FramePlan, window: int) -> DriveResult:
    frames = len(plan)
    result = DriveResult(frames)
    source_of, lines, due, seq = plan.source, plan.line, plan.due, plan.seq
    paced = bool(due)
    unacked: Tuple[Deque[int], ...] = tuple(deque() for _ in conns.socks)
    outgoing: List[List[bytes]] = [[] for _ in conns.socks]
    origin, sent_at, acked_at, status = (
        result.origin, result.sent_at, result.acked_at, result.status
    )
    select = conns.selector.select
    next_frame = 0
    acked = 0
    start = clock()
    result.started = start
    schedule_end = start + due[-1] if paced else 0.0
    backlog_seen = False
    while acked < frames:
        now = clock()
        batch_start = next_frame
        while next_frame < frames:
            source = source_of[next_frame]
            if paced and start + due[next_frame] > now:
                break
            if len(unacked[source]) >= window:
                break
            outgoing[source].append(lines[next_frame])
            unacked[source].append(next_frame)
            next_frame += 1
        if next_frame > batch_start:
            for source, pending in enumerate(outgoing):
                if pending:
                    conns.socks[source].sendall(b"".join(pending))
                    pending.clear()
            stamp = clock()
            for index in range(batch_start, next_frame):
                sent_at[index] = stamp
                origin[index] = start + due[index] if paced else stamp
        if paced and not backlog_seen and now >= schedule_end:
            backlog_seen = True
            result.backlog_end = frames - next_frame
        timeout: Optional[float] = None
        if paced and next_frame < frames:
            blocked = len(unacked[source_of[next_frame]]) >= window
            if not blocked:
                timeout = max(0.0, start + due[next_frame] - clock())
        for key, _ in select(timeout):
            source = key.data
            arrived = clock()
            for raw in conns.read_lines(source):
                reply = json.loads(raw)
                index = unacked[source].popleft()
                if reply.get("op") != "ack" or reply.get("n") != seq[index]:
                    result.bad_acks += 1
                acked_at[index] = arrived
                status[index] = reply.get("status")
                acked += 1
    result.ended = clock()
    return result
