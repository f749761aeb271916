"""Socket-level drills: oracle parity, scripted client faults, crash-anywhere.

Everything here runs a real asyncio gateway in a background thread and
drives it with the blocking client over TCP on the loopback interface.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro import OutOfOrderEngine, parse
from repro.core.recovery import read_wal_elements
from repro.faultinject import FaultInjector
from repro.ingest import (
    ClientFaultPlan,
    GatewayConfig,
    IngestClient,
    IngestGateway,
    send_events,
    serve_in_thread,
)
from repro.ingest.server import MAX_FRAME_BYTES

from helpers import MatchTap, delivered_once, delivery_log
from ingest_helpers import make_schema


QUERY = "PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 20"


def build_gateway(directory=None, port=0, fault=None):
    config = GatewayConfig(
        make_schema(slack=2),
        port=port,
        liveness_timeout=30.0,  # no surprise degradations on a slow CI box
    )
    pattern = parse(QUERY)
    return IngestGateway(
        lambda: OutOfOrderEngine(pattern, k=4),
        config,
        directory=directory,
        fault=fault,
    )


def frames_for(pairs: int):
    frames = []
    for i in range(pairs):
        frames.append(("A", {"ts": 2 * i, "x": i % 3}))
        frames.append(("B", {"ts": 2 * i + 1, "x": i % 3}))
    return frames


def inprocess_result_keys(frames, source="s1"):
    """The uninterrupted baseline: same frames, no sockets, no faults."""
    gateway = build_gateway()
    tap = MatchTap(gateway)  # a memory gateway has no delivery log to read
    for index, (etype, attrs) in enumerate(frames):
        ack = gateway.admit_frame(source, etype, attrs, now=float(index))
        assert ack["status"] == "admitted"
    gateway.seal()
    assert gateway.stats()["matches"] == len(tap.matches)
    return {match.key() for match in tap.matches}


# -- clean path -------------------------------------------------------------------------


def test_socket_roundtrip_equals_inprocess_run(tmp_path):
    frames = frames_for(15)
    gateway = build_gateway(tmp_path)
    handle = serve_in_thread(gateway)
    try:
        report = send_events("127.0.0.1", handle.port, "s1", "orders", frames)
    finally:
        handle.stop(seal=True)
    assert report.admitted == len(frames)
    assert report.duplicates == report.quarantined == 0
    assert delivered_once(tmp_path) == inprocess_result_keys(frames)


def test_two_sources_interleaved_lockstep(tmp_path):
    """window=1 makes each send wait for its ack, so the interleaving —
    and therefore the punctuation stream — is fully deterministic."""
    frames = frames_for(10)
    gateway = build_gateway(tmp_path)
    handle = serve_in_thread(gateway)
    try:
        clients = [
            IngestClient("127.0.0.1", handle.port, name, "orders", window=1)
            for name in ("s1", "s2")
        ]
        for client in clients:
            client.connect()
        for etype, attrs in frames:
            for client in clients:
                client.send(etype, dict(attrs))
        reports = [client.close() for client in clients]
    finally:
        handle.stop(seal=True)
    # s1 sends each frame first; the id names no source, so s2's copy of
    # it is a duplicate and the fact is fed once.
    assert [(r.admitted, r.duplicates) for r in reports] == [
        (len(frames), 0),
        (0, len(frames)),
    ]
    assert gateway.admission.source_counts("s2").duplicates == len(frames)
    baseline = inprocess_result_keys(frames)
    assert delivered_once(tmp_path) == baseline


def test_quarantined_frame_is_acked_not_fatal(tmp_path):
    gateway = build_gateway(tmp_path)
    handle = serve_in_thread(gateway)
    try:
        client = IngestClient("127.0.0.1", handle.port, "s1", "orders")
        client.connect()
        client.send("A", {"ts": 1, "x": 7})
        client.send("A", {"x": 7})  # missing t_event field
        client.send("B", {"ts": 3, "x": 7})
        report = client.close()
    finally:
        handle.stop(seal=True)
    assert report.admitted == 2 and report.quarantined == 1
    assert gateway.admission.quarantined == 1
    assert len(delivered_once(tmp_path)) == gateway.stats()["matches"] == 1


def test_wrong_stream_is_refused_at_hello(tmp_path):
    gateway = build_gateway(tmp_path)
    handle = serve_in_thread(gateway)
    try:
        client = IngestClient(
            "127.0.0.1", handle.port, "s1", "checkouts", timeout=2.0
        )
        from repro.core.errors import ReproError

        with pytest.raises((ReproError, ConnectionError, OSError)):
            client.connect()
    finally:
        handle.stop(seal=True)


# -- scripted client faults --------------------------------------------------------------


def test_lost_ack_and_duplicate_send_are_absorbed(tmp_path):
    """torn_after_send loses acks (server admitted, client must resend);
    duplicate_send double-transmits.  Admission absorbs both: the engine
    sees every frame exactly once."""
    frames = frames_for(10)
    plan = ClientFaultPlan(torn_after_send=[3], duplicate_send=[7, 12])
    gateway = build_gateway(tmp_path)
    handle = serve_in_thread(gateway)
    try:
        report = send_events(
            "127.0.0.1", handle.port, "s1", "orders", frames, fault_plan=plan
        )
    finally:
        handle.stop(seal=True)
    assert report.reconnects >= 1
    assert report.resends >= 3  # the torn batch + two scripted duplicates
    assert report.admitted + report.duplicates == len(frames)
    # Server-side: every distinct frame admitted once, extras deduped.
    assert gateway.admission.admitted == len(frames)
    assert gateway.admission.duplicates >= 2
    assert delivered_once(tmp_path) == inprocess_result_keys(frames)


def test_torn_before_send_is_a_clean_resend(tmp_path):
    frames = frames_for(6)
    plan = ClientFaultPlan(torn_before_send=[4])
    gateway = build_gateway(tmp_path)
    handle = serve_in_thread(gateway)
    try:
        report = send_events(
            "127.0.0.1", handle.port, "s1", "orders", frames, fault_plan=plan
        )
    finally:
        handle.stop(seal=True)
    assert report.reconnects >= 1
    assert report.admitted + report.duplicates == len(frames)
    assert gateway.admission.admitted == len(frames)
    assert delivered_once(tmp_path) == inprocess_result_keys(frames)


# -- crash-anywhere ---------------------------------------------------------------------


def run_crash_scenario(tmp_path, crash_at, frames):
    """Crash the gateway at WAL element *crash_at* mid-ingest, restart it
    on the same port, and let the client ride through.  Returns (client
    report, recovered gateway)."""
    first = build_gateway(tmp_path, fault=FaultInjector(crash_at=[crash_at]))
    handle = serve_in_thread(first)
    port = handle.port
    restarted = {}

    def restart():
        while not first.crashed:
            time.sleep(0.005)
        handle.stop(seal=False)
        second = build_gateway(tmp_path, port=port)
        restarted["gateway"] = second
        restarted["handle"] = serve_in_thread(second)

    watchdog = threading.Thread(target=restart, daemon=True)
    watchdog.start()
    try:
        report = send_events("127.0.0.1", port, "s1", "orders", frames, window=4)
    finally:
        watchdog.join(timeout=10.0)
        if "handle" in restarted:
            restarted["handle"].stop(seal=True)
        else:
            handle.stop(seal=False)
    assert not watchdog.is_alive(), "gateway never crashed — crash point unused"
    return report, first, restarted["gateway"]


@pytest.mark.parametrize("crash_at", [1, 4, 9, 17])
def test_crash_anywhere_is_exactly_once(tmp_path, crash_at):
    """The property the whole PR hangs on: wherever the crash lands, the
    client's resends plus WAL replay yield exactly-once admission and a
    sealed result set identical to the uninterrupted run."""
    frames = frames_for(12)
    report, crashed, recovered = run_crash_scenario(tmp_path, crash_at, frames)

    # Client accounting: every frame resolved, by ack or by dedupe.
    assert report.reconnects >= 1
    assert report.admitted + report.duplicates == len(frames)
    # Server accounting: WAL replay + post-recovery admissions cover each
    # distinct frame exactly once (duplicates were absorbed, not fed).
    assert recovered.recovered_frames + recovered.admission.admitted == len(frames)
    # Delivery accounting: the delivery log is the one record across
    # incarnations (it suppresses replayed matches a predecessor already
    # delivered), so the exactly-once statement is about it: every match
    # of the uninterrupted run is in it once, none twice, and the two
    # incarnations' counts add up to it.
    delivered = delivery_log(tmp_path)
    assert len(delivered) == len(set(delivered))
    assert set(delivered) == inprocess_result_keys(frames)
    assert crashed.stats()["matches"] + recovered.stats()["matches"] == len(delivered)


def test_recovered_gateway_reports_replay_in_hello(tmp_path):
    frames = frames_for(4)
    gateway = build_gateway(tmp_path)
    handle = serve_in_thread(gateway)
    try:
        send_events("127.0.0.1", handle.port, "s1", "orders", frames)
    finally:
        handle.stop(seal=False)  # stop without sealing: a restart, not a shutdown

    second = build_gateway(tmp_path)
    handle2 = serve_in_thread(second)
    try:
        client = IngestClient("127.0.0.1", handle2.port, "s1", "orders")
        client.connect()
        assert client.server_recovered_frames == len(frames)
        # Redelivering the whole trace is harmless.
        for etype, attrs in frames:
            client.send(etype, dict(attrs))
        report = client.close()
    finally:
        handle2.stop(seal=True)
    assert report.duplicates == len(frames) and report.admitted == 0
    # The first incarnation already delivered every match; the delivery
    # log keeps the restart from delivering any of them again.
    assert second.stats()["matches"] == 0
    delivered = delivery_log(tmp_path)
    assert gateway.stats()["matches"] == len(delivered) == len(set(delivered))
    assert set(delivered) == inprocess_result_keys(frames)


# -- hostile frames ---------------------------------------------------------------------


def _raw_exchange(port: int, payload: bytes):
    """Send hello + *payload* on a raw socket; every reply line until the
    server closes (or resets) the connection."""
    hello = {"op": "hello", "source": "s1", "stream": "orders", "proto": 1}
    received = b""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        try:
            sock.sendall(json.dumps(hello).encode("utf-8") + b"\n" + payload)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server hung up mid-write: that is the point
        try:
            while chunk := sock.recv(65536):
                received += chunk
        except ConnectionResetError:
            pass  # closed with our bytes unread; replies sent before it still arrive
    return [json.loads(line) for line in received.splitlines()]


@pytest.mark.parametrize(
    "bad",
    [b"[1,2]", b"5", b"null", b'{"op":"watermark","n":9,"ts":"abc"}',
     b'{"op":"watermark","n":9,"ts":null}', b"{not json"],
)
def test_malformed_frame_is_an_error_reply_not_a_dead_handler(tmp_path, bad):
    """Well-formed JSON that is not a frame used to raise out of the
    connection handler: EOF for the client, and the cohort's earlier
    frames neither synced nor acked."""
    gateway = build_gateway(tmp_path)
    handle = serve_in_thread(gateway)
    good = [
        {"op": "event", "n": n, "etype": etype, "attrs": {"ts": n + 1, "x": 7}}
        for n, etype in enumerate("AB")
    ]
    payload = b"".join(json.dumps(frame).encode("utf-8") + b"\n" for frame in good)
    try:
        replies = _raw_exchange(handle.port, payload + bad + b"\n")
        assert [reply["op"] for reply in replies] == ["hello_ok", "ack", "ack", "error"]
        assert [reply.get("status") for reply in replies[1:3]] == ["admitted"] * 2
        assert replies[-1]["reason"]
        # Acked means durable: the cohort was group-committed before the close.
        assert len(read_wal_elements(tmp_path)) >= 2
        # The handler survived: the gateway still serves the next connection.
        report = send_events("127.0.0.1", handle.port, "s2", "orders", frames_for(2))
        assert report.admitted == 4
    finally:
        handle.stop(seal=True)


def test_newline_free_source_is_cut_off_at_the_frame_cap(tmp_path):
    gateway = build_gateway(tmp_path)
    handle = serve_in_thread(gateway)
    good = {"op": "event", "n": 0, "etype": "A", "attrs": {"ts": 1, "x": 7}}
    payload = json.dumps(good).encode("utf-8") + b"\n" + b"x" * (2 * MAX_FRAME_BYTES)
    try:
        replies = _raw_exchange(handle.port, payload)
        assert [reply["op"] for reply in replies] == ["hello_ok", "ack", "error"]
        assert replies[1]["status"] == "admitted"
        assert str(MAX_FRAME_BYTES) in replies[-1]["reason"]
        report = send_events("127.0.0.1", handle.port, "s2", "orders", frames_for(2))
        assert report.admitted == 4
    finally:
        handle.stop(seal=True)


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param(b"[" * 50000, id="nested-past-the-recursion-limit"),
        pytest.param(b'{"op":"watermark","n":9,"ts":1e400}', id="watermark-1e400"),
        pytest.param(b'{"op":"watermark","n":9,"ts":Infinity}', id="watermark-Infinity"),
    ],
)
def test_decoder_and_int_overflows_are_error_replies_too(tmp_path, bad):
    """``RecursionError`` and ``OverflowError`` are not ``ValueError``: both
    used to escape the handler — no ``error`` reply, and the read's earlier
    frame committed only by the disconnect and never acked."""
    gateway = build_gateway(tmp_path)
    handle = serve_in_thread(gateway)
    good = {"op": "event", "n": 0, "etype": "A", "attrs": {"ts": 1, "x": 7}}
    payload = json.dumps(good).encode("utf-8") + b"\n" + bad + b"\n"
    try:
        replies = _raw_exchange(handle.port, payload)
        assert [reply["op"] for reply in replies] == ["hello_ok", "ack", "error"]
        assert replies[1]["status"] == "admitted"
        expected = "watermark ts must be an int" if b"watermark" in bad else "JSON object"
        assert expected in replies[-1]["reason"]
    finally:
        handle.stop(seal=True)


#: What the parent of the cohort-shaped transport (7cc2871) wrote for the
#: read below, recorded from it byte for byte.
_MIXED_READ_REPLIES = (
    b'{"n": 0, "op": "ack", "status": "admitted"}\n'
    b'{"n": 1, "op": "ack", "status": "admitted"}\n'
    b'{"n": 2, "op": "ack", "status": "ok", "watermark": 2}\n'
    b'{"n": 3, "op": "ack", "status": "admitted"}\n'
    b'{"op": "stats_ok", "stats": {"admitted": 3, "busy": 0, "degraded_total": 0, '
    b'"duplicates": 0, "matches": 0, "quarantined": 0, "recovered_frames": 0, '
    b'"recovered_total": 0, "seq": 0, "sources": {"s1": {"admitted": 3, '
    b'"duplicates": 0, "quarantined": 0, "status": "live"}}, "state_size": 0, '
    b'"stream": "orders", "throttled": 0, "watermark": 2}}\n'
    b'{"op": "error", "reason": "frame is not a JSON object"}\n'
)


def test_mixed_ops_in_one_read_are_answered_in_frame_order(tmp_path):
    """event, event, watermark, event, stats, <malformed>, event in one
    ``sendall``: runs of events are admitted as cohorts, yet every reply
    is where — and what — the frame-by-frame transport wrote."""
    gateway = build_gateway(tmp_path)
    handle = serve_in_thread(gateway)
    lines = [
        {"op": "event", "n": 0, "etype": "A", "attrs": {"ts": 1, "x": 7}},
        {"op": "event", "n": 1, "etype": "B", "attrs": {"ts": 2, "x": 7}},
        {"op": "watermark", "n": 2, "ts": 2},
        {"op": "event", "n": 3, "etype": "A", "attrs": {"ts": 5, "x": 7}},
        {"op": "stats"},
        None,  # the malformed line
        {"op": "event", "n": 6, "etype": "B", "attrs": {"ts": 6, "x": 7}},
    ]
    payload = b"".join(
        (b"{not json" if line is None else json.dumps(line).encode("utf-8")) + b"\n"
        for line in lines
    )
    hello = {"op": "hello", "source": "s1", "stream": "orders", "proto": 1}
    received = b""
    try:
        with socket.create_connection(("127.0.0.1", handle.port), timeout=10.0) as sock:
            sock.sendall(json.dumps(hello).encode("utf-8") + b"\n")
            assert json.loads(sock.recv(65536))["op"] == "hello_ok"
            sock.sendall(payload)  # one segment on loopback: one read, one cohort
            while chunk := sock.recv(65536):
                received += chunk
    finally:
        handle.stop(seal=True)
    replies = [json.loads(line) for line in received.splitlines()]
    assert [reply["op"] for reply in replies] == [
        "ack", "ack", "ack", "ack", "stats_ok", "error"
    ]
    assert [reply.get("n") for reply in replies[:4]] == [0, 1, 2, 3]
    # stats counts the admissions before it; the frame after the malformed
    # line is neither admitted nor acked.
    assert replies[4]["stats"]["admitted"] == 3
    assert gateway.admission.admitted == 3
    assert received == _MIXED_READ_REPLIES
