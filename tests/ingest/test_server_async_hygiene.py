"""Regression tests for the gateway's async-hygiene fixes.

The R006–R008 analysis pass found three real defects in the gateway
transport, fixed in the same change that introduced the rules: journal
appends blocked the event loop (R007), ``writer.close()`` was never
paired with ``wait_closed()`` (R008), and ``stop()`` cancelled the
tick task without awaiting it (R008).  These tests pin the fixed
behaviour so the defects cannot quietly return.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro import OutOfOrderEngine, parse
from repro.faultinject import CrashError, FaultInjector
from repro.ingest import GatewayConfig, IngestGateway
from repro.obs import MetricsRegistry
from repro.obs.flight import FlightRecorder, load_flight

from ingest_helpers import make_schema


QUERY = "PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 20"


def make_gateway(directory, fault=None, **observers):
    config = GatewayConfig(make_schema(slack=2), port=0, liveness_timeout=30.0)
    return IngestGateway(
        lambda: OutOfOrderEngine(parse(QUERY), k=4),
        config,
        directory=directory,
        fault=fault,
        **observers,
    )


# -- operator records: written synchronously, on the caller's thread -------------------


def journal(directory):
    return [
        json.loads(line)
        for line in (directory / "gateway.jsonl").read_text().splitlines()
    ]


def test_every_record_is_on_disk_when_its_call_returns(tmp_path):
    """No flush call anywhere: each record can be read back right after
    the call that wrote it."""
    gateway = make_gateway(
        tmp_path, fault=FaultInjector(crash_at=[2]), flight=FlightRecorder()
    )
    gateway.admit_frame("s1", "A", {"ts": 1, "x": 7}, now=0.0)
    assert journal(tmp_path)[-1] == {"kind": "source", "source": "s1"}
    gateway.sync_acks()
    gateway.tick(now=40.0)
    assert journal(tmp_path)[-1]["kind"] == "transition"
    assert journal(tmp_path)[-1]["status"] == "degraded"
    gateway.dump_flight()
    header, _ = load_flight((tmp_path / "flight.jsonl").read_text())
    assert header["reason"] == "manual"
    gateway.admit_frame("s1", "B", {"ts": 3, "x": 7}, now=41.0)
    gateway.admit_frame("s1", "B", {"ts": 4, "x": 7}, now=41.0)
    with pytest.raises(CrashError):
        gateway.sync_acks()
    assert journal(tmp_path)[-1] == {"kind": "crash", "seq": gateway.runner.seq}
    header, _ = load_flight((tmp_path / "flight.jsonl").read_text())
    assert header["reason"] == "crash"


def test_a_durable_gateway_starts_no_thread(tmp_path):
    """Journal and flight dump share the caller's thread: a full drill —
    two sources, a degrade, a reconnect, a crash, a restart, a manual
    dump and a seal — never runs more threads than were there before."""
    baseline = threading.active_count()
    peak = baseline

    def note():
        nonlocal peak
        peak = max(peak, threading.active_count())

    def build(fault=None):
        return make_gateway(
            tmp_path, fault=fault, flight=FlightRecorder(), metrics=MetricsRegistry()
        )

    first = build(FaultInjector(crash_at=[8]))
    for index in range(4):
        first.admit_frame(f"s{index % 2}", "AB"[index % 2], {"ts": index, "x": 1},
                          now=0.1 * index)
        note()
    first.sync_acks()
    first.admit_frame("s0", "A", {"ts": 5, "x": 2}, now=31.0)
    first.tick(now=31.0)  # s1 is degraded
    first.connect_source("s1", now=31.5)  # and reconnects
    note()
    first.admit_frame("s1", "B", {"ts": 6, "x": 2}, now=32.0)
    first.admit_frame("s1", "B", {"ts": 7, "x": 2}, now=32.0)
    with pytest.raises(CrashError):
        first.sync_acks()
    note()
    second = build()
    second.admit_frame("s1", "B", {"ts": 8, "x": 2}, now=40.0)
    second.sync_acks()
    second.dump_flight()
    second.seal()
    note()
    kinds = [record["kind"] for record in journal(tmp_path)]
    assert kinds.count("transition") >= 2 and "crash" in kinds and kinds[-1] == "seal"
    assert peak <= baseline, f"{peak - baseline} thread(s) started"


def test_crash_record_is_durable_before_crash_propagates(tmp_path):
    """``_note_crash`` flushes on its own: by the time CrashError reaches
    the caller, the journal already says why — no flush call needed."""
    gateway = make_gateway(tmp_path, fault=FaultInjector(crash_at=[1]))
    gateway.admit_frame("s1", "A", {"ts": 1, "x": 7}, now=0.0)
    gateway.sync_acks()
    gateway.admit_frame("s1", "B", {"ts": 3, "x": 7}, now=0.1)
    with pytest.raises(CrashError):
        gateway.sync_acks()  # the crash point fires at the commit
    records = [
        json.loads(line)
        for line in (tmp_path / "gateway.jsonl").read_text().splitlines()
    ]
    assert any(r["kind"] == "crash" for r in records)


# -- stop(): task and writer lifecycle --------------------------------------------------


def test_stop_awaits_cancelled_tick_task(tmp_path):
    async def scenario():
        gateway = make_gateway(tmp_path)
        await gateway.start()
        task = gateway._tick_task
        assert isinstance(task, asyncio.Task) and not task.done()
        await gateway.stop()
        return gateway, task

    gateway, task = asyncio.run(scenario())
    # The handle is swapped out and the task fully retired — not just
    # cancel()ed and abandoned to die after the loop closes.
    assert gateway._tick_task is None
    assert task.cancelled()
    assert gateway._server is None


def test_stop_is_idempotent(tmp_path):
    async def scenario():
        gateway = make_gateway(tmp_path)
        await gateway.start()
        await gateway.stop()
        await gateway.stop(seal=False)  # every handle already swapped out

    asyncio.run(scenario())


def test_stop_closes_tracked_connections(tmp_path):
    async def scenario():
        gateway = make_gateway(tmp_path)
        await gateway.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
        for _ in range(100):
            if gateway._writers:
                break
            await asyncio.sleep(0.01)
        assert gateway._writers, "connection was never tracked"
        await gateway.stop()
        assert gateway._writers == set()
        # The server side hung up: the client reads EOF promptly.
        assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    asyncio.run(scenario())


async def _wait_closed_since_3_12_1(server):
    # asyncio.Server.wait_closed() as of Python 3.12.1: it returns only
    # once the server is closed *and* every connection has been dropped
    # (3.11 and earlier return at once after close()).
    if server._waiters is None:
        return
    waiter = server._loop.create_future()
    server._waiters.append(waiter)
    await waiter


def test_stop_returns_with_an_idle_client_connected(tmp_path, monkeypatch):
    """An idle client does not hold ``stop()`` open on Python >= 3.12.1:
    the connections close before the listener's ``wait_closed()``."""
    monkeypatch.setattr(
        asyncio.base_events.Server, "wait_closed", _wait_closed_since_3_12_1
    )

    async def scenario():
        gateway = make_gateway(tmp_path)
        await gateway.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
        hello = {"op": "hello", "source": "s1", "stream": "orders", "proto": 1}
        writer.write(json.dumps(hello).encode() + b"\n")
        await writer.drain()
        assert json.loads(await reader.readline())["op"] == "hello_ok"
        try:
            await asyncio.wait_for(gateway.stop(), timeout=5.0)
        except asyncio.TimeoutError:
            pytest.fail("stop() waited on a connected idle client")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        assert gateway._writers == set()
        assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""

    asyncio.run(scenario())
