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

import pytest

from repro import OutOfOrderEngine, parse
from repro.faultinject import CrashError, FaultInjector
from repro.ingest import GatewayConfig, IngestGateway
from repro.ingest.server import _JournalWriter

from ingest_helpers import make_schema


QUERY = "PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 20"


def make_gateway(directory, fault=None):
    config = GatewayConfig(make_schema(slack=2), port=0, liveness_timeout=30.0)
    return IngestGateway(
        lambda: OutOfOrderEngine(parse(QUERY), k=4),
        config,
        directory=directory,
        fault=fault,
    )


# -- the off-loop journal writer --------------------------------------------------------


def test_flush_is_an_ordering_barrier(tmp_path):
    writer = _JournalWriter(tmp_path / "j.jsonl")
    lines = [f"{{\"n\": {i}}}\n" for i in range(200)]
    for line in lines:
        writer.append(line)
    writer.flush()
    assert (tmp_path / "j.jsonl").read_text() == "".join(lines)
    writer.close()


def test_writer_respawns_after_close(tmp_path):
    writer = _JournalWriter(tmp_path / "j.jsonl")
    writer.append("a\n")
    writer.close()
    assert (tmp_path / "j.jsonl").read_text() == "a\n"
    # close() parks the thread; the next append must revive it.
    writer.append("b\n")
    writer.flush()
    assert (tmp_path / "j.jsonl").read_text() == "a\nb\n"
    writer.close()


def test_flush_and_close_without_appends_are_noops(tmp_path):
    writer = _JournalWriter(tmp_path / "j.jsonl")
    writer.flush()
    writer.close()
    assert not (tmp_path / "j.jsonl").exists()


def test_flush_journal_makes_records_visible(tmp_path):
    gateway = make_gateway(tmp_path)
    gateway.admit_frame("s1", "A", {"ts": 1, "x": 7}, now=0.0)
    gateway.flush_journal()
    records = [
        json.loads(line)
        for line in (tmp_path / "gateway.jsonl").read_text().splitlines()
    ]
    assert any(r["kind"] == "source" and r["source"] == "s1" for r in records)


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
