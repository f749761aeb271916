"""The event-loop checks of ``tests/conftest.py`` see what they guard.

Every test under ``tests/ingest`` and ``tests/obs`` runs with them on:
blocking calls from ``repro`` code on a running loop are recorded
(``repro.core.recovery``'s synchronous durability writes excepted), and
a task destroyed while pending, an exception nobody retrieved or a
stream writer closed without awaiting ``wait_closed()`` fails the test.
These tests plant each violation and take it back out of the record, so
the suites' silence means the gateway is clean, not that the checks are
blind.
"""

from __future__ import annotations

import asyncio
import gc

from repro import Event
from repro.core.recovery import write_lines
from repro.streams import dump_trace


def test_blocking_calls_on_the_loop_are_recorded(blocking_calls, tmp_path):
    async def serve():
        dump_trace([Event("A", 1)], tmp_path / "trace.jsonl")  # repro.streams: blocking
        write_lines(tmp_path / "journal.jsonl", ["{}"])  # the durability contract
        (tmp_path / "own.txt").write_text("test code, not the product")

    dump_trace([Event("A", 1)], tmp_path / "off-loop.jsonl")  # no loop running
    asyncio.run(serve())
    assert [call.split(" in ")[1].split(":")[0] for call in blocking_calls] == [
        "repro.streams.replay"
    ]
    blocking_calls.clear()


def test_a_task_destroyed_while_pending_is_recorded(loop_hygiene):
    loop = asyncio.new_event_loop()
    loop.create_task(asyncio.sleep(3600))
    loop.run_until_complete(asyncio.sleep(0))  # the task starts, then waits
    loop.close()
    del loop
    gc.collect()
    assert any("destroyed but it is pending" in text for text in loop_hygiene.neglected)
    loop_hygiene.neglected.clear()


def test_an_exception_never_retrieved_is_recorded(loop_hygiene):
    async def fail():
        raise RuntimeError("nobody looks")

    async def fire_and_forget():
        asyncio.get_running_loop().create_task(fail())
        await asyncio.sleep(0)

    asyncio.run(fire_and_forget())
    gc.collect()
    assert any("exception was never retrieved" in text for text in loop_hygiene.neglected)
    loop_hygiene.neglected.clear()


def test_a_writer_closed_without_wait_closed_is_recorded(loop_hygiene):
    async def hang_up(reader, writer):
        writer.close()  # and never awaits wait_closed()

    async def connect():
        server = await asyncio.start_server(hang_up, "127.0.0.1", 0)
        reader, writer = await asyncio.open_connection(*server.sockets[0].getsockname())
        await reader.read()
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()

    asyncio.run(connect())
    assert [where.split(":")[0] for where in loop_hygiene.unawaited.values()] == [
        __name__
    ]
    loop_hygiene.unawaited.clear()
