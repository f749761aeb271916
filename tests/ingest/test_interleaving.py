"""Await atomicity: the gateway under adversarial task interleavings.

:class:`ShuffledLoop` resumes ready tasks in a seeded random order, so
every seed tries another interleaving of the same drill: clients
connecting, sending and waiting for the server to hang up, a scraper
that connects and never sends its request, two
concurrent ``stop()`` calls, and a crash inside the liveness timer's
commit.  A coroutine that decides something before an await and
acts on it after (reads ``self._writers``, suspends, then writes it back)
loses whatever another task did in between, and some seed shows it.

Invariants, for every seed:

* ``stop()`` completes, and when it returns no connection is still
  registered and every connection the server accepted is closing;
* an idle scraper on the telemetry sidecar is hung up by ``stop()``
  (or by the crash), not left to its read timeout;
* a connection accepted as ``stop()`` ran closes by itself: once the
  drill ends, every connection is closed without a second ``stop``;
* every frame acked ``admitted`` is in the WAL exactly once, and the
  delivery log repeats no match after recovery.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
from collections import Counter
from unittest import mock

import pytest

from repro import Event, OutOfOrderEngine, ResilientRunner, parse
from repro.core.recovery import read_wal_elements
from repro.faultinject import CrashError
from repro.ingest import GatewayConfig, IngestGateway
from repro.ingest.server import PROTOCOL_VERSION

from helpers import delivered_once
from ingest_helpers import make_schema

SEEDS = range(60)
QUERY = "PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 20"
CLIENTS = 6
FRAMES = 8
STOP_WITHIN = 5.0
HANG_UP_WITHIN = 0.05
SCRAPE_TIMEOUT = 5.0  # the sidecar's own read timeout (obs.httpserv)


class ShuffledLoop(asyncio.SelectorEventLoop):
    """An event loop that resumes its ready tasks in a seeded random order.

    Tasks trade places only within a run of task steps, so every other
    callback (transport and protocol plumbing) keeps its order relative
    to everything: each schedule is one asyncio could produce under
    other I/O timing.
    """

    def __init__(self, seed):
        super().__init__()
        self._rng = random.Random(seed)

    def _shuffle(self):
        ready, order, run = self._ready, [], []
        for handle in ready:
            if isinstance(getattr(handle._callback, "__self__", None), asyncio.Task):
                run.append(handle)
                continue
            self._rng.shuffle(run)
            order += run
            order.append(handle)
            run = []
        self._rng.shuffle(run)
        ready.clear()
        ready.extend(order + run)

    async def _accept_connection2(
        self, protocol_factory, conn, extra, sslcontext=None, server=None, *rest
    ):
        if server is not None and not server.is_serving():
            # Accepted as the listener closed: CPython 3.11 fails to attach
            # the transport and leaks the socket; drop it as a peer would see.
            conn.close()
            return
        await super()._accept_connection2(
            protocol_factory, conn, extra, sslcontext, server, *rest
        )

    def _process_events(self, event_list):
        super()._process_events(event_list)
        self._shuffle()

    def _run_once(self):
        self._shuffle()
        super()._run_once()


class TickCrash:
    """Fault injector: the liveness timer's first commit after arming dies."""

    task = None

    def on_logged(self, index):
        if self.task is not None and asyncio.current_task() is self.task:
            self.task = None
            raise CrashError(f"injected crash in the tick loop at element {index}")


def build(directory, fault):
    ticks = itertools.count()
    return IngestGateway(
        lambda: OutOfOrderEngine(parse(QUERY), k=4),
        GatewayConfig(make_schema(slack=2), liveness_timeout=0.0004, telemetry_port=0),
        directory=directory,
        fault=fault,
        clock=lambda: float(next(ticks)),  # each read is past the timeout
    )


async def client(port, name, rng, acked):
    """Send hello and frames in random chunks, then read until the server hangs up."""
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
    except OSError:
        return  # the listener is already gone
    frames = {}
    lines = [{"op": "hello", "source": name, "stream": "orders", "proto": PROTOCOL_VERSION}]
    for n in range(FRAMES):
        frames[n] = (rng.choice("AB"), {"ts": 3 * n + rng.randrange(3), "x": rng.randrange(3)})
        lines.append({"op": "event", "etype": frames[n][0], "attrs": frames[n][1], "n": n})

    async def read_replies():
        async for line in reader:
            reply = json.loads(line)
            if reply.get("op") == "ack" and reply.get("status") == "admitted":
                acked.append(frames[reply["n"]])

    replies = asyncio.ensure_future(read_replies())
    try:
        while lines:
            cut = rng.randint(1, 5)
            writer.write(b"".join(json.dumps(line).encode() + b"\n" for line in lines[:cut]))
            lines = lines[cut:]
            await writer.drain()
            await asyncio.sleep(0)
        await asyncio.wait_for(asyncio.shield(replies), HANG_UP_WITHIN)
    except (ConnectionError, OSError, asyncio.TimeoutError):
        pass
    finally:
        replies.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def yields(count):
    for _ in range(count):
        await asyncio.sleep(0)


async def drill(seed, directory):
    """One interleaving; returns the frames acked ``admitted``."""
    rng = random.Random(seed)
    fault = TickCrash()
    gateway = build(directory, fault)
    accepted = []
    # stop() starts as a seeded client dials, while others are arriving.
    trigger, go = rng.randrange(CLIENTS), asyncio.Event()
    start_server = asyncio.start_server

    async def tracked_server(serve, *args, **kwargs):
        # Every connection either listener accepts, including one it
        # hangs up unserved because stop() had begun.
        def tracked(reader, writer):
            accepted.append(writer)
            return serve(reader, writer)

        return await start_server(tracked, *args, **kwargs)

    with mock.patch.object(asyncio, "start_server", tracked_server):
        await gateway.start()
    telemetry = gateway._telemetry
    acked = []
    hung_up = []

    # A scraper that connected and never sends its request: stop() (or
    # the crash) hangs it up instead of leaving it to the read timeout.
    scrape, scraper = await asyncio.open_connection("127.0.0.1", telemetry.bound)
    while not telemetry.writers:
        await asyncio.sleep(0)

    async def idle_scraper():
        try:
            eof = await asyncio.wait_for(scrape.read(), SCRAPE_TIMEOUT / 2)
            hung_up.append(eof == b"")
        except asyncio.TimeoutError:  # an OSError since 3.11: test it first
            hung_up.append(False)
        except (ConnectionError, OSError):
            hung_up.append(True)
        finally:
            scraper.close()
            try:
                await scraper.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def local_source():
        # Admitted in-process, committed by whoever commits next: often
        # the liveness timer, whose commit the armed fault kills.
        await yields(rng.randrange(12))
        fault.task = gateway._tick_task
        ts = 0
        while gateway._listener.server is not None and not gateway.crashed:
            ts += 1
            gateway.admit_frame("local", "B", {"ts": ts, "x": 9})
            await asyncio.sleep(0.0005)

    async def late_client(index):
        await yields(rng.randrange(8))
        if index == trigger:
            go.set()
        await client(gateway.port, f"s{index}", random.Random(rng.random()), acked)

    async def stops():
        await go.wait()
        await yields(rng.randrange(3))
        await asyncio.wait_for(
            asyncio.gather(gateway.stop(seal=False), gateway.stop(seal=False)),
            STOP_WITHIN,
        )
        assert not gateway._listener.writers, f"seed {seed}: a connection registered during stop()"
        assert not telemetry.writers, f"seed {seed}: a scrape registered during stop()"
        leaked = [w for w in accepted if not w.is_closing()]
        assert leaked == [], f"seed {seed}: stop() lost track of {len(leaked)} connection(s)"

    local = asyncio.ensure_future(local_source())
    await asyncio.gather(
        stops(), idle_scraper(), *(late_client(i) for i in range(CLIENTS))
    )
    assert hung_up == [True], f"seed {seed}: an idle scraper outlived stop()"
    local.cancel()
    await yields(10)  # connections the kernel accepted reach their handlers
    assert all(writer.is_closing() for writer in accepted), f"seed {seed}"
    return acked


def run_shuffled(seed, coroutine):
    loop = ShuffledLoop(seed)
    try:
        return loop.run_until_complete(coroutine)
    finally:
        pending = asyncio.all_tasks(loop)
        for task in pending:
            task.cancel()
        if pending:
            loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
        loop.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_interleavings_keep_the_gateway_whole(seed, tmp_path):
    acked = run_shuffled(seed, drill(seed, tmp_path))
    with ResilientRunner(OutOfOrderEngine(parse(QUERY), k=4), tmp_path):
        logged = Counter(
            (event.etype, json.dumps(event.attrs, sort_keys=True))
            for event in read_wal_elements(tmp_path)
            if isinstance(event, Event)
        )
        for etype, attrs in acked:
            assert logged[etype, json.dumps(attrs, sort_keys=True)] == 1, f"seed {seed}"
        if (tmp_path / "delivered.jsonl").exists():
            delivered_once(tmp_path)
