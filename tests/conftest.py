"""Shared fixtures for the test suite; helpers live in tests/helpers.py."""

from __future__ import annotations

import asyncio
import gc
import random
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import List

import pytest

# Make `from helpers import ...` work from any test subdirectory.
sys.path.insert(0, str(Path(__file__).parent))

from repro import Event, Pattern, parse  # noqa: E402


@pytest.fixture
def abc_pattern() -> Pattern:
    """SEQ(A, B, C) with a join predicate, window 20."""
    return parse("PATTERN SEQ(A a, B b, C c) WHERE a.x == c.x WITHIN 20")


@pytest.fixture
def neg_pattern() -> Pattern:
    """SEQ(A, !B, C) with join + negation predicates, window 20."""
    return parse(
        "PATTERN SEQ(A a, !B b, C c) WHERE a.x == c.x AND b.x == a.x WITHIN 20"
    )


@pytest.fixture
def plain_seq2() -> Pattern:
    """Predicate-free SEQ(A, B), window 10."""
    return parse("PATTERN SEQ(A a, B b) WITHIN 10")


@pytest.fixture
def random_trace() -> List[Event]:
    """300 events over {A, B, C, D} with small attribute domain."""
    rng = random.Random(1234)
    return [
        Event(rng.choice("ABCD"), ts, {"x": rng.randint(0, 3)})
        for ts in range(1, 301)
    ]


# -- the event loop's contracts, checked while the suites run -------------------------
#
# Blocking calls: an audit hook sees ``open`` (also under ``Path`` or
# ``io``), ``subprocess.Popen`` and ``os.system``; CPython does not audit
# ``time.sleep``, so it is wrapped.  A call counts when its thread is
# running an event loop and the innermost ``repro`` frame is outside
# ``repro.core.recovery``, whose synchronous writes are the durability
# contract (an acked frame is on disk).  Hits are recorded, not raised —
# the gateway's ``except OSError`` must not swallow them — and fail the
# test at teardown.

_BLOCKING_EVENTS = frozenset({"open", "subprocess.Popen", "os.system"})
_SYNC_ON_LOOP_OK = "repro.core.recovery"
_blocking: List[str] = []  # the running test's record (fixture blocking_calls)


def _note_blocking(call: str) -> None:
    if asyncio._get_running_loop() is None:
        return
    frame = sys._getframe(2)
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module == "linecache":
            return  # a traceback read for a debug-mode report, not the product's I/O
        if module.startswith("repro."):
            if module != _SYNC_ON_LOOP_OK:
                _blocking.append(f"{call} in {module}:{frame.f_lineno}")
            return
        frame = frame.f_back


def _audit(event, args):
    if event in _BLOCKING_EVENTS:
        _note_blocking(f"{event}{args[:1]!r}")


def _sleep(seconds, _sleep=time.sleep):
    _note_blocking(f"time.sleep({seconds!r})")
    _sleep(seconds)


sys.addaudithook(_audit)
time.sleep = _sleep


@pytest.fixture(autouse=True)
def blocking_calls():
    """The blocking calls made on a running event loop during the test;
    any still listed at teardown fail it."""
    global _blocking
    _blocking = calls = []
    yield calls
    if calls:
        pytest.fail("blocking call on a running event loop: " + "; ".join(calls))


# Task and resource hygiene, for the suites that run event loops (the
# gateway's and the telemetry sidecar's): every loop runs in debug mode
# with a handler that records a task destroyed while pending and an
# exception nobody retrieved, a stream writer closed without awaiting
# ``wait_closed()`` is recorded, and an unclosed file or socket is an
# error.

LOOP_SUITES = ("ingest", "obs")
_NEGLECT = ("was destroyed but it is pending", "exception was never retrieved")
_hygiene = SimpleNamespace(neglected=[], unawaited={})  # the running test's record


def _neglect_handler(loop, context):
    message = context.get("message", "")
    if any(text in message for text in _NEGLECT):
        _hygiene.neglected.append(message)
    loop.default_exception_handler(context)


class _HygienePolicy(asyncio.DefaultEventLoopPolicy):
    def new_event_loop(self):
        loop = super().new_event_loop()
        loop.set_debug(True)
        loop.set_exception_handler(_neglect_handler)
        return loop


def _writer_close(writer, _close=asyncio.StreamWriter.close):
    frame = sys._getframe(1)
    _hygiene.unawaited[writer] = f"{frame.f_globals.get('__name__')}:{frame.f_lineno}"
    _close(writer)


async def _writer_wait_closed(writer, _wait_closed=asyncio.StreamWriter.wait_closed):
    _hygiene.unawaited.pop(writer, None)
    await _wait_closed(writer)


@pytest.fixture(autouse=True)
def loop_hygiene(request, monkeypatch):
    """In the loop suites: new event loops run in debug mode with the
    neglect handler, and stream writers report a ``close()`` nobody
    awaited.  Yields the record, whose entries fail the test at teardown."""
    global _hygiene
    _hygiene = record = SimpleNamespace(neglected=[], unawaited={})
    if not _in_loop_suite(request.node):
        yield record
        return
    previous = asyncio.get_event_loop_policy()
    asyncio.set_event_loop_policy(_HygienePolicy())
    monkeypatch.setattr(asyncio.StreamWriter, "close", _writer_close)
    monkeypatch.setattr(asyncio.StreamWriter, "wait_closed", _writer_wait_closed)
    yield record
    asyncio.set_event_loop_policy(previous)
    failures = record.neglected + [
        f"writer.close() at {where} never awaited wait_closed()"
        for where in record.unawaited.values()
    ]
    if failures:
        pytest.fail("event loop hygiene: " + "; ".join(failures))


def _in_loop_suite(item):
    root = Path(__file__).parent
    return any(root / name in item.path.parents for name in LOOP_SUITES)


def pytest_collection_modifyitems(items):
    for item in items:
        if _in_loop_suite(item):
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(
                pytest.mark.filterwarnings(
                    "error::pytest.PytestUnraisableExceptionWarning"
                )
            )


def pytest_runtest_setup(item):
    if _in_loop_suite(item):
        gc.freeze()  # the teardown collection scans only what the test made


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_teardown(item):
    # Finalise what the test dropped now, so a file or task it leaked in
    # a reference cycle is reported against it, not a later test.
    if _in_loop_suite(item):
        gc.collect()
        gc.unfreeze()
