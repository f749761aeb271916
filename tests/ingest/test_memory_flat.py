"""A gateway's memory follows live state, not history.

Four statements, each about what must *not* grow:

* a serving gateway — memory or durable — holds no more after frame
  25 000 than after frame 5 000 of the E24 serve traffic (in-order
  ticks alternating between two sources, ``SEQ(A, B)`` on an equality
  join, about one match per frame, cohorts of 64), because every match
  it delivers is handed on and taken, never kept;
* restarting on a killed directory costs what the tail costs: the peak
  of ``IngestGateway(...)`` on a 10x longer log stays within 1.5x of
  the 1x log, because recovery and the dedupe preload stream their logs;
* a source that reconnects 18 000 more times leaves no more behind:
  liveness counts transitions and journals them, and keeps none;
* the preload hashes at most ``dedupe_window`` events however long the
  WAL, counts every one of them in ``recovered_frames``, and leaves the
  window ``preload(all)`` would.

Measured with ``tracemalloc`` (Python allocations only: the number is
about this code's retention, not the allocator's or the OS's).
"""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from repro import Event, OutOfOrderEngine, parse
from repro.core.recovery import read_wal_elements
from repro.ingest import AdmissionController, GatewayConfig, IngestGateway, StreamSchema

from ingest_helpers import make_schema

QUERY = parse("PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 20")
COHORT = 64
K = 2 * COHORT + 8  # E24's derived bound for an in-order plan
SOURCES = ("s0", "s1")
#: Small enough that both per-source windows are full — the steady
#: state — well before the first reading at frame 5 000.
DEDUPE_WINDOW = 1024
#: What a gateway may grow by over 20 000 frames (≈ 20 000 matches).  At
#: ≈ 700 B a kept match, history would be ≈ 14 MB.
FLAT_BOUND = 64 * 1024


def plan(frames: int, seed: int = 7):
    """``(source, etype, attrs)`` per frame: tick *i* at position *i*."""
    rng = random.Random(seed)
    return [
        (SOURCES[tick % 2], rng.choice("AB"), {"ts": tick, "x": rng.randrange(5)})
        for tick in range(frames)
    ]


def gateway(directory=None, dedupe_window=DEDUPE_WINDOW) -> IngestGateway:
    # slack 0: in-order sources, the stronger ``per_source`` promise, as E24's.
    config = GatewayConfig(
        make_schema(slack=0), liveness_timeout=60.0, dedupe_window=dedupe_window
    )
    return IngestGateway(
        lambda: OutOfOrderEngine(QUERY, k=K), config, directory=directory
    )


def drive(target: IngestGateway, frames) -> None:
    """Closed loop, as the transport does it: one group commit per 64 frames."""
    for index, (source, etype, attrs) in enumerate(frames, 1):
        assert target.admit_frame(source, etype, attrs, now=0.0)["status"] == "admitted"
        if index % COHORT == 0:
            target.sync_acks()
    target.sync_acks()


def kill(target: IngestGateway) -> None:
    """Drop a gateway without sealing it: what is on disk is a killed run's."""
    target.runner.__exit__(None, None, None)


def traced() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
def test_serving_memory_is_flat_in_run_length(tmp_path, durable):
    frames = plan(25_000)
    target = gateway(tmp_path if durable else None)
    tracemalloc.start()
    try:
        drive(target, frames[:5_000])
        early = traced()
        drive(target, frames[5_000:])
        late = traced()
    finally:
        tracemalloc.stop()
    assert target.stats()["matches"] > 20_000  # there was history to keep
    assert late - early < FLAT_BOUND, f"grew {late - early} B over 20 000 frames"
    target.seal()


def test_reconnects_leave_no_history(tmp_path):
    """Liveness keeps totals, not a log: a source that tears and remakes
    its connection 20 000 times costs what it costs after 2 000."""
    target = gateway()

    def cycles(start: int, stop: int) -> None:
        for cycle in range(start, stop):
            target.connect_source("s0", now=float(cycle))
            target.disconnect_source("s0", now=cycle + 0.5)

    cycles(0, 2_000)
    tracemalloc.start()
    try:
        early = traced()
        cycles(2_000, 20_000)
        late = traced()
    finally:
        tracemalloc.stop()
    assert target.liveness.recovered_total == 19_999
    assert late - early < FLAT_BOUND, f"grew {late - early} B over 18 000 reconnects"


def killed_directory(directory, frames: int, dedupe_window: int) -> None:
    target = gateway(directory, dedupe_window)
    drive(target, plan(frames))
    kill(target)


def construction_peak(directory, dedupe_window: int) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        restarted = gateway(directory, dedupe_window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kill(restarted)
    return peak


def test_restart_memory_follows_the_tail_not_the_log(tmp_path):
    window = 256
    killed_directory(tmp_path / "1x", 2_000, window)
    killed_directory(tmp_path / "10x", 20_000, window)
    short = construction_peak(tmp_path / "1x", window)
    long = construction_peak(tmp_path / "10x", window)
    assert long <= 1.5 * short, f"1x peak {short} B, 10x peak {long} B"


@pytest.mark.parametrize("seed", range(4))
def test_preload_hashes_a_window_and_counts_the_log(tmp_path, monkeypatch, seed):
    rng = random.Random(seed)
    window = rng.choice([16, 100, 257])
    frames = rng.randrange(3 * window, 6 * window)
    target = gateway(tmp_path, window)
    drive(target, plan(frames, seed=seed))
    kill(target)

    hashed = []
    derive = StreamSchema.idempotency_id

    def counting(self, etype, attrs):
        hashed.append(etype)
        return derive(self, etype, attrs)

    monkeypatch.setattr(StreamSchema, "idempotency_id", counting)
    restarted = gateway(tmp_path, window)
    assert len(hashed) <= window
    monkeypatch.undo()
    assert restarted.recovered_frames == frames

    everything = AdmissionController(make_schema(slack=0), window=window)
    logged = [e for e in read_wal_elements(tmp_path) if isinstance(e, Event)]
    assert everything.preload_events(logged) == frames
    assert list(restarted.admission._window._order) == list(everything._window._order)
    # And the verdicts that window gives: the resent tail is all duplicates.
    for source, etype, attrs in plan(frames, seed=seed)[-window:]:
        assert restarted.admit_frame(source, etype, attrs, now=0.0)["status"] == "duplicate"
    kill(restarted)
