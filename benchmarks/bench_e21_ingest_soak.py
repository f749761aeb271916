"""E21 — Ingestion-gateway soak: throughput, ack latency, crash recovery.

Not a paper figure: this experiment characterises the fault-tolerant
ingestion gateway (``repro.ingest``) layered in front of the engines.
Three cells over an A/B sequence workload on the loopback interface,
every frame travelling the full newline-JSON socket path:

* **clean** — S sources stream F frames each through one gateway;
  measures end-to-end admitted throughput and the client-observed
  admission-latency distribution (last transmit of a frame to its ack).
* **faulty** — the same soak with scripted client faults (lost-ack
  tears and duplicate sends, the at-least-once anomalies): idempotent
  admission must absorb every redelivery, so the engine still sees each
  distinct frame exactly once.
* **crash** — a fault-injected gateway dies mid-ingest and restarts on
  the same port while the client rides through on backoff; measures
  WAL-replay recovery time and the client-perceived outage.

Claims (the CI ``--check`` gate):

* recall vs the offline oracle is **1.0** in every cell — faults and
  the crash/restart cycle lose no matches (crash-cell recall counts the
  union of matches delivered by both incarnations: the delivery log
  guarantees each match is delivered once, by exactly one incarnation);
* admission is exactly-once under faults and crashes: distinct frames
  admitted across incarnations equals the number of frames sent;
* the soak sustains a sane floor (> 50 frames/s) with bounded tail
  latency (p99 < 2 s) — loose bounds, this is a smoke gate on shared
  CI boxes, not a performance claim.

Writes ``BENCH_e21.json`` at the repo root (machine-readable results
for trend tracking) next to the rendered table in
``benchmarks/results/``.  ``--quick`` runs a smaller configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro import OfflineOracle, OutOfOrderEngine, parse
from repro.core.recovery import delivered_keys
from repro.faultinject import FaultInjector
from repro.ingest import (
    ClientFaultPlan,
    EventSchema,
    FieldSpec,
    GatewayConfig,
    IngestClient,
    IngestGateway,
    StreamSchema,
    serve_in_thread,
)
from repro.metrics import compare_keys, render_table

from common import write_result

JSON_PATH = Path(__file__).parent.parent / "BENCH_e21.json"

QUERY = "PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 20"
SOURCES = 4
PAIRS = 600  # A+B pairs per source -> 2*PAIRS frames per source
QUICK_SOURCES = 2
QUICK_PAIRS = 120


def _schema() -> StreamSchema:
    fields = [FieldSpec("ts", "int"), FieldSpec("x", "int")]
    return StreamSchema(
        "soak",
        t_event="ts",
        source_slack=2,
        ordering_scope="global",
        events=[EventSchema("A", list(fields)), EventSchema("B", list(fields))],
    )


def _frames(source_index: int, pairs: int):
    """One source's in-order frame list; x-spaces are disjoint across
    sources so every payload (and thus every derived eid) is distinct."""
    base = source_index * 1000
    frames = []
    for i in range(pairs):
        x = base + i % 3
        frames.append(("A", {"ts": 2 * i, "x": x}))
        frames.append(("B", {"ts": 2 * i + 1, "x": x}))
    return frames


def _truth_keys(schema, pattern, sources, pairs):
    events = [
        schema.build_event(etype, attrs)
        for s in range(sources)
        for etype, attrs in _frames(s, pairs)
    ]
    return OfflineOracle(pattern).evaluate_set(events)


def _build_gateway(directory, pairs, port=0, fault=None):
    # The engine's K must absorb the worst-case *inter-source* skew:
    # client threads race freely, so one source can be a full trace
    # ahead of another in event time.  K covering the whole ts range
    # makes the engine purely punctuation-sealed for this soak — the
    # bench measures the gateway, not the engine's disorder bound.
    k = 2 * pairs + 32
    pattern = parse(QUERY)
    config = GatewayConfig(
        _schema(), port=port, liveness_timeout=60.0, dedupe_window=16384
    )
    return IngestGateway(
        lambda: OutOfOrderEngine(pattern, k=k),
        config,
        directory=directory,
        fault=fault,
    )


def _drive_source(port, name, frames, fault_plan, reports, barrier):
    client = IngestClient(
        "127.0.0.1", port, name, "soak", window=64, fault_plan=fault_plan
    )
    client.connect()
    # Preamble: every source registers a mark before anyone races ahead,
    # so the min-merge holds the watermark behind the slowest source and
    # no cross-source admission is late at the engine.
    client.send(*frames[0])
    client.flush()
    barrier.wait()
    for frame in frames[1:]:
        client.send(frame[0], dict(frame[1]))
    reports[name] = client.close()


def _soak_cell(name, sources, pairs, fault_plans=None):
    pattern = parse(QUERY)
    schema = _schema()
    with tempfile.TemporaryDirectory(prefix="repro-e21-") as directory:
        gateway = _build_gateway(directory, pairs)
        handle = serve_in_thread(gateway)
        reports: dict = {}
        barrier = threading.Barrier(sources)
        threads = [
            threading.Thread(
                target=_drive_source,
                args=(
                    handle.port,
                    f"src{s}",
                    _frames(s, pairs),
                    (fault_plans or {}).get(f"src{s}"),
                    reports,
                    barrier,
                ),
            )
            for s in range(sources)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        handle.stop(seal=True)

        frames_total = 2 * pairs * sources
        latencies = sorted(
            value for report in reports.values() for value in report.latencies
        )
        p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
        achieved = delivered_keys(directory)
        report = compare_keys(_truth_keys(schema, pattern, sources, pairs), achieved)
        return {
            "cell": name,
            "sources": sources,
            "frames": frames_total,
            "seconds": round(elapsed, 3),
            "throughput_fps": round(frames_total / elapsed, 1),
            "p50_latency_s": round(latencies[len(latencies) // 2], 5),
            "p99_latency_s": round(p99, 5),
            "admitted": gateway.admission.admitted,
            "duplicates_absorbed": gateway.admission.duplicates,
            "resends": sum(r.resends for r in reports.values()),
            "reconnects": sum(r.reconnects for r in reports.values()),
            "recall": report.recall,
        }


def _crash_cell(pairs):
    """Crash the gateway mid-ingest, restart on the same port, measure
    the WAL-replay recovery and the client-perceived outage."""
    pattern = parse(QUERY)
    schema = _schema()
    frames = _frames(0, pairs)
    crash_at = len(frames) // 2
    with tempfile.TemporaryDirectory(prefix="repro-e21-") as directory:
        first = _build_gateway(directory, pairs, fault=FaultInjector(crash_at=[crash_at]))
        handle = serve_in_thread(first)
        port = handle.port
        timings: dict = {}
        restarted: dict = {}

        def restart():
            while not first.crashed:
                time.sleep(0.002)
            crash_seen = time.perf_counter()
            handle.stop(seal=False)
            replay_start = time.perf_counter()
            second = _build_gateway(directory, pairs, port=port)
            timings["replay_s"] = time.perf_counter() - replay_start
            restarted["gateway"] = second
            restarted["handle"] = serve_in_thread(second)
            timings["outage_s"] = time.perf_counter() - crash_seen

        watchdog = threading.Thread(target=restart, daemon=True)
        watchdog.start()
        client = IngestClient("127.0.0.1", port, "src0", "soak", window=16)
        client.connect()
        started = time.perf_counter()
        for etype, attrs in frames:
            client.send(etype, dict(attrs))
        report = client.close()
        elapsed = time.perf_counter() - started
        watchdog.join(timeout=30.0)
        restarted["handle"].stop(seal=True)
        second = restarted["gateway"]

        delivered = delivered_keys(directory)  # both incarnations' log
        quality = compare_keys(_truth_keys(schema, pattern, 1, pairs), delivered)
        return {
            "cell": "crash",
            "frames": len(frames),
            "seconds": round(elapsed, 3),
            "recovery_replay_s": round(timings["replay_s"], 4),
            "client_outage_s": round(timings["outage_s"], 4),
            "replayed_frames": second.recovered_frames,
            "admitted_total": second.recovered_frames + second.admission.admitted,
            "client_reconnects": report.reconnects,
            "client_resends": report.resends,
            "recall": quality.recall,
        }


def run_experiment(quick: bool = False) -> str:
    sources = QUICK_SOURCES if quick else SOURCES
    pairs = QUICK_PAIRS if quick else PAIRS
    faulty_plans = {
        "src0": ClientFaultPlan(torn_after_send=[pairs // 2], duplicate_send=[3]),
        "src1": ClientFaultPlan(duplicate_send=[5, pairs]),
    }
    cells = [
        _soak_cell("clean", sources, pairs),
        _soak_cell("faulty", sources, pairs, fault_plans=faulty_plans),
    ]
    crash = _crash_cell(pairs)

    text = render_table(
        f"E21 — gateway soak, {sources} sources x {2 * pairs} frames over TCP",
        ["cell", "frames", "fps", "p99 ack s", "dupes absorbed", "recall"],
        [
            [
                row["cell"],
                row["frames"],
                row["throughput_fps"],
                row["p99_latency_s"],
                row["duplicates_absorbed"],
                round(row["recall"], 4),
            ]
            for row in cells
        ],
    )
    text += render_table(
        "E21b — crash mid-ingest, restart on the same port",
        ["frames", "replay s", "outage s", "replayed", "reconnects", "recall"],
        [
            [
                crash["frames"],
                crash["recovery_replay_s"],
                crash["client_outage_s"],
                crash["replayed_frames"],
                crash["client_reconnects"],
                round(crash["recall"], 4),
            ]
        ],
    )

    payload = {
        "experiment": "e21",
        "quick": quick,
        "cells": cells,
        "crash": crash,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return write_result("e21_ingest_soak", text)


def _assert_claims(payload) -> None:
    for row in payload["cells"]:
        assert row["recall"] == 1.0, f"{row['cell']} cell lost matches: {row}"
        assert row["admitted"] == row["frames"], (
            f"{row['cell']} cell admission not exactly-once: {row}"
        )
        assert row["throughput_fps"] > 50, f"throughput floor broken: {row}"
        assert row["p99_latency_s"] < 2.0, f"tail latency bound broken: {row}"
    faulty = payload["cells"][1]
    assert faulty["duplicates_absorbed"] >= 2, (
        f"fault plans produced no duplicates to absorb: {faulty}"
    )
    crash = payload["crash"]
    assert crash["recall"] == 1.0, f"crash cell lost matches: {crash}"
    assert crash["admitted_total"] == crash["frames"], (
        f"crash admission not exactly-once: {crash}"
    )
    assert crash["client_reconnects"] >= 1


def test_e21_report(benchmark):
    text = benchmark.pedantic(lambda: run_experiment(quick=True), rounds=1, iterations=1)
    print(text)
    assert "E21" in text and "E21b" in text
    _assert_claims(json.loads(JSON_PATH.read_text(encoding="utf-8")))


def check_claim() -> None:
    """Assert the recorded soak/recovery claims (CI gate)."""
    payload = json.loads(JSON_PATH.read_text(encoding="utf-8"))
    _assert_claims(payload)
    crash = payload["crash"]
    print(
        f"claim holds: recall 1.0 in every cell, exactly-once admission, "
        f"recovery replayed {crash['replayed_frames']} frames in "
        f"{crash['recovery_replay_s']}s ({crash['client_outage_s']}s outage)"
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small smoke configuration for CI",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail (exit nonzero) when a recorded claim does not hold",
    )
    args = parser.parse_args()
    print(run_experiment(quick=args.quick))
    if args.check:
        check_claim()
    sys.exit(0)
