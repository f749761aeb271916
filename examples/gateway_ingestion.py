#!/usr/bin/env python3
"""Multi-source ingestion through the fault-tolerant gateway, end to end.

Run:  python examples/gateway_ingestion.py

The operational drill docs/operations.md points at:

1. declare a stream schema (t_event field, per-event field specs,
   per-source slack) and start the TCP gateway in front of an
   out-of-order engine with WAL-backed durability;
2. drive it from three concurrent retrying clients, one of them
   scripted to tear its connection mid-stream and double-send frames
   (lost acks, duplicate deliveries);
3. crash the gateway mid-ingest with a deterministic fault injector,
   restart it over the same directory on the same port, and let the
   clients ride through on backoff;
4. check the sealed result set against the offline oracle: exactly-once
   admission means the union of matches delivered by both incarnations
   equals the uninterrupted run — nothing lost, nothing doubled;
5. read the black box: the crashed incarnation dumped a flight
   recording (``flight.jsonl``) on its way down, scrape the restarted
   gateway's live telemetry endpoints, and name the proximate stall
   with the same analysis ``repro explain --flight`` runs.

``--keep DIR`` runs the drill in DIR instead of a temp directory so
the flight dump survives for artifact upload (CI does this).
"""

import argparse
import json
import tempfile
import threading
import time
from pathlib import Path

from repro import OutOfOrderEngine, parse
from repro.core.oracle import OfflineOracle
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
from repro.obs import MetricsRegistry
from repro.obs.flight import FlightRecorder, analyze_flight, load_flight
from repro.obs.httpserv import http_get

QUERY = "PATTERN SEQ(ORDER o, SHIP s) WHERE o.sku == s.sku WITHIN 40"
PAIRS_PER_SOURCE = 40
SOURCES = ("warehouse-1", "warehouse-2", "warehouse-3")


def build_schema() -> StreamSchema:
    fields = [FieldSpec("ts", "int"), FieldSpec("sku", "int")]
    return StreamSchema(
        "shipments",
        t_event="ts",
        events=[EventSchema("ORDER", fields), EventSchema("SHIP", fields)],
        ordering_scope="global",
        source_slack=2,
    )


def build_gateway(directory: Path, port: int = 0, fault=None) -> IngestGateway:
    config = GatewayConfig(
        build_schema(),
        port=port,
        liveness_timeout=30.0,
        dedupe_window=4096,
        telemetry_port=0,  # sidecar on an ephemeral port
    )
    pattern = parse(QUERY)
    # K must cover the occurrence-time skew between racing sources.
    return IngestGateway(
        lambda: OutOfOrderEngine(pattern, k=4 * PAIRS_PER_SOURCE),
        config,
        directory=str(directory),
        fault=fault,
        metrics=MetricsRegistry(),
        flight=FlightRecorder(),
    )


def frames_for(source_index: int):
    """Disjoint sku spaces per source keep the oracle truth separable."""
    frames = []
    for i in range(PAIRS_PER_SOURCE):
        sku = source_index * 1000 + i
        frames.append(("ORDER", {"ts": 2 * i, "sku": sku}))
        frames.append(("SHIP", {"ts": 2 * i + 1, "sku": sku}))
    return frames


def oracle_truth(schema: StreamSchema):
    events = []
    for index in range(len(SOURCES)):
        for etype, attrs in frames_for(index):
            events.append(schema.build_event(etype, dict(attrs)))
    return OfflineOracle(parse(QUERY)).evaluate_set(events)


def run_drill(directory: Path) -> None:
    # Crash the gateway after the 60th WAL element: mid-ingest, with
    # every client still holding unacked frames in flight.
    first = build_gateway(directory, fault=FaultInjector(crash_at=[60]))
    handle = serve_in_thread(first)
    port = handle.port
    print(f"gateway listening on 127.0.0.1:{port} (WAL in {directory.name}/)")

    restarted = {}

    def watchdog():
        while not first.crashed:
            time.sleep(0.005)
        handle.stop(seal=False)
        second = build_gateway(directory, port=port)
        print(
            f"gateway crashed and restarted on :{port} — "
            f"replayed {second.recovered_frames} WAL frames"
        )
        restarted["gateway"] = second
        restarted["handle"] = serve_in_thread(second)

    supervisor = threading.Thread(target=watchdog, daemon=True)
    supervisor.start()

    # warehouse-3's client is deliberately unreliable: it tears the
    # connection after frame 10 (acks lost, must resend) and sends
    # frame 5 twice.  Admission absorbs both.
    plans = {
        "warehouse-3": ClientFaultPlan(torn_after_send=[10], duplicate_send=[5])
    }
    # Connect every client before any of them streams: the hello
    # registers each source in the min-merge, so no source can race
    # punctuation past a sibling that has not spoken yet.
    clients = {
        name: IngestClient(
            "127.0.0.1", port, name, "shipments",
            window=16, fault_plan=plans.get(name),
        )
        for name in SOURCES
    }
    for client in clients.values():
        client.connect()
    reports = {}

    def drive(index: int, name: str):
        client = clients[name]
        for etype, attrs in frames_for(index):
            client.send(etype, dict(attrs))
        reports[name] = client.close()

    threads = [
        threading.Thread(target=drive, args=(index, name))
        for index, name in enumerate(SOURCES)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    supervisor.join(timeout=10.0)
    second = restarted["gateway"]

    # Scrape the restarted incarnation's live telemetry before it
    # stops: the sidecar shares the gateway's loop, so a scrape never
    # blocks admission.
    t_port = second.telemetry_port
    __, health_body = http_get("127.0.0.1", t_port, "/healthz")
    health = json.loads(health_body)
    __, metrics_body = http_get("127.0.0.1", t_port, "/metrics")
    stage_samples = sum(
        1 for line in metrics_body.splitlines()
        if line.startswith("repro_stage_seconds")
    )
    print(
        f"telemetry on :{t_port} — status={health['status']} "
        f"watermark={health['watermark']} "
        f"({stage_samples} stage-latency samples on /metrics)"
    )
    restarted["handle"].stop(seal=True)

    total = len(SOURCES) * 2 * PAIRS_PER_SOURCE
    for name in SOURCES:
        report = reports[name]
        print(
            f"  {name}: admitted={report.admitted} duplicates={report.duplicates} "
            f"reconnects={report.reconnects} resends={report.resends}"
        )
    admitted = second.recovered_frames + second.admission.admitted
    print(f"distinct frames through admission: {admitted}/{total}")

    # Exactly-once delivery: a gateway keeps a count of what it
    # delivered, never the matches — they are read from the delivery
    # log, the one record across incarnations (it is what kept the
    # second gateway from re-delivering the first one's matches).
    before = first.stats()["matches"]
    after = second.stats()["matches"]
    delivered = delivered_keys(directory)
    truth = oracle_truth(build_schema())
    print(f"matches before crash: {before}, after recovery: {after}")
    print(f"delivered twice: {before + after - len(delivered)} (want 0)")
    print(f"union equals oracle truth: {delivered == truth} "
          f"({len(delivered)}/{len(truth)})")

    # The black box: the crashed incarnation dumped its flight ring on
    # the way down; this is the same analysis `repro explain --flight`
    # runs post mortem.
    dump = directory / "flight.jsonl"
    header, records = load_flight(dump.read_text(encoding="utf-8"))
    report = analyze_flight(header, records)
    print(
        f"flight recording: {len(records)} records "
        f"(reason: {header['reason']}, seq {header['seq']})"
    )
    print(f"proximate stall: {report.verdict} — {report.cause}")
    print(f"inspect it yourself: python -m repro explain --flight {dump}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument(
        "--keep", metavar="DIR", default=None,
        help="run in DIR and keep the WAL + flight dump (CI artifacts)",
    )
    args = parser.parse_args()
    if args.keep:
        directory = Path(args.keep)
        directory.mkdir(parents=True, exist_ok=True)
        run_drill(directory)
        print(f"kept WAL and flight dump in {directory}/")
    else:
        with tempfile.TemporaryDirectory() as tmp:
            run_drill(Path(tmp))


if __name__ == "__main__":
    main()
