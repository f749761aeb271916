"""Command-line interface: evaluate, generate, serve, and inspect traces.

The subcommands mirror the operational workflow the examples walk
through::

    python -m repro generate --workload synthetic --events 5000 \\
        --disorder 0.3:25 --out trace.jsonl
    python -m repro inspect trace.jsonl
    python -m repro run --query "PATTERN SEQ(T1 a, T2 b, T3 c) \\
        WHERE a.part == b.part AND b.part == c.part WITHIN 50" \\
        --trace trace.jsonl --engine ooo --k 25 --verify

``run --verify`` compares the engine's output against the offline
oracle and reports recall/precision — the one-command reproduction of
the paper's correctness story on any recorded trace.

The ingestion pair puts a network front door on the same machinery::

    python -m repro serve --schema orders.schema.json --query "..." \\
        --k 25 --dir /var/lib/repro/orders --port 7071
    python -m repro send --port 7071 --source s1 --stream orders \\
        --trace trace.jsonl

``serve`` runs the fault-tolerant gateway (idempotent admission,
per-source liveness, backpressure, WAL-backed durability); ``send``
replays a trace file through the retrying client.  ``explain
--gateway DIR`` prints the gateway journal's liveness/crash timeline.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

from repro.bench import ENGINE_NAMES, make_engine
from repro.core.engine import ValidationPolicy
from repro.core.errors import ReproError
from repro.core.oracle import OfflineOracle
from repro.core.parser import parse
from repro.core.purge import PurgePolicy
from repro.core.recovery import ResilientRunner, delivered_keys
from repro.core.shedding import ShedPolicy
from repro.faultinject import FaultInjector
from repro.ingest.backoff import BackoffPolicy, run_resilient
from repro.metrics import compare_keys, render_table, summarize_arrival_latency
from repro.streams import (
    BurstDropoutModel,
    NoDisorder,
    RandomDelayModel,
    dump_trace,
    load_trace,
    measure_disorder,
)
from repro.workloads import (
    IntrusionGenerator,
    RfidStoreGenerator,
    StockFeedGenerator,
    SyntheticWorkload,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Out-of-order complex event processing (ICDCS 2007 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="evaluate a pattern query over a trace")
    run.add_argument("--query", required=True, help="query text in the PATTERN language")
    run.add_argument("--trace", required=True, help="JSON-lines trace file (see `generate`)")
    run.add_argument(
        "--engine",
        default="ooo",
        choices=ENGINE_NAMES,
    )
    run.add_argument("--k", type=int, default=None, help="disorder bound K")
    run.add_argument(
        "--purge", default="eager", help="purge policy: eager | lazy:<interval> | none"
    )
    run.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="feed in batches of N events (0 = per-event feed; default: one batch)",
    )
    run.add_argument(
        "--workers", type=int, default=1,
        help="worker count for --engine parallel (1 = serial fallback)",
    )
    run.add_argument(
        "--backend", default=None, choices=["thread", "process"],
        help="worker backend for --engine parallel (default: thread)",
    )
    run.add_argument(
        "--no-index", action="store_true",
        help="disable equality-index pushdown in sequence construction "
             "(E19 ablation; results are identical, only cost changes)",
    )
    run.add_argument("--verify", action="store_true", help="compare against the offline oracle")
    run.add_argument("--show-matches", type=int, default=5, metavar="N",
                     help="print the first N matches (0 = none)")
    run.add_argument(
        "--validate", default="raise", choices=["raise", "quarantine"],
        help="admission policy for malformed events: reject the stream "
             "(raise) or count-and-skip (quarantine)",
    )
    run.add_argument(
        "--max-state", type=int, default=None, metavar="N",
        help="shed oldest stored events when engine state exceeds N "
             "(ooo engine; degrades recall, bounds memory)",
    )
    run.add_argument(
        "--speculative", action="store_true",
        help="emit matches optimistically ahead of their seal, with "
             "retraction records when a late event invalidates one "
             "(ooo/partitioned engines; sealed output is unchanged)",
    )
    run.add_argument(
        "--quality-target", type=float, default=None, metavar="Q",
        help="attach an adaptive-K controller targeting fraction Q of "
             "events admitted in time; K (and, with --speculative, the "
             "optimistic/pessimistic choice) is re-frozen at punctuation "
             "boundaries (--k then sets the cold-start floor)",
    )
    run.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="run under the resilient runner, checkpointing every N elements "
             "(requires --checkpoint-dir)",
    )
    run.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="directory for wal.jsonl/checkpoint.bin/delivered.jsonl; if it "
             "holds state from a crashed run, recovery happens first",
    )
    run.add_argument(
        "--crash-at", type=int, default=None, metavar="I",
        help="inject a crash at input element I (0-based), then recover "
             "automatically and finish the run — a live fire drill of the "
             "checkpoint/replay path",
    )
    run.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="instrument the engine and write metrics snapshots as JSON "
             "lines to FILE, plus a Prometheus text exposition to FILE.prom",
    )
    run.add_argument(
        "--metrics-every", type=int, default=0, metavar="N",
        help="with --metrics-out: emit a JSON-lines snapshot every N input "
             "elements (0 = final snapshot only; forces per-element feed)",
    )

    generate = commands.add_parser("generate", help="write a workload trace file")
    generate.add_argument(
        "--workload",
        default="synthetic",
        choices=["synthetic", "rfid", "intrusion", "stock"],
    )
    generate.add_argument("--events", type=int, default=5000,
                          help="event count (synthetic/stock) or item count (rfid)")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--disorder",
        default="none",
        help="arrival disorder: none | <rate>:<max_delay> | burst:<rate>:<len>",
    )
    generate.add_argument("--out", required=True, help="output JSON-lines path")

    inspect = commands.add_parser("inspect", help="summarise a trace file")
    inspect.add_argument("trace", help="JSON-lines trace path")

    explain = commands.add_parser(
        "explain",
        help="replay a trace with lifecycle tracing and explain why matches "
             "were emitted — or, with --missing, why the engine missed them",
    )
    explain.add_argument("--query", default=None, help="query text in the PATTERN language")
    explain.add_argument("--trace", default=None, help="JSON-lines trace file")
    explain.add_argument(
        "--engine", default="ooo",
        choices=["ooo", "inorder", "reorder"],
        help="engine family to replay under (families sharing one tracer)",
    )
    explain.add_argument("--k", type=int, default=None, help="disorder bound K")
    explain.add_argument(
        "--purge", default="eager", help="purge policy: eager | lazy:<interval> | none"
    )
    explain.add_argument(
        "--match", default=None, metavar="EIDS",
        help="comma-separated event ids; explain emitted matches whose "
             "contributing events include all of them",
    )
    explain.add_argument(
        "--missing", action="store_true",
        help="diff against the offline oracle and explain matches the "
             "engine failed to emit",
    )
    explain.add_argument(
        "--limit", type=int, default=3, metavar="N",
        help="explain at most N matches per category",
    )
    explain.add_argument(
        "--capacity", type=int, default=None, metavar="N",
        help="tracer ring size in spans (default: ~8 per trace element)",
    )
    explain.add_argument(
        "--gateway", default=None, metavar="DIR",
        help="print the gateway journal timeline (liveness transitions, "
             "crashes, recoveries) from DIR/gateway.jsonl; may be used "
             "alone or alongside a query replay",
    )
    explain.add_argument(
        "--flight", default=None, metavar="DUMP",
        help="post-mortem a flight-recorder dump (flight.jsonl): "
             "reconstruct the last per-source timelines and name the "
             "proximate stall; may be used alone or with --gateway",
    )

    serve = commands.add_parser(
        "serve",
        help="run the fault-tolerant ingestion gateway in front of an engine",
    )
    serve.add_argument("--schema", required=True,
                       help="stream schema JSON (repro-streamspec-v1)")
    serve.add_argument("--query", required=True, help="query text in the PATTERN language")
    serve.add_argument(
        "--engine", default="ooo",
        choices=["ooo", "inorder", "reorder", "partitioned"],
    )
    serve.add_argument("--k", type=int, default=None, help="disorder bound K")
    serve.add_argument(
        "--purge", default="eager", help="purge policy: eager | lazy:<interval> | none"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (0 = ephemeral, printed at start)")
    serve.add_argument(
        "--dir", default=None, metavar="DIR",
        help="durability directory (WAL/checkpoint/journal); state found "
             "there is recovered before listening",
    )
    serve.add_argument("--liveness-timeout", type=float, default=2.0, metavar="S",
                       help="seconds of silence before a source is degraded")
    serve.add_argument("--dedupe-window", type=int, default=4096, metavar="N",
                       help="idempotency window capacity, shared by every source")
    serve.add_argument(
        "--max-state", type=int, default=None, metavar="N",
        help="shed policy bound; enables the backpressure ladder "
             "(throttle hints, busy refusals) as state approaches N",
    )
    serve.add_argument("--checkpoint-every", type=int, default=256, metavar="N")
    serve.add_argument(
        "--telemetry-port", type=int, default=None, metavar="P",
        help="serve /metrics, /healthz, /sources on this port "
             "(0 = ephemeral, printed at start); also enables the "
             "metrics registry and stage-latency spans",
    )
    serve.add_argument(
        "--flight", action="store_true",
        help="keep a crash flight recorder; dumps DIR/flight.jsonl on "
             "crash or SIGTERM (requires --dir for the dump)",
    )

    send = commands.add_parser(
        "send", help="replay a trace file through the retrying gateway client"
    )
    send.add_argument("--host", default="127.0.0.1")
    send.add_argument("--port", type=int, required=True)
    send.add_argument("--source", required=True, help="this client's source id")
    send.add_argument("--stream", required=True, help="stream name (must match the schema)")
    send.add_argument("--trace", required=True, help="JSON-lines trace file to send")
    send.add_argument(
        "--t-event", default="ts", metavar="FIELD",
        help="attribute name carrying the occurrence timestamp; filled "
             "from each event's ts when absent from its attrs",
    )
    send.add_argument("--window", type=int, default=32,
                      help="max unacked frames in flight")
    send.add_argument("--timeout", type=float, default=5.0)
    send.add_argument("--stats", action="store_true",
                      help="fetch and print gateway counters after sending")

    return parser


def _parse_purge(text: str) -> PurgePolicy:
    if text == "eager":
        return PurgePolicy.eager()
    if text == "none":
        return PurgePolicy.none()
    if text.startswith("lazy:"):
        return PurgePolicy.lazy(int(text.split(":", 1)[1]))
    raise ReproError(f"unknown purge policy {text!r} (eager | lazy:<n> | none)")


def _parse_disorder(text: str):
    if text == "none":
        return NoDisorder()
    if text.startswith("burst:"):
        __, rate, length = text.split(":")
        return BurstDropoutModel(float(rate), int(length))
    rate, max_delay = text.split(":")
    return RandomDelayModel(float(rate), int(max_delay))


def _command_run(args: argparse.Namespace) -> int:
    pattern = parse(args.query)
    elements = load_trace(args.trace)
    purge = _parse_purge(args.purge)
    shed = (
        ShedPolicy.drop_oldest(args.max_state) if args.max_state is not None else None
    )
    controller = None
    if args.quality_target is not None:
        from repro.streams import AdaptiveKController

        controller = AdaptiveKController(
            quality_target=args.quality_target,
            initial_k=args.k if args.k is not None else 0,
        )

    def build_engine():
        engine = make_engine(
            args.engine, pattern, k=args.k, purge=purge,
            index=not args.no_index,
            workers=args.workers, backend=args.backend, shed=shed,
            speculative=args.speculative, controller=controller,
        )
        if args.validate == "quarantine":
            engine.validation = ValidationPolicy.QUARANTINE
        if args.metrics_out is not None:
            from repro.obs import MetricsRegistry

            # A fresh registry per build: after a crash, the rebuilt
            # engine's restore repopulates it from the checkpoint.
            engine.enable_observability(metrics=MetricsRegistry())
        return engine

    metrics_writer = None
    metrics_sink = None
    if args.metrics_out is not None:
        from repro.obs.export import MetricsJsonWriter

        metrics_sink = open(args.metrics_out, "w", encoding="utf-8")
        metrics_writer = MetricsJsonWriter(metrics_sink)

    resilient = args.checkpoint_every is not None or args.crash_at is not None
    latency_scope = "events"
    if resilient:
        if args.checkpoint_dir is None:
            raise ReproError("--checkpoint-every/--crash-at require --checkpoint-dir")
        interval = args.checkpoint_every if args.checkpoint_every is not None else 1000
        fault = (
            FaultInjector(crash_at=[args.crash_at])
            if args.crash_at is not None
            else None
        )
        def build_runner() -> ResilientRunner:
            return ResilientRunner(
                build_engine(), args.checkpoint_dir,
                checkpoint_every=interval, fault=fault,
            )

        def note_crash(attempt: int, delay: float, exc: BaseException) -> None:
            print(f"crash injected: {exc}")
            print(f"recovering from {args.checkpoint_dir} ...")

        # The same supervisor loop the ingestion gateway deployments use:
        # rebuild-and-resume under the shared backoff schedule.
        runner, crashes = run_resilient(
            build_runner, elements,
            policy=BackoffPolicy(base=0.01, cap=0.1, jitter=0.0),
            on_crash=note_crash,
        )
        engine = runner.engine
        # The runner took every match it delivered: report deliveries
        # (all incarnations), not what the engine still remembers.
        matches, emissions = runner.matches, runner.emissions
        match_count = runner.delivered_count
        if crashes:
            print(
                f"recovered {crashes} time(s): replayed "
                f"{runner.replayed_elements} logged elements"
            )
            latency_scope = "events, since recovery"
    else:
        engine = build_engine()
        if metrics_writer is not None and args.metrics_every > 0:
            _feed_with_periodic_metrics(
                engine, elements, args.metrics_every, metrics_writer
            )
        elif args.batch_size is None:
            engine.feed_batch(elements)
        elif args.batch_size <= 0:
            for element in elements:
                engine.feed(element)
        else:
            for lo in range(0, len(elements), args.batch_size):
                engine.feed_batch(elements[lo : lo + args.batch_size])
        engine.close()
        matches, emissions = engine.results, engine.emissions
        match_count = len(matches)

    if metrics_writer is not None:
        _export_metrics(
            engine, len(elements), args.metrics_out, metrics_writer, metrics_sink
        )

    from repro.core.event import Event

    events_only = [e for e in elements if isinstance(e, Event)]
    latency = summarize_arrival_latency(emissions, events_only)
    rows = [
        ["events", len(events_only)],
        ["matches", match_count],
        ["late dropped", engine.stats.late_dropped],
        ["quarantined", engine.stats.events_quarantined],
        ["shed", engine.stats.events_shed],
        ["index hits", engine.stats.index_hits],
        ["index misses", engine.stats.index_misses],
        ["peak state", engine.stats.peak_state_size],
        [f"mean latency ({latency_scope})", round(latency.mean, 2)],
        [f"p99 latency ({latency_scope})", round(latency.p99, 2)],
    ]
    if args.speculative:
        from repro.bench.runner import speculation_counts

        speculated, retracted = speculation_counts(engine)
        rows.append(["speculative emissions", speculated])
        rows.append(["retractions", retracted])
    if args.quality_target is not None:
        live = getattr(engine, "_controller", None)
        if live is not None:
            rows.append(["K re-freezes", live.adjustments])
            rows.append(["final K", engine.clock.k])
    if resilient:
        rows.append(["checkpoints written", runner.checkpoints_written])
    if args.verify:
        truth = OfflineOracle(pattern).evaluate_set(events_only)
        if resilient:
            # Exactly-once delivery across crashes: the delivery log.
            produced = delivered_keys(args.checkpoint_dir)
        else:
            produced = engine.result_set()
        report = compare_keys(truth, produced, shed=engine.stats.events_shed)
        rows.append(["oracle matches", len(truth)])
        rows.append(["recall", round(report.recall, 4)])
        rows.append(["precision", round(report.precision, 4)])
    print(render_table(f"{args.engine} on {args.trace}", ["metric", "value"], rows))
    for match in matches[: args.show_matches]:
        print(f"  {match!r}")
    if args.verify and not report.exact:
        return 1
    return 0


def _feed_with_periodic_metrics(engine, elements, every: int, series) -> None:
    """Per-element feed writing a JSON-lines metrics snapshot every *every*.

    The final boundary is deliberately left to :meth:`MetricsJsonWriter.
    close`: the last snapshot of the series must be the post-close
    registry (it includes seal-time emissions), whether or not the trace
    length lands on the cadence — and a run whose length is NOT a
    multiple of *every* still gets its trailing partial interval.
    """
    total = len(elements)
    for index, element in enumerate(elements, start=1):
        engine.feed(element)
        if index % every == 0 and index < total:
            series.write(index, engine.observability.registry)


def _export_metrics(engine, total: int, out_path: str, series, sink) -> None:
    """Seal the JSON-lines series and write the Prometheus exposition."""
    from repro.obs.export import render_prometheus

    registry = engine.observability.registry
    series.close(total, registry)
    sink.close()
    prom_path = out_path + ".prom"
    with open(prom_path, "w", encoding="utf-8") as handle:
        handle.write(render_prometheus(registry))
    print(
        f"metrics: {series.written} JSON snapshot(s) -> {out_path}; "
        f"exposition -> {prom_path}"
    )


def _print_gateway_journal(directory: str) -> int:
    """Render DIR/gateway.jsonl as a human timeline; 0 when it exists."""
    import json
    from pathlib import Path

    path = Path(directory) / "gateway.jsonl"
    if not path.exists():
        print(f"no gateway journal at {path}")
        return 1
    print(f"gateway journal {path}:")
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            print(f"  (torn record: {line[:60]!r})")
            continue
        kind = record.get("kind", "?")
        if kind == "transition":
            print(
                f"  source {record.get('source')!r} -> {record.get('status')} "
                f"at {record.get('at')} (merged watermark {record.get('watermark')})"
            )
        elif kind == "listen":
            print(f"  listening on {record.get('host')}:{record.get('port')}")
        elif kind == "crash":
            print(f"  CRASH at seq {record.get('seq')}")
        elif kind == "recover":
            line = f"  recovered: {record.get('frames')} frames already in the WAL"
            if record.get("sources"):
                line += (
                    f"; watermark resumed at {record.get('watermark')} holding "
                    f"for {', '.join(record['sources'])}"
                )
            print(line)
        elif kind == "source":
            print(f"  source {record.get('source')!r} first seen")
        elif kind == "seal":
            print(f"  sealed: {record.get('matches')} matches delivered")
        else:
            print(f"  {record}")
    return 0


def _print_flight_dump(path_arg: str) -> int:
    """Post-mortem a flight.jsonl dump; 0 when it exists and parses."""
    from pathlib import Path

    from repro.obs.flight import load_flight, render_flight_lines

    path = Path(path_arg)
    if path.is_dir():
        path = path / "flight.jsonl"
    if not path.exists():
        print(f"no flight dump at {path}")
        return 1
    header, records = load_flight(path.read_text(encoding="utf-8"))
    print("\n".join(render_flight_lines(header, records)))
    return 0


def _command_explain(args: argparse.Namespace) -> int:
    from repro.obs import explain as explain_mod

    sidecar_status = None
    if args.flight is not None:
        sidecar_status = _print_flight_dump(args.flight)
    if args.gateway is not None:
        if sidecar_status is not None:
            print()
        journal_status = _print_gateway_journal(args.gateway)
        sidecar_status = max(sidecar_status or 0, journal_status)
    if args.query is None or args.trace is None:
        if sidecar_status is not None:
            return sidecar_status
        raise ReproError(
            "explain needs --query and --trace "
            "(or --gateway DIR / --flight DUMP)"
        )
    if sidecar_status is not None:
        print()
    pattern = parse(args.query)
    elements = load_trace(args.trace)
    engine = make_engine(
        args.engine, pattern, k=args.k, purge=_parse_purge(args.purge)
    )
    tracer = explain_mod.replay_with_tracing(engine, elements, capacity=args.capacity)
    print("\n".join(explain_mod.summary_lines(tracer)))
    print()

    status = 0
    if args.match is not None:
        try:
            eids = [int(part) for part in args.match.split(",") if part.strip()]
        except ValueError:
            raise ReproError(f"--match expects comma-separated event ids, got {args.match!r}")
        targets = explain_mod.emitted_matches(engine, eids)
        if not targets:
            print(f"no emitted match contains event ids {eids}")
            status = 1
        for match in targets[: args.limit]:
            print(explain_mod.explain_match(tracer, match))
            print()
    if args.missing:
        missing, total = explain_mod.missing_matches(pattern, elements, engine)
        print(f"oracle: {total} matches, engine missed {len(missing)}")
        for match in missing[: args.limit]:
            print(explain_mod.explain_missing(tracer, match))
            print()
    if args.match is None and not args.missing:
        for match in explain_mod.emitted_matches(engine)[: args.limit]:
            print(explain_mod.explain_match(tracer, match))
            print()
    return status


def _command_generate(args: argparse.Namespace) -> int:
    if args.workload == "synthetic":
        workload = SyntheticWorkload(
            event_count=args.events, seed=args.seed,
            disorder=_parse_disorder(args.disorder),
        )
        __, arrival = workload.generate()
        print(f"query hint: {workload.query!r}")
    elif args.workload == "rfid":
        trace = RfidStoreGenerator(items=args.events, seed=args.seed).generate()
        arrival = _parse_disorder(args.disorder).apply(trace.merged)
        print(f"ground truth: {len(trace.shoplifted_tags)} shoplifted tags")
    elif args.workload == "intrusion":
        trace = IntrusionGenerator(seed=args.seed).generate()
        arrival = _parse_disorder(args.disorder).apply(trace.events)
        print(
            f"ground truth: {len(trace.brute_force_sources)} brute-force, "
            f"{len(trace.exfiltration_sources)} exfiltration attackers"
        )
    else:
        events = StockFeedGenerator(count=args.events, seed=args.seed).generate()
        arrival = _parse_disorder(args.disorder).apply(events)
    count = dump_trace(arrival, args.out)
    stats = measure_disorder(arrival)
    print(f"wrote {count} events to {args.out}")
    print(f"disorder: rate={stats.rate:.3f} max_delay={stats.max_delay}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.ingest import GatewayConfig, IngestGateway, load_schema

    pattern = parse(args.query)
    schema = load_schema(args.schema)
    shed = (
        ShedPolicy.drop_oldest(args.max_state) if args.max_state is not None else None
    )
    purge = _parse_purge(args.purge)

    def build_engine():
        return make_engine(
            args.engine, pattern, k=args.k, purge=purge, shed=shed
        )

    config = GatewayConfig(
        schema,
        host=args.host,
        port=args.port,
        dedupe_window=args.dedupe_window,
        liveness_timeout=args.liveness_timeout,
        checkpoint_every=args.checkpoint_every,
        telemetry_port=args.telemetry_port,
    )
    metrics = None
    if args.telemetry_port is not None:
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
    flight = None
    if args.flight:
        from repro.obs.flight import FlightRecorder

        flight = FlightRecorder()
    gateway = IngestGateway(
        build_engine, config, directory=args.dir, metrics=metrics, flight=flight
    )

    async def serve() -> None:
        await gateway.start()
        print(
            f"gateway: stream {schema.name!r} on {config.host}:{gateway.port}"
            + (f", durable in {args.dir}" if args.dir else " (no durability dir)")
        )
        if config.telemetry_port is not None:
            print(
                f"telemetry: http://{config.host}:{gateway.telemetry_port}"
                "/metrics /healthz /sources"
            )
        if gateway.recovered_frames:
            print(f"recovered: {gateway.recovered_frames} frames already in the WAL")
        try:
            while not gateway.crashed and not gateway.terminated:
                await asyncio.sleep(0.25)
        finally:
            # Reached on Ctrl-C (asyncio.run cancels us) or crash.
            await gateway.stop(seal=not gateway.crashed)

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    stats = gateway.stats()
    rows = [
        ["admitted", stats["admitted"]],
        ["duplicates", stats["duplicates"]],
        ["quarantined", stats["quarantined"]],
        ["busy refusals", stats["busy"]],
        ["sources degraded", stats["degraded_total"]],
        ["sources recovered", stats["recovered_total"]],
        ["final watermark", stats["watermark"]],
        ["matches", stats["matches"]],
    ]
    print(render_table(f"gateway {schema.name!r}", ["metric", "value"], rows))
    return 1 if gateway.crashed else 0


def _command_send(args: argparse.Namespace) -> int:
    from repro.core.event import Event
    from repro.ingest import IngestClient

    elements = load_trace(args.trace)
    client = IngestClient(
        args.host, args.port, args.source, args.stream,
        timeout=args.timeout, window=args.window,
    )
    client.connect()
    sent = 0
    for element in elements:
        if isinstance(element, Event):
            attrs = dict(element.attrs)
            attrs.setdefault(args.t_event, element.ts)
            client.send(element.etype, attrs)
            sent += 1
        else:
            client.watermark(element.ts)
    stats = client.stats() if args.stats else None
    report = client.close()
    rows = [
        ["frames sent", report.sent],
        ["admitted", report.admitted],
        ["duplicates", report.duplicates],
        ["quarantined", report.quarantined],
        ["busy retries", report.busy_retries],
        ["reconnects", report.reconnects],
        ["resends", report.resends],
        ["p50 ack latency (s)", round(report.latency_quantile(0.50), 6)],
        ["p99 ack latency (s)", round(report.latency_quantile(0.99), 6)],
    ]
    print(render_table(f"sent {args.trace} as {args.source!r}", ["metric", "value"], rows))
    if stats is not None:
        print(
            f"gateway totals: admitted={stats['admitted']} "
            f"duplicates={stats['duplicates']} quarantined={stats['quarantined']} "
            f"watermark={stats['watermark']}"
        )
    return 0


def _command_inspect(args: argparse.Namespace) -> int:
    from repro.core.event import Event, Punctuation

    elements = load_trace(args.trace)
    events = [e for e in elements if isinstance(e, Event)]
    punctuations = [e for e in elements if isinstance(e, Punctuation)]
    stats = measure_disorder(events)
    by_type: dict = {}
    for event in events:
        by_type[event.etype] = by_type.get(event.etype, 0) + 1
    rows = [
        ["events", len(events)],
        ["punctuations", len(punctuations)],
        ["types", len(by_type)],
        ["ts range", f"{min((e.ts for e in events), default=0)}.."
                     f"{max((e.ts for e in events), default=0)}"],
        ["disorder rate", round(stats.rate, 4)],
        ["max delay (required K)", stats.max_delay],
        ["mean delay", round(stats.mean_delay, 2)],
    ]
    print(render_table(f"trace {args.trace}", ["metric", "value"], rows))
    type_rows = sorted(by_type.items(), key=lambda kv: -kv[1])
    print(render_table("events by type", ["type", "count"], type_rows))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _command_run(args)
        if args.command == "generate":
            return _command_generate(args)
        if args.command == "explain":
            return _command_explain(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "send":
            return _command_send(args)
        return _command_inspect(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
