"""The system under test, in its own process.

``run.py`` starts this with a JSON config, talks to it over pipes and —
for serve workloads — over the gateway's TCP port.  The launcher builds
the gateway or engine from public constructors only, so it keeps running
while the code under ``src/`` is rewritten.

Protocol (one JSON object per line on stdout; commands on stdin):

* on start: ``{"ready": ...}`` once the gateway listens / the first
  batch is about to be fed;
* ``report`` → a report line; the process keeps serving (the driver asks
  for it right before a SIGKILL, which leaves no other way to be heard);
* ``seal`` (or stdin EOF) → seal, final report line, exit.

Matches are appended to the sink file the instant ``runner.feed``
returns them, stamped with ``time.monotonic_ns()`` — the same
``CLOCK_MONOTONIC`` the load generator stamps due times with.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from repro.bench.runner import make_engine  # noqa: E402
from repro.core.colbatch import EventBatch  # noqa: E402
from repro.core.engine import OutOfOrderEngine  # noqa: E402
from repro.core.errors import ReproError  # noqa: E402
from repro.core.event import Event  # noqa: E402
from repro.core.parser import parse  # noqa: E402
from repro.core.recovery import ResilientRunner, read_wal_elements  # noqa: E402
from repro.ingest.admission import AdmissionController  # noqa: E402
from repro.ingest.liveness import LivenessTracker  # noqa: E402
from repro.ingest.schema import StreamSchema  # noqa: E402
from repro.ingest.server import GatewayConfig, IngestGateway  # noqa: E402
from repro.metrics.latency import summarize_arrival_latency  # noqa: E402
from repro.streams.punctuation import SourceWatermarks  # noqa: E402
from repro.workloads.synthetic import chain_query  # noqa: E402

from inputs import make_schema  # noqa: E402
from reference import match_id  # noqa: E402
from spec import percentile  # noqa: E402
from spans import Recorder  # noqa: E402

#: (class, public method, span label).  Labels are ``<module>.<method>``.
GATEWAY_SPANS = (
    (IngestGateway, "admit_frame", "ingest.server.admit_frame"),
    (IngestGateway, "sync_acks", "ingest.server.sync_acks"),
    (StreamSchema, "check_frame", "ingest.schema.check_frame"),
    (StreamSchema, "idempotency_id", "ingest.schema.idempotency_id"),
    (StreamSchema, "build_event", "ingest.schema.build_event"),
    (AdmissionController, "admit", "ingest.admission.admit"),
    (LivenessTracker, "observe", "ingest.liveness.observe"),
    (SourceWatermarks, "advance", "streams.punctuation.advance"),
    (ResilientRunner, "feed", "core.recovery.feed"),
    (ResilientRunner, "sync", "core.recovery.sync"),
    (ResilientRunner, "checkpoint", "core.recovery.checkpoint"),
)
ENGINE_SPANS = (
    ("feed", "core.engine.feed"),
    ("snapshot", "core.engine.snapshot"),
    ("restore", "core.engine.restore"),
)


def say(message: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(message, sort_keys=True) + "\n")
    sys.stdout.flush()


def max_rss_kb() -> int:
    """This process's own peak RSS.

    Not ``ru_maxrss`` where it can be helped: at exec the kernel folds the
    *spawning* process's high-water mark into it, so a launcher started by
    a generator holding 200 MB of frames would report the generator.
    ``VmHWM`` belongs to the address space exec created.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- serve workloads -------------------------------------------------------------------


class MatchSink:
    """Downstream consumer: one ``eid,eid,... stamp_ns`` line per match."""

    def __init__(self, path: str):
        self._handle = open(path, "a", encoding="utf-8")

    def emit(self, matches: List[Any], at_seal: bool = False) -> None:
        stamp = 0 if at_seal else time.monotonic_ns()
        write = self._handle.write
        for match in matches:
            write(",".join(map(str, match_id(match))) + f" {stamp}\n")

    def flush(self) -> None:
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()


def tap_runner(runner_cls: type, sink: MatchSink) -> None:
    """Stamp and sink every match the runner delivers."""
    inner = runner_cls.feed
    emit = sink.emit

    def feed(self: Any, element: Any) -> List[Any]:
        out = inner(self, element)
        if out:
            emit(out)
        return out

    runner_cls.feed = feed  # type: ignore[assignment]


def directory_sizes(directory: Optional[str]) -> Dict[str, int]:
    if directory is None or not os.path.isdir(directory):
        return {}
    return {
        entry.name: entry.stat().st_size
        for entry in os.scandir(directory)
        if entry.is_file()
    }


class GatewayProcess:
    """One gateway incarnation plus the bookkeeping the reports need."""

    def __init__(self, cfg: Dict[str, Any]):
        self.cfg = cfg
        self.recorder: Optional[Recorder] = Recorder() if cfg["trace"] else None
        pattern = parse(cfg["query"])
        k = cfg["k"]

        def make() -> Any:
            return OutOfOrderEngine(pattern, k=k)

        if self.recorder is not None:
            for cls, attr, label in GATEWAY_SPANS:
                self.recorder.wrap_method(cls, attr, label)
            engine_cls = type(make())
            for attr, label in ENGINE_SPANS:
                self.recorder.wrap_method(engine_cls, attr, label)
        config = GatewayConfig(make_schema(cfg["max_delay"]), liveness_timeout=60.0)
        self.directory: Optional[str] = cfg["directory"]
        # The constructor *is* recovery when the directory holds a killed
        # run; it only reads, so repeating it gives a steadier number.
        timings = []
        for _ in range(cfg["ctor_repeats"]):
            started = time.monotonic()
            gateway = IngestGateway(make, config, directory=self.directory)
            timings.append(time.monotonic() - started)
        self.gateway = gateway
        self.ctor_s = statistics.median(timings)
        self.sink = MatchSink(cfg["sink"])
        tap_runner(type(gateway.runner), self.sink)
        self.cpu0 = 0.0
        self.mark0 = 0

    def ready(self) -> Dict[str, Any]:
        gateway, recorder = self.gateway, self.recorder
        runner = gateway.runner
        message: Dict[str, Any] = {
            "ready": True,
            "port": gateway.port,
            "ctor_s": self.ctor_s,
            "replayed": getattr(runner, "replayed_elements", 0),
        }
        if recorder is not None:
            restores = recorder.durations("core.engine.restore")
            message["restore_ms"] = restores[0] / 1e6 if restores else 0.0
            message["wal_elements"] = (
                len(read_wal_elements(self.directory)) if self.directory else 0
            )
        return message

    def start_clock(self) -> None:
        self.cpu0 = time.process_time()
        if self.recorder is not None:
            self.mark0 = self.recorder.mark()

    def report(self) -> Dict[str, Any]:
        cpu = time.process_time() - self.cpu0
        gateway, recorder = self.gateway, self.recorder
        self.sink.flush()
        admission = gateway.admission
        engine = gateway.engine
        runner = gateway.runner
        message: Dict[str, Any] = {
            "report": True,
            "busy_cpu_s": cpu,
            "maxrss_kb": max_rss_kb(),
            "admitted": admission.admitted,
            "duplicates": admission.duplicates,
            "quarantined": admission.quarantined,
            "engine_stats": engine.stats.as_dict(),
            "results_retained": len(getattr(engine, "results", ())),
            "checkpoints": getattr(runner, "checkpoints_written", 0),
            "disk": directory_sizes(self.directory),
        }
        if recorder is not None:
            summary = recorder.summarize(self.mark0)
            message["spans"] = summary["labels"]
            message["top_level_ns"] = summary["top_level_ns"]
            checkpoints = recorder.durations("core.recovery.checkpoint", self.mark0)
            message["checkpoint_ms_first"] = checkpoints[0] / 1e6 if checkpoints else 0.0
            message["checkpoint_ms_last"] = checkpoints[-1] / 1e6 if checkpoints else 0.0
            if self.cfg.get("trace_out"):
                recorder.write(
                    self.cfg["trace_out"],
                    {"workload": self.cfg["workload"], "pid": os.getpid(),
                     "clock": "perf_counter_ns"},
                )
        return message

    async def serve(self) -> None:
        gateway = self.gateway
        await gateway.start()
        self.start_clock()
        say(self.ready())
        loop = asyncio.get_running_loop()
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            command = line.strip()
            if command == "report":
                say(self.report())
                continue
            # "seal", or EOF because the driver is gone: wind down either way.
            report = self.report()
            final = gateway.seal()
            self.sink.emit(final, at_seal=True)
            self.sink.close()
            await gateway.stop(seal=False)
            report["maxrss_kb"] = max_rss_kb()
            report["disk"] = directory_sizes(self.directory)
            report["checkpoints"] = getattr(gateway.runner, "checkpoints_written", 0)
            report["engine_stats"] = gateway.engine.stats.as_dict()
            say(report)
            return


# -- engine workload -------------------------------------------------------------------


def run_engine(cfg: Dict[str, Any]) -> None:
    batch_rows = cfg["batch"]
    with open(cfg["input"], "rb") as handle:
        columns = EventBatch.from_bytes(handle.read())
    arrival: List[Event] = columns.to_events()
    pattern = chain_query(3, cfg["within"], partitioned=True, negated_step=1)
    k = cfg["k"]
    total = len(arrival)
    batches = [arrival[i:i + batch_rows] for i in range(0, total, batch_rows)]
    position = {event.eid: index for index, event in enumerate(arrival)}
    # The input corpus is the harness's, not the engine's: keep the cyclic
    # collector from re-walking 300 000 events on the engine's account.
    gc.collect()
    gc.freeze()
    clock = time.monotonic

    def fresh() -> OutOfOrderEngine:
        return OutOfOrderEngine(pattern, k=k)

    def batch_pass() -> Dict[str, Any]:
        """One full pass: per-batch call times, wall, and match hand-back delay."""
        engine = fresh()
        t_in: List[float] = []
        t_out: List[float] = []
        feed_batch = engine.feed_batch
        started = clock()
        for chunk in batches:
            t_in.append(clock())
            feed_batch(chunk)
            t_out.append(clock())
        streamed = len(engine.emissions)
        engine.close()
        wall = clock() - started
        # Wall-clock twin of the arrival-lag metric: from handing over the
        # batch that held the match's last-arriving event to the return of
        # the call that emitted it.
        delays = []
        for record in engine.emissions[:streamed]:
            arrived = max(position[event.eid] for event in record.match.events)
            emitted = (record.emitted_seq - 1) // batch_rows
            delays.append(t_out[emitted] - t_in[arrived // batch_rows])
        return {
            "wall_s": wall,
            "calls_ms": [(b - a) * 1e3 for a, b in zip(t_in, t_out)],
            "delays_ms": [d * 1e3 for d in delays],
            "keys": sorted(match_id(match) for match in engine.results),
            "stats": engine.stats.as_dict(),
            "lag_p90": summarize_arrival_latency(engine.emissions, arrival).p90,
        }

    say({"ready": True, "first_batch_at": clock()})

    # Only summaries outlive a pass, so peak RSS is one engine's, not three.
    passes = [batch_pass() for _ in range(cfg["passes"])]
    median = sorted(passes, key=lambda p: p["wall_s"])[len(passes) // 2]
    keys = median["keys"]
    agree = all(other["keys"] == keys for other in passes)
    stats = median["stats"]

    # A library user's recovery: snapshot mid-stream, restore into a fresh
    # engine, and both must finish the stream identically.
    single = fresh()
    for chunk in batches[: max(1, cfg["event_prefix"] // batch_rows)]:
        single.feed_batch(chunk)
    blob = single.snapshot()
    restores = []
    for _ in range(cfg["restore_repeats"]):
        restored = fresh()
        started = clock()
        restored.restore(blob)
        restores.append(clock() - started)
    tail_a = sorted(match_id(m) for m in single.close())
    tail_b = sorted(match_id(m) for m in restored.close())

    report: Dict[str, Any] = {
        "report": True,
        "maxrss_kb": max_rss_kb(),
        "events": total,
        "pass_walls_s": [p["wall_s"] for p in passes],
        "wall_s": median["wall_s"],
        "ack_p50_ms": percentile(median["calls_ms"], 0.50),
        "ack_p95_ms": percentile(median["calls_ms"], 0.95),
        "ack_p99_ms": percentile(median["calls_ms"], 0.99),
        "match_p50_ms": percentile(median["delays_ms"], 0.50),
        "match_p95_ms": percentile(median["delays_ms"], 0.95),
        "matches_timed": len(median["delays_ms"]),
        "keys": keys,
        "passes_agree": agree,
        "restore_agrees": tail_a == tail_b,
        "engine_stats": stats,
        "state_peak": stats["peak_state_size"],
        "emit_lag_p90_events": median["lag_p90"],
        "recovery_s": statistics.median(restores),
        "snapshot_bytes": len(blob),
    }
    if cfg["trace"]:
        report.update(trace_engine(cfg, arrival, batches, pattern, median["wall_s"]))
    say(report)


def trace_engine(
    cfg: Dict[str, Any],
    arrival: List[Event],
    batches: List[List[Event]],
    pattern: Any,
    untraced_wall: float,
) -> Dict[str, Any]:
    """The traced extras: the three public drivers under spans, then the
    engine families on a prefix, all through ``feed_batch`` like for like."""
    recorder = Recorder()
    k = cfg["k"]
    total = len(arrival)
    for attr in ("feed", "feed_batch", "feed_colbatch", "close"):
        recorder.wrap_method(OutOfOrderEngine, attr, f"core.engine.{attr}")
    recorder.wrap_method(EventBatch, "from_events", "core.colbatch.from_events")
    clock = time.monotonic

    def spent(label: str, since: int) -> float:
        return recorder.summarize(since)["labels"].get(label, {}).get("total_ns", 0)

    out: Dict[str, Any] = {}
    mark = recorder.mark()
    engine = OutOfOrderEngine(pattern, k=k)
    started = clock()
    for chunk in batches:
        engine.feed_batch(chunk)
    engine.close()
    out["trace_overhead"] = (clock() - started) / untraced_wall
    out["feed_batch_us"] = spent("core.engine.feed_batch", mark) / 1e3 / total
    reference_keys = sorted(match_id(m) for m in engine.results)

    prefix = arrival[: cfg["event_prefix"]]
    mark = recorder.mark()
    engine = OutOfOrderEngine(pattern, k=k)
    for event in prefix:
        engine.feed(event)
    out["feed_event_us"] = spent("core.engine.feed", mark) / 1e3 / len(prefix)

    mark = recorder.mark()
    engine = OutOfOrderEngine(pattern, k=k)
    for chunk in batches:
        engine.feed_colbatch(EventBatch.from_events(chunk))
    engine.close()
    out["feed_colbatch_us"] = spent("core.engine.feed_colbatch", mark) / 1e3 / total
    out["colbatch_build_us"] = spent("core.colbatch.from_events", mark) / 1e3 / total
    out["colbatch_agrees"] = sorted(match_id(m) for m in engine.results) == reference_keys

    if cfg["all_cpus"]:
        os.sched_setaffinity(0, cfg["all_cpus"])  # the families may use every core
    family = arrival[: cfg["family_prefix"]]
    rows = cfg["batch"]
    chunks = [family[i:i + rows] for i in range(0, len(family), rows)]
    baseline = OutOfOrderEngine(pattern, k=k)
    for chunk in chunks:
        baseline.feed_batch(chunk)
    baseline.close()
    family_keys = sorted(match_id(m) for m in baseline.results)
    workers = min(2, os.cpu_count() or 1)
    families = {
        "reorder": {},
        "partitioned": {},
        "parallel": {"workers": workers},
        "pipeline": {"workers": workers},
    }
    out["families"] = {}
    for name, extra in families.items():
        entry: Dict[str, Any] = {"workers": extra.get("workers", 1)}
        try:
            candidate = make_engine(name, pattern, k=k, **extra)
            started = clock()
            for chunk in chunks:
                candidate.feed_batch(chunk)
            candidate.close()
            entry["us"] = (clock() - started) * 1e6 / len(family)
            entry["agrees"] = (
                sorted(match_id(m) for m in candidate.results) == family_keys
            )
        except ReproError as exc:
            entry["us"] = 0.0
            entry["agrees"] = False
            entry["error"] = str(exc)
        out["families"][name] = entry
    if cfg.get("trace_out"):
        recorder.write(
            cfg["trace_out"],
            {"workload": cfg["workload"], "pid": os.getpid(), "clock": "perf_counter_ns"},
        )
    return out


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as handle:
        cfg = json.load(handle)
    if cfg["kind"] == "engine":
        run_engine(cfg)
    else:
        asyncio.run(GatewayProcess(cfg).serve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
