"""E24 — the serving-path benchmark.

    python3 benchmarks/e24/run.py [--workload W] [--seed S] [--seconds T]
                                  [--trace [0|1]] [--quick] [--repeats N]

Generates each workload's inputs from the seed, computes the exact
reference result, runs the system under test in its own process
(``launcher.py``), drives it from this single-threaded process, checks
every ack and every match, and prints every metric by name and unit.

* no ``--trace``, or ``--trace 0``: the end-to-end metrics, tracing off;
* ``--trace 1``: the per-layer ledger from a traced run of the same
  inputs (an untraced run precedes it: the two must deliver identical
  match sets, and their wall-time ratio is ``bench.trace_overhead``);
* bare ``--trace``: both.

With ``--workload`` the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` (the BENCHMARK.json
contract).  Results also land in ``benchmarks/e24/out/``; ``compare.py``
diffs two such files.  README.md explains every workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
if not (SRC / "repro").is_dir():
    sys.stderr.write(f"e24: {SRC}/repro not found; run from a full checkout\n")
    sys.exit(2)
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

from repro.core.colbatch import EventBatch  # noqa: E402
from repro.core.parser import parse  # noqa: E402

import spec  # noqa: E402
from spec import percentile  # noqa: E402
from inputs import (  # noqa: E402
    engine_k, engine_workload, resend_tail, serve_plan,
)
from loadgen import Connections, DriveResult, drive  # noqa: E402
from reference import reference_keys  # noqa: E402

LAUNCHER = HERE / "launcher.py"
READY_TIMEOUT = 120.0
COLD_STARTS = 4
REPORT_TIMEOUT = 170.0
clock = time.monotonic


def pin_processes() -> Tuple[Optional[int], List[int]]:
    """Give the generator and the system under test a CPU each.

    Left to the scheduler, the two share a core for stretches of a run
    (4 ms on, 4 ms off), which shows up as latency that neither of them
    caused.  Returns the launcher's CPU (None when there is only one, or
    the platform cannot pin) and every CPU this process may use.
    """
    try:
        allowed = sorted(os.sched_getaffinity(0))
    except AttributeError:
        return None, []
    if len(allowed) < 2:
        return None, allowed
    os.sched_setaffinity(0, {allowed[0]})
    return allowed[1], allowed


SUT_CPU, ALL_CPUS = pin_processes()


# -- the system-under-test process -----------------------------------------------------


class Launcher:
    """A launcher.py child: config in, JSON lines out, commands on stdin."""

    def __init__(self, run_dir: Path, tag: str, cfg: Dict[str, Any]):
        cfg_path = run_dir / f"{tag}.cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["PYTHONHASHSEED"] = "0"  # one less thing that differs between runs
        self.spawned_at = clock()
        self.proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER), str(cfg_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        )
        if SUT_CPU is not None:
            os.sched_setaffinity(self.proc.pid, {SUT_CPU})

    def read(self, timeout: float) -> Dict[str, Any]:
        stdout = self.proc.stdout
        assert stdout is not None
        ready, _, _ = select.select([stdout], [], [], timeout)
        if not ready:
            raise RuntimeError(f"launcher said nothing for {timeout:.0f} s")
        line = stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with {self.proc.wait()}")
        return json.loads(line)

    def command(self, word: str, timeout: float = REPORT_TIMEOUT) -> Dict[str, Any]:
        stdin = self.proc.stdin
        assert stdin is not None
        stdin.write(word.encode("ascii") + b"\n")
        stdin.flush()
        return self.read(timeout)

    def kill(self) -> None:
        """SIGKILL and reap; safe to call on a process that already exited."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()

    def wait(self, timeout: float = 30.0) -> None:
        try:
            self.proc.wait(timeout)
        finally:
            self.kill()


# -- small helpers ---------------------------------------------------------------------


def read_sink(path: Path) -> List[Tuple[Tuple[int, ...], int]]:
    """``(match id, stamp_ns)`` per delivered match; stamp 0 = emitted at seal."""
    if not path.exists():
        return []
    out = []
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            ids, stamp = line.split()
            out.append((tuple(map(int, ids.split(","))), int(stamp)))
    return out


def check_matches(delivered: List[Tuple[int, ...]], truth: set) -> Dict[str, int]:
    counts = Counter(delivered)
    return {
        "missing": sum(1 for key in truth if key not in counts),
        "spurious": sum(1 for key in counts if key not in truth),
        "twice": sum(count - 1 for count in counts.values() if count > 1),
    }


def timed_setup(build, repeats: int) -> Tuple[Any, float]:
    """Run *build* *repeats* times; its last result and the median time."""
    times = []
    for _ in range(repeats):
        started = clock()
        built = build()
        times.append(clock() - started)
    return built, statistics.median(times)


# -- serve workloads -------------------------------------------------------------------


class ServeDrive:
    """Everything one drive of a serve workload produced."""

    def __init__(self) -> None:
        self.result: Optional[DriveResult] = None
        self.tail: Optional[DriveResult] = None
        self.report: Dict[str, Any] = {}  # the streaming incarnation, at last ack
        self.final: Dict[str, Any] = {}  # the sealing incarnation, after seal
        self.restart: Dict[str, Any] = {}  # ready message of the restarted process
        self.matches: List[Tuple[Tuple[int, ...], int]] = []
        self.start_s: List[float] = []  # spawn -> hello_ok of every cold start


def serve_config(name: str, params: Dict[str, Any], run_dir: Path, tag: str,
                 state: str, traced: bool, ctor_repeats: int,
                 trace_out: Optional[Path]) -> Dict[str, Any]:
    """Launcher config; *state* names the durability directory under *run_dir*."""
    return {
        "kind": "serve",
        "workload": name,
        "query": params["query"],
        "max_delay": params.get("max_delay", 0),
        "k": engine_k(params["window"], params.get("max_delay", 0)),
        "directory": str(run_dir / state) if params["durable"] else None,
        "sink": str(run_dir / f"{tag}.matches"),
        "trace": traced,
        "trace_out": str(trace_out) if trace_out else None,
        "ctor_repeats": ctor_repeats,
    }


def drive_serve(name: str, params: Dict[str, Any], plan, run_dir: Path,
                traced: bool) -> ServeDrive:
    out = ServeDrive()
    trace_dir = spec.OUT_DIR
    first = Launcher(run_dir, "run", serve_config(
        name, params, run_dir, "run", "state", traced, 1,
        trace_dir / f"{name}.trace.jsonl" if traced else None))
    second: Optional[Launcher] = None
    try:
        conns = Connections(first.read(READY_TIMEOUT)["port"])
        out.start_s.append(clock() - first.spawned_at)
        out.result = drive(conns, plan, params["window"])
        if params["kill"]:
            # The process dies with its connections open and its state
            # unsealed; the report is the last thing it gets to say.
            out.report = first.command("report")
            first.kill()
            conns.abandon()
        else:
            conns.close()
            out.report = out.final = first.command("seal")
            first.wait()
        out.matches = read_sink(run_dir / "run.matches")

        # Cold starts on an empty state directory: more samples of "spawn ->
        # hello_ok" for setup_s, and all the recovery a memory gateway has.
        for attempt in range(COLD_STARTS):
            probe = Launcher(run_dir, f"cold{attempt}", serve_config(
                name, params, run_dir, f"cold{attempt}", f"cold{attempt}.state",
                False, 1, None))
            try:
                Connections(probe.read(READY_TIMEOUT)["port"]).close()
                out.start_s.append(clock() - probe.spawned_at)
                probe.command("seal")
                probe.wait()
            finally:
                probe.kill()
        if not params["kill"]:
            out.restart = {"ctor_s": statistics.median(out.start_s[1:])}
            return out

        # Start the system again on the directory the killed process left.
        second = Launcher(run_dir, "again", serve_config(
            name, params, run_dir, "again", "state", traced, 3,
            trace_dir / f"{name}.restart.trace.jsonl" if traced else None))
        out.restart = second.read(READY_TIMEOUT)
        conns = Connections(out.restart["port"])
        if params["resend"]:
            out.tail = drive(conns, resend_tail(plan, params["resend"]), params["window"])
        conns.close()
        out.final = second.command("seal")
        second.wait()
        out.matches += read_sink(run_dir / "again.matches")
        return out
    finally:
        first.kill()
        if second is not None:
            second.kill()


def serve_verdict(plan, drive_out: ServeDrive, truth: set) -> Dict[str, Any]:
    """Acks against the plan, matches against the reference."""
    result = drive_out.result
    assert result is not None
    wrong_acks = sum(
        1 for got, want in zip(result.status, plan.expect) if got != want
    ) + result.bad_acks
    frames = len(plan)
    if drive_out.tail is not None:
        wrong_acks += sum(1 for got in drive_out.tail.status if got != "duplicate")
        wrong_acks += drive_out.tail.bad_acks
        frames += len(drive_out.tail.status)
    verdict = check_matches([ids for ids, _ in drive_out.matches], truth)
    verdict["wrong_acks"] = wrong_acks
    verdict["attempted"] = frames + len(truth)
    verdict["failed"] = wrong_acks + verdict["missing"] + verdict["spurious"] + verdict["twice"]
    return verdict


def serve_latencies(plan, drive_out: ServeDrive) -> Dict[str, float]:
    """Ack and match latency percentiles (ms) of one drive's main stream."""
    result = drive_out.result
    assert result is not None
    acks_ms = [(a - o) * 1e3 for a, o in zip(result.acked_at, result.origin)]
    first_delivery = {
        eid: index for index, eid in enumerate(plan.eid)
        if plan.expect[index] == "admitted"
    }
    origin = result.origin
    match_ms = [
        (stamp / 1e9 - max(origin[first_delivery[eid]] for eid in ids)) * 1e3
        for ids, stamp in drive_out.matches
        if stamp and all(eid in first_delivery for eid in ids)
    ]
    return {
        "ack_p50_ms": percentile(acks_ms, 0.50),
        "ack_p95_ms": percentile(acks_ms, 0.95),
        "ack_p99_ms": percentile(acks_ms, 0.99),
        "match_p50_ms": percentile(match_ms, 0.50),
        "match_p95_ms": percentile(match_ms, 0.95),
        "matches_timed": len(match_ms),
    }


def serve_end_to_end(plan, drive_out: ServeDrive, setup_s: float,
                     verdict: Dict[str, Any]) -> Dict[str, Any]:
    result = drive_out.result
    assert result is not None
    wall = result.ended - result.started
    good = sum(1 for got, want in zip(result.status, plan.expect) if got == want)
    admitted = sum(1 for got in result.status if got == "admitted")
    out = {
        "setup_s": setup_s,
        "frames_per_s": good / wall,
        "events_per_s": admitted / wall,
        "recovery_s": drive_out.restart["ctor_s"],
        "peak_rss_mb": max(
            drive_out.report["maxrss_kb"], drive_out.final["maxrss_kb"]
        ) / 1024.0,
        "disk_mb": sum(drive_out.final.get("disk", {}).values()) / 1e6,
        "state_peak": drive_out.final["engine_stats"]["peak_state_size"],
        "failed_share": verdict["failed"] / verdict["attempted"],
        "wall_s": wall,
    }
    out.update(serve_latencies(plan, drive_out))
    return out


def schedule_checks(plan, result: DriveResult) -> Dict[str, float]:
    """Did the generator itself keep the schedule (open loop only)?"""
    lag_ms = (
        [(s - o) * 1e3 for s, o in zip(result.sent_at, result.origin)]
        if plan.due else [0.0]
    )
    return {
        "loadgen.sched_lag_p99_ms": percentile(lag_ms, 0.99),
        "loadgen.backlog_end": result.backlog_end,
    }


def serve_layers(plan, traced: ServeDrive, untraced_wall: float) -> Dict[str, float]:
    report, final, restart = traced.report, traced.final, traced.restart
    result = traced.result
    assert result is not None
    frames = report["admitted"] + report["duplicates"] + report["quarantined"]
    spans = report["spans"]

    def self_us(*labels: str) -> float:
        return sum(spans.get(l, {}).get("self_ns", 0) for l in labels) / 1e3 / frames

    def calls(label: str) -> int:
        return spans.get(label, {}).get("calls", 0)

    stats = report["engine_stats"]
    disk = final.get("disk", {})
    wal = sum(size for name, size in disk.items() if name.startswith("wal"))
    checkpoint = sum(size for name, size in disk.items() if name.startswith("checkpoint"))
    busy_us = report["busy_cpu_s"] * 1e6
    layers = {
        "ingest.server.transport_us":
            max(0.0, busy_us - report["top_level_ns"] / 1e3) / frames,
        "ingest.server.admit_self_us":
            self_us("ingest.server.admit_frame", "ingest.server.sync_acks"),
        "ingest.server.frames_per_sync":
            frames / max(1, calls("ingest.server.sync_acks")),
        "ingest.schema.us": self_us(
            "ingest.schema.check_frame", "ingest.schema.idempotency_id",
            "ingest.schema.build_event"),
        "ingest.admission.admit_self_us": self_us("ingest.admission.admit"),
        "ingest.admission.duplicates": report["duplicates"],
        "ingest.admission.quarantined": report["quarantined"],
        "ingest.liveness.observe_us": self_us("ingest.liveness.observe"),
        "streams.punctuation.advance_us": self_us("streams.punctuation.advance"),
        "streams.punctuation.per_frame": stats["punctuations_in"] / frames,
        "core.recovery.feed_self_us": self_us("core.recovery.feed"),
        "core.recovery.sync_us": self_us("core.recovery.sync"),
        # The whole checkpoint, engine snapshot included: it is one stall to
        # the frames behind it; core.engine.snapshot_us says how much of it
        # the engine spent serialising itself (not a ledger line of its own).
        "core.recovery.checkpoint_us":
            self_us("core.recovery.checkpoint", "core.engine.snapshot"),
        "core.recovery.checkpoints": report["checkpoints"],
        "core.recovery.checkpoint_ms_first": report["checkpoint_ms_first"],
        "core.recovery.checkpoint_ms_last": report["checkpoint_ms_last"],
        "core.recovery.checkpoint_bytes_last": checkpoint,
        "core.recovery.wal_bytes_per_frame": wal / frames,
        "core.recovery.disk_mb": sum(disk.values()) / 1e6,
        "core.recovery.recovery_s": restart["ctor_s"],
        "core.recovery.recover_wal_elements": restart.get("wal_elements", 0),
        "core.recovery.recover_replayed": restart.get("replayed", 0),
        "core.recovery.recover_checkpoint_load_ms": restart.get("restore_ms", 0.0),
        "core.engine.feed_us": self_us("core.engine.feed"),
        "core.engine.feed_calls_per_frame": calls("core.engine.feed") / frames,
        "core.engine.snapshot_us": self_us("core.engine.snapshot"),
        "core.engine.results_retained": report["results_retained"],
        "core.engine.state_peak": stats["peak_state_size"],
        "bench.trace_overhead": (result.ended - result.started) / untraced_wall,
    }
    layers.update(schedule_checks(plan, result))
    layers.update({
        f"loadgen.{name}": value
        for name, value in serve_latencies(plan, traced).items() if name.endswith("_ms")
    })
    layers["_busy_us_per_frame"] = busy_us / frames
    return layers


def run_serve(name: str, params: Dict[str, Any], seed: int, want_layers: bool,
              run_dir: Path) -> Dict[str, Any]:
    started = clock()
    pattern = parse(params["query"])

    def build():
        plan = serve_plan(params, seed)
        return plan, reference_keys(pattern, plan.events)

    (plan, truth), prepare_s = timed_setup(build, params["setup_repeats"])
    plain_dir = run_dir / "plain"
    plain_dir.mkdir()
    plain = drive_serve(name, params, plan, plain_dir, traced=False)
    verdict = serve_verdict(plan, plain, truth)
    setup_s = prepare_s + statistics.median(plain.start_s)
    end_to_end = serve_end_to_end(plan, plain, setup_s, verdict)
    result = plain.result
    assert result is not None
    checks = schedule_checks(plan, result)
    valid = True
    if plan.due:
        valid = (
            checks["loadgen.sched_lag_p99_ms"] <= spec.PACED_MAX_SCHED_LAG_P99_MS
            and checks["loadgen.backlog_end"] == 0
        )
    out: Dict[str, Any] = {
        "end_to_end": end_to_end, "per_layer": None, "valid": valid,
        "verdict": verdict, "loadgen": checks,
    }
    if want_layers:
        traced_dir = run_dir / "traced"
        traced_dir.mkdir()
        traced = drive_serve(name, params, plan, traced_dir, traced=True)
        traced_verdict = serve_verdict(plan, traced, truth)
        same = sorted(ids for ids, _ in traced.matches) == sorted(
            ids for ids, _ in plain.matches)
        verdict["failed"] += traced_verdict["failed"] + (0 if same else 1)
        verdict["attempted"] += traced_verdict["attempted"]
        verdict["traced_same_matches"] = same
        out["per_layer"] = serve_layers(plan, traced, end_to_end["wall_s"])
    out["total_s"] = clock() - started
    return out


# -- engine workload -------------------------------------------------------------------


def run_engine(name: str, params: Dict[str, Any], seed: int, want_layers: bool,
               run_dir: Path) -> Dict[str, Any]:
    started = clock()
    input_path = run_dir / "arrival.colbatch"

    def build():
        workload = engine_workload(params, seed)
        occurrence, arrival = workload.generate()
        truth = reference_keys(workload.query, occurrence)
        input_path.write_bytes(EventBatch.from_events(arrival).to_bytes())
        return truth, len(arrival)

    (truth, events), prepare_s = timed_setup(build, params["setup_repeats"])
    cfg = dict(params)
    cfg.update({
        "workload": name, "input": str(input_path), "trace": want_layers,
        "restore_repeats": 21, "all_cpus": ALL_CPUS,
        "trace_out": str(spec.OUT_DIR / f"{name}.trace.jsonl") if want_layers else None,
    })
    child = Launcher(run_dir, "engine", cfg)
    try:
        ready = child.read(READY_TIMEOUT)
        report = child.read(REPORT_TIMEOUT)
        child.wait()
    finally:
        child.kill()
    setup_s = prepare_s + (ready["first_batch_at"] - child.spawned_at)
    verdict = check_matches([tuple(key) for key in report["keys"]], truth)
    verdict["attempted"] = events + len(truth)
    checks = [report["passes_agree"], report["restore_agrees"]]
    if want_layers:
        checks.append(report["colbatch_agrees"])
        checks.extend(
            entry["agrees"] for entry in report["families"].values()
            if "error" not in entry
        )
    verdict["disagreements"] = sum(1 for ok in checks if not ok)
    verdict["failed"] = (
        verdict["missing"] + verdict["spurious"] + verdict["twice"]
        + verdict["disagreements"]
    )
    end_to_end = {
        "setup_s": setup_s,
        # No wire here: an event is the only frame there is, so the two read
        # alike (the per-event feed() rate is core.engine.feed_event_us).
        "frames_per_s": events / report["wall_s"],
        "events_per_s": events / report["wall_s"],
        "ack_p50_ms": report["ack_p50_ms"],
        "ack_p95_ms": report["ack_p95_ms"],
        "ack_p99_ms": report["ack_p99_ms"],
        "match_p50_ms": report["match_p50_ms"],
        "match_p95_ms": report["match_p95_ms"],
        "matches_timed": report["matches_timed"],
        "recovery_s": report["recovery_s"],
        "peak_rss_mb": report["maxrss_kb"] / 1024.0,
        "disk_mb": report["snapshot_bytes"] / 1e6,
        "state_peak": report["state_peak"],
        "emit_lag_p90_events": report["emit_lag_p90_events"],
        "failed_share": verdict["failed"] / verdict["attempted"],
        "wall_s": report["wall_s"],
        "pass_walls_s": report["pass_walls_s"],
    }
    out: Dict[str, Any] = {
        "end_to_end": end_to_end, "per_layer": None, "valid": True, "verdict": verdict,
    }
    if want_layers:
        stats = report["engine_stats"]
        seen = max(1, stats["events_in"])
        probes = stats["index_hits"] + stats["index_misses"]
        families = report["families"]
        out["families"] = families
        out["per_layer"] = {
            "core.engine.feed_batch_us": report["feed_batch_us"],
            "core.engine.feed_event_us": report["feed_event_us"],
            "core.engine.feed_colbatch_us": report["feed_colbatch_us"],
            "core.colbatch.build_us": report["colbatch_build_us"],
            "core.engine.predicate_evals_per_event": stats["predicate_evaluations"] / seen,
            "core.engine.purged_per_event":
                (stats["instances_purged"] + stats["negatives_purged"]) / seen,
            "core.engine.index_hit_share": stats["index_hits"] / probes if probes else 0.0,
            "core.engine.results_retained": len(report["keys"]),
            "core.engine.state_peak": report["state_peak"],
            "core.engine.emit_lag_p90_events": report["emit_lag_p90_events"],
            "core.recovery.disk_mb": report["snapshot_bytes"] / 1e6,
            "core.recovery.recovery_s": report["recovery_s"],
            "loadgen.ack_p50_ms": report["ack_p50_ms"],
            "loadgen.ack_p95_ms": report["ack_p95_ms"],
            "loadgen.ack_p99_ms": report["ack_p99_ms"],
            "loadgen.match_p50_ms": report["match_p50_ms"],
            "loadgen.match_p95_ms": report["match_p95_ms"],
            "core.reorder.feed_batch_us": families["reorder"]["us"],
            "core.partition.serial_us": families["partitioned"]["us"],
            "core.partition.parallel_us": families["parallel"]["us"],
            "core.pipeline.us": families["pipeline"]["us"],
            "bench.trace_overhead": report["trace_overhead"],
        }
    out["total_s"] = clock() - started
    return out


# -- orchestration and output ----------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, want_layers: bool) -> Dict[str, Any]:
    params = spec.scaled(name, seconds)
    spec.OUT_DIR.mkdir(exist_ok=True)
    run_dir = spec.OUT_DIR / f"run-{os.getpid()}-{name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        runner = run_serve if params["kind"] == "serve" else run_engine
        return runner(name, params, seed, want_layers, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def print_run(name: str, run: Dict[str, Any], show_e2e: bool) -> None:
    verdict = run["verdict"]
    print(f"== {name}  (total {run['total_s']:.1f} s, measured "
          f"{run['end_to_end']['wall_s']:.2f} s)")
    print(f"   why: {spec.WORKLOADS[name]['why']}")
    if show_e2e:
        for metric in spec.end_to_end_metrics(name):
            value = run["end_to_end"][metric.name]
            print(f"   {metric.name:<28} {value:>14.4f} {metric.unit}")
        print(f"   {'ack_p99_ms (not bounded)':<28} "
              f"{run['end_to_end']['ack_p99_ms']:>14.4f} ms")
    if run["per_layer"] is not None:
        for metric in spec.PER_LAYER:
            value = run["per_layer"].get(metric.name, 0.0)
            print(f"   {metric.name:<44} {value:>14.4f} {metric.unit}")
        if "_busy_us_per_frame" in run["per_layer"]:
            ledger = sum(run["per_layer"][line] for line in spec.LEDGER)
            busy = run["per_layer"]["_busy_us_per_frame"]
            print(f"   ledger sum {ledger:.2f} us/frame vs gateway busy "
                  f"{busy:.2f} us/frame ({ledger / busy:.3f})")
        for family, entry in run.get("families", {}).items():
            note = entry.get("error", f"agrees={entry['agrees']}")
            print(f"   family {family:<12} workers={entry['workers']} of "
                  f"cpu_count={os.cpu_count()}  {entry['us']:.2f} us/event  {note}")
    detail = " ".join(f"{k}={v}" for k, v in sorted(verdict.items()))
    print(f"   check: {detail}")
    if not run["valid"]:
        print(f"   INVALID: the generator did not keep its schedule "
              f"({run['loadgen']}); latencies above are not a measurement")


def contract_line(run: Dict[str, Any], trace: str) -> str:
    metrics: Dict[str, Any] = {}
    if trace in ("0", "both"):
        for metric in spec.END_TO_END:
            metrics[metric.name] = {
                "value": run["end_to_end"][metric.name], "unit": metric.unit}
    if trace in ("1", "both"):
        for metric in spec.PER_LAYER:
            metrics[metric.name] = {
                "value": run["per_layer"].get(metric.name, 0.0), "unit": metric.unit}
    verdict = run["verdict"]
    return json.dumps({
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    })


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"))
    parser.add_argument("--quick", action="store_true",
                        help="1/20 of every count (same code paths)")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", type=Path, help="results file (default: out/)")
    args = parser.parse_args(argv)
    seconds = spec.RUN_SECONDS / 20 if args.quick else args.seconds
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    want_layers = args.trace in ("1", "both")

    results: Dict[str, Any] = {
        "fingerprint": spec.fingerprint(args.seed, seconds), "workloads": {},
    }
    failed = False
    for name in names:
        runs = []
        for _ in range(args.repeats):
            run = run_workload(name, args.seed, seconds, want_layers)
            print_run(name, run, show_e2e=args.trace in ("0", "both"))
            failed = failed or run["verdict"]["failed"] > 0
            runs.append(run)
        results["workloads"][name] = {
            "wall_s": sum(run["total_s"] for run in runs), "runs": runs,
        }
    out_path = args.out or spec.OUT_DIR / f"results-seed{args.seed}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(results, indent=1, sort_keys=True), encoding="utf-8")
    print(f"results: {out_path}")
    if args.workload:
        print(contract_line(results["workloads"][args.workload]["runs"][-1], args.trace))
    return 1 if failed else 0  # outputs wrong; an INVALID paced run is not


if __name__ == "__main__":
    sys.exit(main())
