"""E24 contract: workloads, frozen counts, metric names, units and bounds.

This module is the single source of truth the runner, ``compare.py``,
the self-tests and ``BENCHMARK.json`` all agree on (a self-test diffs
``BENCHMARK.json`` against it).  Nothing here imports ``repro``.
"""

from __future__ import annotations

import math
import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Sequence

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"

#: The nominal measured length every frozen count below was sized for, on
#: the 2-CPU reference box at the parent commit.  ``--seconds S`` scales
#: every count by ``S / RUN_SECONDS``; ``--quick`` is ``S = RUN_SECONDS/20``.
RUN_SECONDS = 10

SOURCES = ("s0", "s1")  # one connection each; nproc is 2

QUERY_SEQ = "PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 20"
QUERY_NEG = (
    "PATTERN SEQ(A a, !C c, B b) WHERE a.x == b.x AND c.x == a.x WITHIN 20"
)

#: Frozen at RUN_SECONDS.  ``setup_repeats``: input generation + reference
#: are deterministic CPU work, so they are repeated and the median reported
#: — as often as the workload's set-up cost leaves affordable.  serve-durable is quadratic in run length today
#: (every checkpoint re-serialises the whole result history), so its count
#: is what fits ~10 s *now*; a later benchmark issue must rescale it once
#: ROADMAP item 2 lands (see README).
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "serve-durable": {
        "why": "production config: WAL + checkpoints every 256, then SIGKILL, "
        "restart, resend tail, seal; core.recovery does most of the work",
        "kind": "serve",
        "query": QUERY_SEQ,
        "frames": 24000,
        "setup_repeats": 3,
        "window": 64,
        "durable": True,
        "kill": True,
        "resend": 512,
    },
    "serve-memory": {
        "why": "same traffic without a directory: bypasses core.recovery, so "
        "wire codec, admission, liveness, punctuation and engine.feed dominate",
        "kind": "serve",
        "query": QUERY_SEQ,
        "frames": 100000,
        "setup_repeats": 2,
        "window": 64,
        "durable": False,
        "kill": False,
        "resend": 0,
    },
    "serve-paced": {
        "why": "open loop at a sustainable rate with disorder, duplicates and "
        "malformed frames over a negation query: measures latency, not capacity",
        "kind": "serve",
        "query": QUERY_NEG,
        "rate": 1000,  # frames/s over both sources; frames = rate * seconds
        "setup_repeats": 3,
        "window": 256,
        "durable": True,
        "kill": True,
        "resend": 0,
        "delay_share": 0.30,
        "max_delay": 40,
        "dup_share": 0.02,
        "bad_share": 0.005,
    },
    "engine-disorder": {
        "why": "the paper's setting, no gateway: SyntheticWorkload with random "
        "delays through OutOfOrderEngine.feed_batch; only core.engine works",
        "kind": "engine",
        "events": 300000,
        "setup_repeats": 1,
        "batch": 512,
        "passes": 5,
        "within": 40,
        "partitions": 8,
        "k": 40,
        "delay_share": 0.30,
        "max_delay": 40,
        "event_prefix": 60000,  # snapshot/restore state; traced per-event feed() pass
        "family_prefix": 60000,  # traced run: engine-family comparison
    },
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float  # share of the baseline median it may worsen by; 0 = exact


#: End-to-end metrics BENCHMARK.json gates.  Its contract wants every one of
#: them on every workload, never 0, with a run-to-run spread (IQR over median
#: of ten seeds) inside the bound on each workload, and caps bounds at 0.25.
#: On the 2-vCPU reference VM — whose memory-bound Python speed drifts by
#: +-15 % in phases of ten seconds and more — only these four hold that in
#: a noisy hour (worst spread seen: throughput 18 %, RSS 1.2 %); README has
#: the per-workload definitions and the measured spreads.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("frames_per_s", "frames/s", "higher", 0.25),
    Metric("events_per_s", "events/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
]

_ALL = ("serve-durable", "serve-memory", "serve-paced", "engine-disorder")
_DISK = ("serve-durable", "serve-paced", "engine-disorder")

#: End-to-end metrics that cannot meet that contract: 0 or undefined on some
#: workload, or a spread that in a noisy hour passes the 0.25 cap on at least
#: one workload (closed-loop latency is bimodal, tails and maxima follow
#: single stalls).  They are measured with tracing off, printed, stored in
#: every results file and judged by compare.py on the workloads listed —
#: which calls a difference inside the spread "unresolved", not "within".
UNGATED_END_TO_END: Dict[str, Any] = {
    "ack_p50_ms": (Metric("ack_p50_ms", "ms", "lower", 0.25), _ALL),
    "ack_p95_ms": (Metric("ack_p95_ms", "ms", "lower", 0.25), _ALL),
    "match_p50_ms": (Metric("match_p50_ms", "ms", "lower", 0.25), _ALL),
    "match_p95_ms": (Metric("match_p95_ms", "ms", "lower", 0.25), _ALL),
    "recovery_s": (Metric("recovery_s", "s", "lower", 0.25), _ALL),
    "state_peak": (Metric("state_peak", "items", "lower", 0.25), _ALL),
    "disk_mb": (Metric("disk_mb", "MB", "lower", 0.10), _DISK),
    "emit_lag_p90_events": (Metric("emit_lag_p90_events", "events", "lower", 0.0),
                            ("engine-disorder",)),
    "failed_share": (Metric("failed_share", "ratio", "lower", 0.0), _ALL),
}

#: A bound of 0 means "must repeat exactly for a seed"; state_peak does too,
#: but only where no socket timing is involved.
EXACT_ON = {"state_peak": ("engine-disorder",)}


def end_to_end_metrics(workload: str) -> List[Metric]:
    """Every end-to-end metric reported for *workload*, gated ones first."""
    return list(END_TO_END) + [
        metric for metric, workloads in UNGATED_END_TO_END.values()
        if workload in workloads
    ]


def is_exact(metric: Metric, workload: str) -> bool:
    return metric.bound == 0 or workload in EXACT_ON.get(metric.name, ())


_L = "lower"
_H = "higher"

#: Per-layer metrics, from the traced run.  Layer names are module names;
#: every ``*_us`` line is microseconds per frame (serve-*) or per event
#: (engine-disorder), so the serve ledger (LEDGER below) sums to gateway busy time.
PER_LAYER: List[Metric] = [
    Metric("ingest.server.transport_us", "us", _L, 0),
    Metric("ingest.server.admit_self_us", "us", _L, 0),
    Metric("ingest.server.frames_per_sync", "count", _H, 0),
    Metric("ingest.schema.us", "us", _L, 0),
    Metric("ingest.admission.admit_self_us", "us", _L, 0),
    Metric("ingest.admission.duplicates", "count", _L, 0),
    Metric("ingest.admission.quarantined", "count", _L, 0),
    Metric("ingest.liveness.observe_us", "us", _L, 0),
    Metric("streams.punctuation.advance_us", "us", _L, 0),
    Metric("streams.punctuation.per_frame", "ratio", _L, 0),
    Metric("core.recovery.feed_self_us", "us", _L, 0),
    Metric("core.recovery.sync_us", "us", _L, 0),
    Metric("core.recovery.checkpoint_us", "us", _L, 0),
    Metric("core.recovery.checkpoints", "count", _L, 0),
    Metric("core.recovery.checkpoint_ms_first", "ms", _L, 0),
    Metric("core.recovery.checkpoint_ms_last", "ms", _L, 0),
    Metric("core.recovery.checkpoint_bytes_last", "bytes", _L, 0),
    Metric("core.recovery.wal_bytes_per_frame", "bytes", _L, 0),
    Metric("core.recovery.disk_mb", "MB", _L, 0),
    Metric("core.recovery.recovery_s", "s", _L, 0),
    Metric("core.recovery.recover_wal_elements", "count", _L, 0),
    Metric("core.recovery.recover_replayed", "count", _L, 0),
    Metric("core.recovery.recover_checkpoint_load_ms", "ms", _L, 0),
    Metric("core.engine.feed_us", "us", _L, 0),
    Metric("core.engine.feed_calls_per_frame", "ratio", _L, 0),
    Metric("core.engine.snapshot_us", "us", _L, 0),
    Metric("core.engine.results_retained", "count", _L, 0),
    Metric("core.engine.state_peak", "items", _L, 0),
    Metric("core.engine.emit_lag_p90_events", "events", _L, 0),
    Metric("core.engine.feed_batch_us", "us", _L, 0),
    Metric("core.engine.feed_event_us", "us", _L, 0),
    Metric("core.engine.feed_colbatch_us", "us", _L, 0),
    Metric("core.colbatch.build_us", "us", _L, 0),
    Metric("core.engine.predicate_evals_per_event", "ratio", _L, 0),
    Metric("core.engine.purged_per_event", "ratio", _L, 0),
    Metric("core.engine.index_hit_share", "ratio", _H, 0),
    Metric("core.reorder.feed_batch_us", "us", _L, 0),
    Metric("core.partition.serial_us", "us", _L, 0),
    Metric("core.partition.parallel_us", "us", _L, 0),
    Metric("core.pipeline.us", "us", _L, 0),
    Metric("loadgen.sched_lag_p99_ms", "ms", _L, 0),
    Metric("loadgen.ack_p50_ms", "ms", _L, 0),
    Metric("loadgen.ack_p95_ms", "ms", _L, 0),
    Metric("loadgen.ack_p99_ms", "ms", _L, 0),
    Metric("loadgen.match_p50_ms", "ms", _L, 0),
    Metric("loadgen.match_p95_ms", "ms", _L, 0),
    Metric("loadgen.backlog_end", "count", _L, 0),
    Metric("bench.trace_overhead", "ratio", _L, 0),
]

#: The serve ledger: these per-layer lines partition gateway busy time.
LEDGER = (
    "ingest.server.transport_us",
    "ingest.server.admit_self_us",
    "ingest.schema.us",
    "ingest.admission.admit_self_us",
    "ingest.liveness.observe_us",
    "streams.punctuation.advance_us",
    "core.recovery.feed_self_us",
    "core.recovery.sync_us",
    "core.recovery.checkpoint_us",
    "core.engine.feed_us",
)

#: A paced run is a measurement only if the generator itself kept schedule.
PACED_MAX_SCHED_LAG_P99_MS = 5.0


def percentile(values: Sequence[float], q: float) -> float:
    """The q-quantile by the repo's rank convention, ``ceil(q * n) - 1``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def scaled(workload: str, seconds: float) -> Dict[str, Any]:
    """The workload's parameters with every count scaled to *seconds*."""
    params = dict(WORKLOADS[workload])
    share = seconds / RUN_SECONDS
    for key in ("frames", "events", "event_prefix", "family_prefix"):
        if key in params:
            params[key] = max(64, int(round(params[key] * share)))
    if "rate" in params:
        params["frames"] = max(64, int(round(params["rate"] * seconds)))
    if params.get("resend"):
        params["resend"] = min(params["resend"], params["frames"] // 2)
    return params


def benchmark_json() -> Dict[str, Any]:
    """What BENCHMARK.json must contain (the self-test compares)."""
    def entry(metric: Metric, bounded: bool) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": metric.name, "unit": metric.unit, "better": metric.better,
        }
        if bounded:
            out["bound"] = metric.bound
        return out

    return {
        "command": ["python3", "benchmarks/e24/run.py"],
        "paths": ["benchmarks/e24"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": params["why"]}
            for name, params in WORKLOADS.items()
        ],
        "end_to_end": [entry(metric, True) for metric in END_TO_END],
        "per_layer": [entry(metric, False) for metric in PER_LAYER],
    }


def _commit() -> str:
    """HEAD's hash read straight from .git (no subprocess); '' outside git."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return ""


def fingerprint(seed: int, seconds: float) -> Dict[str, Any]:
    """Host + run identity carried by every results file."""
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": _commit(),
        "seed": seed,
        "seconds": seconds,
        "run_seconds": RUN_SECONDS,
        "counts": {name: scaled(name, seconds) for name in WORKLOADS},
    }
