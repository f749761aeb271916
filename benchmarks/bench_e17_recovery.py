"""E17 — Checkpoint overhead and crash-recovery cost (robustness layer).

Not a paper figure: this experiment characterises the durability layer
added on top of the reproduction.  Two sweeps on the E2 workload
(synthetic 3-step query, 30% disorder):

* **E17a — checkpoint overhead vs interval.**  The resilient runner
  (write-ahead log + periodic engine snapshots) against the plain
  per-event feed loop it wraps.  The WAL append is per-element and
  constant; snapshot cost amortises with the interval, so the overhead
  curve flattens toward the WAL floor.  Claim: at intervals >= 1000
  events the whole durability layer costs **less than 2x** wall time.

* **E17b — recovery time vs state size.**  Crash the runner 3/4 of the
  way through the trace, then time a cold recovery (restore last
  checkpoint + replay the WAL suffix).  The disorder bound K scales the
  engine's retained state (larger K -> later purge horizon), so the
  sweep exposes how recovery cost tracks checkpoint size.  The runner
  takes delivered matches from the engine, so ``ckpt bytes`` is live
  state; match counts are read from the runner (``delivered_count``).

Writes ``BENCH_e17.json`` at the repo root (machine-readable results
for trend tracking) next to the rendered table in
``benchmarks/results/``.  ``--quick`` runs a smaller configuration.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.bench import make_engine
from repro.core.recovery import CHECKPOINT_NAME, ResilientRunner
from repro.faultinject import CrashError, FaultInjector
from repro.metrics import render_series, render_table
from repro.streams import RandomDelayModel
from repro.workloads import SyntheticWorkload

from common import write_result

JSON_PATH = Path(__file__).parent.parent / "BENCH_e17.json"

RATE = 0.3
MAX_DELAY = 40
EVENTS = 6000
INTERVALS = [100, 250, 1000, 2500]
K_VALUES = [10, 40, 160, 640]
# Timing cells take the best of REPEATS passes: overhead is a ratio of
# two wall-clock times, and a single noisy pass on a shared machine can
# swing it across the <2x claim.  Best-of-n measures the cost floor,
# which is what the claim is about.
REPEATS = 3


def _arrival(events: int = EVENTS):
    workload = SyntheticWorkload(
        query_length=3,
        event_count=events,
        within=40,
        partitions=8,
        disorder=RandomDelayModel(RATE, MAX_DELAY, seed=3),
        seed=4,
    )
    __, arrival = workload.generate()
    return workload.query, arrival


def _baseline_cell(query, arrival):
    best = float("inf")
    for _ in range(REPEATS):
        engine = make_engine("ooo", query, k=MAX_DELAY)
        start = time.perf_counter()
        for element in arrival:
            engine.feed(element)
        engine.close()
        best = min(best, time.perf_counter() - start)
    return best, len(engine.results)


def _resilient_cell(query, arrival, interval):
    best = float("inf")
    for _ in range(REPEATS):
        with tempfile.TemporaryDirectory(prefix="repro-e17-") as directory:
            engine = make_engine("ooo", query, k=MAX_DELAY)
            runner = ResilientRunner(engine, directory, checkpoint_every=interval)
            start = time.perf_counter()
            runner.run(arrival)
            best = min(best, time.perf_counter() - start)
            checkpoint_bytes = (Path(directory) / CHECKPOINT_NAME).stat().st_size
    return best, runner.delivered_count, runner.checkpoints_written, checkpoint_bytes


def _recovery_cell(query, arrival, k, interval):
    crash_index = (len(arrival) * 3) // 4
    with tempfile.TemporaryDirectory(prefix="repro-e17-") as directory:
        fault = FaultInjector(crash_at=[crash_index])
        runner = ResilientRunner(
            make_engine("ooo", query, k=k),
            directory,
            checkpoint_every=interval,
            fault=fault,
        )
        try:
            runner.run(arrival)
        except CrashError:
            pass
        checkpoint_bytes = (Path(directory) / CHECKPOINT_NAME).stat().st_size
        start = time.perf_counter()
        recovered = ResilientRunner(
            make_engine("ooo", query, k=k), directory, checkpoint_every=interval
        )
        recovery_seconds = time.perf_counter() - start
        replayed = recovered.replayed_elements
        recovered.run(arrival)
        return {
            "k": k,
            "checkpoint_bytes": checkpoint_bytes,
            "recovery_seconds": recovery_seconds,
            "replayed_elements": replayed,
            "matches": recovered.delivered_count,
        }


def _commit() -> str:
    try:
        return subprocess.check_output(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).parent, text=True, stderr=subprocess.DEVNULL,
        ).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_experiment(events: int = EVENTS, intervals=None, k_values=None) -> str:
    intervals = intervals or INTERVALS
    k_values = k_values or K_VALUES
    query, arrival = _arrival(events)
    base_seconds, base_matches = _baseline_cell(query, arrival)

    overhead_rows = []
    overhead_series = {"overhead_x": [], "checkpoints": []}
    for interval in intervals:
        seconds, matches, checkpoints, ckpt_bytes = _resilient_cell(
            query, arrival, interval
        )
        assert matches == base_matches, (
            f"resilient run produced {matches} matches vs baseline {base_matches}"
        )
        ratio = seconds / base_seconds if base_seconds > 0 else float("inf")
        overhead_series["overhead_x"].append(round(ratio, 2))
        overhead_series["checkpoints"].append(checkpoints)
        overhead_rows.append(
            {
                "interval": interval,
                "seconds": seconds,
                "overhead_x": ratio,
                "checkpoints": checkpoints,
                "checkpoint_bytes": ckpt_bytes,
            }
        )

    recovery_rows = [
        _recovery_cell(query, arrival, k, interval=1000) for k in k_values
    ]

    text = render_series(
        f"E17a — durability overhead (x plain per-event feed) vs checkpoint "
        f"interval, n={events}",
        "interval",
        intervals,
        overhead_series,
        note=f"baseline {base_seconds:.2f}s; WAL append dominates at large intervals",
    )
    text += render_table(
        "E17b — cold recovery cost vs engine state size (crash at 75% of trace)",
        ["K", "ckpt bytes", "recovery s", "replayed", "matches"],
        [
            [
                row["k"],
                row["checkpoint_bytes"],
                round(row["recovery_seconds"], 4),
                row["replayed_elements"],
                row["matches"],
            ]
            for row in recovery_rows
        ],
    )

    payload = {
        "experiment": "e17",
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "events": events,
        "baseline_seconds": base_seconds,
        "baseline_matches": base_matches,
        "overhead": overhead_rows,
        "recovery": recovery_rows,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return write_result("e17_recovery", text)


def test_e17_report(benchmark):
    text = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print(text)
    assert "E17a" in text and "E17b" in text
    payload = json.loads(JSON_PATH.read_text(encoding="utf-8"))
    for row in payload["overhead"]:
        if row["interval"] >= 1000:
            assert row["overhead_x"] < 2.0, (
                f"checkpoint interval {row['interval']} costs "
                f"{row['overhead_x']:.2f}x, expected < 2x"
            )
    # Every crash/recover cycle must land on the uninterrupted result
    # (K >= the trace's max delay means no late drops, so the count must
    # match the baseline exactly; smaller K legitimately drops matches).
    for row in payload["recovery"]:
        if row["k"] >= MAX_DELAY:
            assert row["matches"] == payload["baseline_matches"]


def test_e17_kernel(benchmark):
    """Timing kernel: one checkpointed pass at the claim interval."""
    query, arrival = _arrival(EVENTS // 4)

    def kernel():
        with tempfile.TemporaryDirectory(prefix="repro-e17-") as directory:
            engine = make_engine("ooo", query, k=MAX_DELAY)
            return len(
                ResilientRunner(engine, directory, checkpoint_every=1000).run(arrival)
            )

    benchmark(kernel)


if __name__ == "__main__":
    if "--quick" in sys.argv:
        print(run_experiment(events=1500, intervals=[100, 500], k_values=[10, 40]))
    else:
        print(run_experiment())
