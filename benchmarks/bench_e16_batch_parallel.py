"""E16 — Batched execution.

Extension experiment (beyond the paper, towards the ROADMAP's
"as fast as the hardware allows" north star): measures micro-batching,
the mechanical speed lever added on top of the out-of-order machinery.
``feed`` and ``feed_batch`` drive the same step loop, so a batch pays
the loop's set-up (hoisted lookups, clock and purge-schedule mirrors,
counter flush) once instead of once per element and elides no-op purge
scans across elements; the speedup column measures that per-call
amortisation of one implementation, not a second implementation
(identical by construction, pinned by the property suite and the
golden trajectories).

Expected shape: batch throughput rises with batch size and saturates
once per-batch fixed costs vanish (>= 1.5x at batch 512 on the E2
workload).  Results are asserted identical across disciplines.

Writes ``BENCH_e16.json`` at the repo root (machine-readable trajectory
seed) next to the usual rendered table under ``benchmarks/results/``.

CLI: ``python benchmarks/bench_e16_batch_parallel.py [--quick]``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

import pytest

from repro.bench import make_engine, run_cell
from repro.metrics import render_table
from repro.streams import RandomDelayModel
from repro.workloads import SyntheticWorkload

from common import write_result

EVENTS = 6000
RATE = 0.3
MAX_DELAY = 40
BATCH_SIZES = [0, 32, 128, 512, None]  # 0 = per-event feed, None = one batch
REPEATS = 3
JSON_PATH = Path(__file__).parent.parent / "BENCH_e16.json"


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


def _best_cell(factory, arrival, batch_size, repeats=REPEATS):
    """run_cell, best wall time of *repeats* fresh engines (noise floor)."""
    best = None
    for _ in range(repeats):
        cell = run_cell(factory(), arrival, batch_size=batch_size)
        if best is None or cell["seconds"] < best["seconds"]:
            best = cell
    return best


def _batch_sweep(query, arrival, batch_sizes, repeats):
    baseline = None
    rows = []
    reference_keys = None
    for batch_size in batch_sizes:
        engine_keys = []

        def factory():
            engine = make_engine("ooo", query, k=MAX_DELAY)
            engine_keys.append(engine)
            return engine

        cell = _best_cell(factory, arrival, batch_size, repeats)
        produced = engine_keys[-1].result_set()
        if reference_keys is None:
            reference_keys = produced
        else:
            assert produced == reference_keys, "batch discipline changed results"
        if baseline is None:
            baseline = cell["seconds"]
        label = "feed" if batch_size == 0 else (
            "all" if batch_size is None else batch_size
        )
        rows.append(
            {
                "batch_size": label,
                "seconds": round(cell["seconds"], 4),
                "events_per_sec": int(cell["events_per_sec"]),
                "speedup_vs_feed": round(baseline / cell["seconds"], 2),
                "matches": cell["matches"],
            }
        )
    return rows


def run_experiment(quick: bool = False) -> str:
    events = 1500 if quick else EVENTS
    batch_sizes = [0, 512] if quick else BATCH_SIZES
    repeats = 1 if quick else REPEATS

    query, arrival = _arrival(events)
    batch_rows = _batch_sweep(query, arrival, batch_sizes, repeats)

    payload = {
        "experiment": "e16_batch_parallel",
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "workload": {
            "events": events,
            "disorder_rate": RATE,
            "max_delay": MAX_DELAY,
            "k": MAX_DELAY,
            "within": 40,
            "partitions": 8,
        },
        "batch": batch_rows,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    text = render_table(
        f"E16a — feed_batch speedup vs batch size (ooo engine, n={events}, "
        f"rate={RATE}, K={MAX_DELAY})",
        ["batch_size", "seconds", "events_per_sec", "speedup_vs_feed", "matches"],
        [[r["batch_size"], r["seconds"], r["events_per_sec"],
          r["speedup_vs_feed"], r["matches"]] for r in batch_rows],
        note="batch_size 'feed' = one feed() call per element; 'all' = one batch",
    )
    return write_result("e16_batch_parallel", text)


def test_e16_report(benchmark):
    text = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print(text)
    payload = json.loads(JSON_PATH.read_text(encoding="utf-8"))
    at_512 = next(r for r in payload["batch"] if r["batch_size"] == 512)
    assert at_512["speedup_vs_feed"] >= 1.5, (
        f"batch=512 speedup regressed: {at_512['speedup_vs_feed']}x < 1.5x"
    )


@pytest.mark.parametrize("batch_size", [0, 512])
def test_e16_kernel(benchmark, batch_size):
    """Timing kernel per feeding discipline."""
    query, arrival = _arrival()

    def kernel():
        engine = make_engine("ooo", query, k=MAX_DELAY)
        if batch_size == 0:
            for element in arrival:
                engine.feed(element)
        else:
            for lo in range(0, len(arrival), batch_size):
                engine.feed_batch(arrival[lo : lo + batch_size])
        engine.close()
        return len(engine.results)

    benchmark(kernel)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small smoke configuration for CI (no speedup assertions)",
    )
    args = parser.parse_args()
    print(run_experiment(quick=args.quick))
    sys.exit(0)
