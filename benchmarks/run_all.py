#!/usr/bin/env python3
"""Run every experiment (E1–E12) and print all reconstructed tables.

Usage:  python benchmarks/run_all.py [e1 e5 ...]

This is the human-facing entry point; ``pytest benchmarks/
--benchmark-only`` runs the same sweeps with timing statistics and
claim assertions.  Each experiment also writes its table to
``benchmarks/results/``.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

EXPERIMENTS = [
    ("e1", "bench_e1_inorder_breakage"),
    ("e2", "bench_e2_throughput_vs_rate"),
    ("e3", "bench_e3_latency_vs_k"),
    ("e4", "bench_e4_memory"),
    ("e5", "bench_e5_purge"),
    ("e6", "bench_e6_optimizations"),
    ("e7", "bench_e7_query_length"),
    ("e8", "bench_e8_negation"),
    ("e9", "bench_e9_window"),
    ("e10", "bench_e10_rfid"),
    ("e11", "bench_e11_aggressive"),
    ("e12", "bench_e12_kslack"),
    ("e13", "bench_e13_partitioning"),
    ("e14", "bench_e14_kleene"),
    ("e16", "bench_e16_batch_parallel"),
    ("e17", "bench_e17_recovery"),
    ("e18", "bench_e18_observability"),
    ("e19", "bench_e19_equality_index"),
    ("e20", "bench_e20_speculative"),
    ("e21", "bench_e21_ingest_soak"),
    ("e22", "bench_e22_latency_attribution"),
]


def main(argv: list) -> int:
    selected = {name.lower() for name in argv} or {name for name, __ in EXPERIMENTS}
    for name, module_name in EXPERIMENTS:
        if name not in selected:
            continue
        module = importlib.import_module(module_name)
        started = time.perf_counter()
        text = module.run_experiment()
        elapsed = time.perf_counter() - started
        print(text)
        print(f"[{name} completed in {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
