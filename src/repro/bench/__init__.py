"""Benchmark harness shared by the scripts in ``benchmarks/``."""

from repro.bench.runner import (
    ENGINE_NAMES,
    make_engine,
    oracle_truth,
    run_cell,
)

__all__ = ["ENGINE_NAMES", "make_engine", "oracle_truth", "run_cell"]
