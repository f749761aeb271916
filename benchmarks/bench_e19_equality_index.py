"""E19 — Equality-index pushdown in sequence construction.

Not a paper figure: this experiment prices the equality-index layer
(PR "equality-indexed stacks") against range-only construction.  The
synthetic chain query joins all steps on a partition attribute, so the
join selectivity is ``1 / partitions`` per step — the knob SASE-style
equi-join pushdown is supposed to win on.

* **E19a — speedup vs join selectivity.**  Fixed disorder (rate 0.3,
  K = 30), sweep the partition cardinality.  Per cell, the same arrival
  trace is fed to an indexed engine and a range-only (``index=False``)
  ablation, best of REPEATS passes each; the ordered emission streams
  must be byte-identical and equal to the offline oracle's result set.
  Claim: at selectivity ≤ 1% the indexed engine constructs ≥ 3x faster.

* **E19b — disorder invariance.**  Fixed high selectivity, sweep the
  disorder rate.  The posting lists absorb out-of-order splices exactly
  like the stacks themselves, so the win must not degrade with disorder
  — and outputs stay identical to the oracle at every rate.

* **E19c — no-equality regression guard.**  A chain query *without*
  equality predicates plans no index (the engine builds plain stacks),
  so ``index=True`` must cost within 5% of ``index=False`` — the layer
  is free when it cannot help.

Writes ``BENCH_e19.json`` at the repo root next to the rendered tables
in ``benchmarks/results/``.  ``--quick`` runs a smaller configuration
with looser bounds (single-machine CI timing is noisy).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.engine import OutOfOrderEngine
from repro.core.oracle import OfflineOracle
from repro.metrics import render_table
from repro.streams import NoDisorder, RandomDelayModel
from repro.workloads import SyntheticWorkload, chain_query

from common import write_result

JSON_PATH = Path(__file__).parent.parent / "BENCH_e19.json"

EVENTS = 6000
WITHIN = 400
K = 30
RATE = 0.3
PARTITION_SWEEP = [16, 64, 256]
SELECTIVE_PARTITIONS = 256  # selectivity 1/256 ≈ 0.4% per join
DISORDER_SWEEP = [0.0, 0.2, 0.4]
REGRESSION_EVENTS = 4000
REGRESSION_WITHIN = 40
# Speedup is a ratio of two wall-clock times; best-of-n measures the
# cost floor on a shared machine, which is what the ≥3x claim is about.
REPEATS = 5


def _workload(partitions: int, rate: float, events: int) -> SyntheticWorkload:
    disorder = NoDisorder() if rate == 0 else RandomDelayModel(rate, K, seed=3)
    return SyntheticWorkload(
        query_length=3,
        event_count=events,
        within=WITHIN,
        partitions=partitions,
        disorder=disorder,
        seed=4,
    )


def _timed_run(query, arrival, index: bool, repeats: int):
    """Best-of-*repeats* wall time; returns (seconds, final engine)."""
    best = float("inf")
    for _ in range(repeats):
        engine = OutOfOrderEngine(query, k=K, index=index)
        start = time.perf_counter()
        engine.feed_batch(arrival)
        engine.close()
        best = min(best, time.perf_counter() - start)
    return best, engine


def _emission_trail(engine):
    """The ordered emission stream, down to detection order — the
    byte-identical comparison the ablation flag promises."""
    return [(match.key(), match.detected_at) for match in engine.results]


def _indexed_cell(partitions: int, rate: float, events: int, repeats: int):
    workload = _workload(partitions, rate, events)
    occurrence, arrival = workload.generate()
    indexed_seconds, indexed = _timed_run(workload.query, arrival, True, repeats)
    range_seconds, range_only = _timed_run(workload.query, arrival, False, repeats)

    assert _emission_trail(indexed) == _emission_trail(range_only), (
        f"indexed and range-only emission streams diverge "
        f"(partitions={partitions}, rate={rate})"
    )
    truth = OfflineOracle(workload.query).evaluate_set(occurrence)
    assert indexed.result_set() == truth, (
        f"indexed engine diverges from the oracle "
        f"(partitions={partitions}, rate={rate})"
    )
    return {
        "partitions": partitions,
        "selectivity": round(1.0 / partitions, 6),
        "rate": rate,
        "indexed_seconds": indexed_seconds,
        "range_seconds": range_seconds,
        "speedup_x": round(range_seconds / indexed_seconds, 4),
        "matches": len(indexed.results),
        "index_hits": indexed.stats.index_hits,
        "index_misses": indexed.stats.index_misses,
        "partials_indexed": indexed.stats.partial_combinations,
        "partials_range": range_only.stats.partial_combinations,
        "identical_output": True,
        "oracle_exact": True,
    }


def _regression_cell(events: int, repeats: int):
    """E19c: a query with no equality predicates plans no index."""
    query = chain_query(3, REGRESSION_WITHIN, partitioned=False, name="noeq3")
    workload = _workload(partitions=8, rate=RATE, events=events)
    workload.query = query
    __, arrival = workload.generate()
    indexed_seconds, indexed = _timed_run(query, arrival, True, repeats)
    range_seconds, range_only = _timed_run(query, arrival, False, repeats)
    assert indexed.constructor.indexed_attrs is None, (
        "no-equality query unexpectedly planned an index"
    )
    assert _emission_trail(indexed) == _emission_trail(range_only)
    return {
        "events": events,
        "indexed_seconds": indexed_seconds,
        "range_seconds": range_seconds,
        "overhead_x": round(indexed_seconds / range_seconds, 4),
        "matches": len(indexed.results),
        "index_hits": indexed.stats.index_hits,
    }


def run_experiment(quick: bool = False) -> str:
    events = 2000 if quick else EVENTS
    regression_events = 1500 if quick else REGRESSION_EVENTS
    repeats = 2 if quick else REPEATS
    speedup_bound = 1.5 if quick else 3.0
    regression_bound = 1.25 if quick else 1.05

    selectivity_rows = [
        _indexed_cell(partitions, RATE, events, repeats)
        for partitions in PARTITION_SWEEP
    ]
    disorder_rows = [
        _indexed_cell(SELECTIVE_PARTITIONS, rate, events, repeats)
        for rate in DISORDER_SWEEP
    ]
    regression = _regression_cell(regression_events, repeats)

    payload = {
        "experiment": "e19",
        "quick": quick,
        "events": events,
        "within": WITHIN,
        "k": K,
        "speedup_bound": speedup_bound,
        "selective_partitions": SELECTIVE_PARTITIONS,
        "regression_bound": regression_bound,
        "selectivity": selectivity_rows,
        "disorder": disorder_rows,
        "regression": regression,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    text = render_table(
        f"E19a — construction speedup vs join selectivity "
        f"(n={events}, W={WITHIN}, rate={RATE}, K={K})",
        ["partitions", "selectivity", "indexed_s", "range_s", "speedup_x",
         "matches", "hits", "misses"],
        [
            [r["partitions"], r["selectivity"], round(r["indexed_seconds"], 4),
             round(r["range_seconds"], 4), r["speedup_x"], r["matches"],
             r["index_hits"], r["index_misses"]]
            for r in selectivity_rows
        ],
        note=f"claim: ≥ {speedup_bound}x at selectivity ≤ 1%; ordered "
             "emissions byte-identical and oracle-exact per cell",
    )
    text += render_table(
        f"E19b — speedup vs disorder rate (partitions={SELECTIVE_PARTITIONS})",
        ["rate", "indexed_s", "range_s", "speedup_x", "matches"],
        [
            [r["rate"], round(r["indexed_seconds"], 4),
             round(r["range_seconds"], 4), r["speedup_x"], r["matches"]]
            for r in disorder_rows
        ],
        note="posting lists splice like the stacks: wins hold at every rate",
    )
    text += render_table(
        f"E19c — no-equality regression guard (n={regression_events}, "
        f"W={REGRESSION_WITHIN})",
        ["indexed_s", "range_s", "overhead_x", "matches", "hits"],
        [[round(regression["indexed_seconds"], 4),
          round(regression["range_seconds"], 4), regression["overhead_x"],
          regression["matches"], regression["index_hits"]]],
        note=f"claim: index=True within {regression_bound}x of index=False "
             "when no equality predicate exists (no index is even planned)",
    )
    return write_result("e19_equality_index", text)


def _assert_claims(payload: dict) -> None:
    selective = next(
        r for r in payload["selectivity"]
        if r["partitions"] == payload["selective_partitions"]
    )
    if selective["speedup_x"] < payload["speedup_bound"]:
        raise SystemExit(
            f"selective equi-join speedup {selective['speedup_x']:.2f}x "
            f"below the {payload['speedup_bound']}x bound"
        )
    for row in payload["selectivity"] + payload["disorder"]:
        if not (row["identical_output"] and row["oracle_exact"]):
            raise SystemExit(f"output identity violated in cell {row!r}")
    overhead = payload["regression"]["overhead_x"]
    if overhead > payload["regression_bound"]:
        raise SystemExit(
            f"no-equality workload regressed {overhead:.4f}x, expected "
            f"<= {payload['regression_bound']}x"
        )


def test_e19_report(benchmark):
    text = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print(text)
    assert "E19a" in text and "E19b" in text and "E19c" in text
    payload = json.loads(JSON_PATH.read_text(encoding="utf-8"))
    _assert_claims(payload)
    # The qualitative claim: pushdown wins grow with join selectivity.
    speedups = [r["speedup_x"] for r in payload["selectivity"]]
    assert speedups[-1] > speedups[0], (
        f"speedup did not grow with selectivity: {speedups}"
    )


def test_e19_kernel(benchmark):
    """Timing kernel: one indexed pass at the selective configuration."""
    workload = _workload(SELECTIVE_PARTITIONS, RATE, EVENTS // 4)
    __, arrival = workload.generate()

    def kernel():
        engine = OutOfOrderEngine(workload.query, k=K, index=True)
        engine.feed_batch(arrival)
        engine.close()
        return len(engine.results)

    benchmark(kernel)


def check_claim() -> None:
    """Assert the recorded speedup/identity/regression claims (CI gate)."""
    payload = json.loads(JSON_PATH.read_text(encoding="utf-8"))
    _assert_claims(payload)
    selective = next(
        r for r in payload["selectivity"]
        if r["partitions"] == payload["selective_partitions"]
    )
    print(
        f"claim holds: {selective['speedup_x']:.2f}x ≥ "
        f"{payload['speedup_bound']}x at selectivity "
        f"{selective['selectivity']:.2%}, outputs identical, no-equality "
        f"overhead {payload['regression']['overhead_x']:.4f}x"
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small smoke configuration for CI (looser bounds)",
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
