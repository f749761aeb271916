"""E18 — Observability overhead and emission-latency histograms.

Not a paper figure: this experiment prices the runtime observability
layer (PR "obs") on the E2 workload (synthetic 3-step query, 30%
disorder) and demonstrates its payoff.

* **E18a — hot-path overhead.**  Four feeding disciplines, best of
  REPEATS passes each:

  - ``pre_pr``   — an honest control: ``Engine.feed`` with the ``_obs``
    branch surgically removed, i.e. the hot path as it was before this
    PR landed;
  - ``disabled`` — the shipped default (``_obs is None`` check only);
  - ``metrics``  — counters + histograms enabled, no tracing;
  - ``tracing``  — full per-element span recording.

  Claim: the disabled path costs **< 3%** over the pre-PR control.
  Instrumented paths are honestly slower (``Observability.feed_batch``
  drives every observed step) — recorded, not hidden.

* **E18b — emission latency vs out-of-order rate.**  With metrics
  enabled, sweep the disorder rate and render the
  ``repro_emission_latency_ts`` histogram per rate: more disorder means
  matches complete further (in ts units) behind the newest event seen,
  so mass shifts into higher buckets.

Writes ``BENCH_e18.json`` at the repo root next to the rendered tables
in ``benchmarks/results/``.  ``--quick`` runs a smaller configuration
with a looser overhead bound (single-pass timing on CI is noisy).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.core.engine import OutOfOrderEngine
from repro.core.errors import EngineStateError
from repro.core.event import Event
from repro.metrics import render_histogram, render_table
from repro.obs import MetricsRegistry, Tracer
from repro.streams import RandomDelayModel
from repro.workloads import SyntheticWorkload

from common import write_result

JSON_PATH = Path(__file__).parent.parent / "BENCH_e18.json"

RATE = 0.3
MAX_DELAY = 40
EVENTS = 6000
SWEEP_RATES = [0.0, 0.2, 0.4]
# Overhead is a ratio of two wall-clock times; best-of-n measures the
# cost floor on a shared machine, which is what the <3% claim is about.
REPEATS = 5


class _PrePRControl(OutOfOrderEngine):
    """The engine without the ``_obs`` guard.

    ``feed`` below is ``Engine.feed`` — the one-element driver of the
    step loop — verbatim minus the two observability lines, so the a/b
    comparison isolates the one attribute check the disabled path adds.
    """

    def feed(self, element):
        if self._closed:
            raise EngineStateError(f"{type(self).__name__} is closed")
        if isinstance(element, Event):
            return self._run((element,))
        return self._feed_punctuation(element)


def _arrival(events: int = EVENTS, rate: float = RATE):
    workload = SyntheticWorkload(
        query_length=3,
        event_count=events,
        within=40,
        partitions=8,
        disorder=RandomDelayModel(rate, MAX_DELAY, seed=3),
        seed=4,
    )
    __, arrival = workload.generate()
    return workload.query, arrival


def _build(mode: str, query):
    if mode == "pre_pr":
        return _PrePRControl(query, k=MAX_DELAY)
    engine = OutOfOrderEngine(query, k=MAX_DELAY)
    if mode == "metrics":
        engine.enable_observability(metrics=MetricsRegistry())
    elif mode == "tracing":
        engine.enable_observability(
            tracer=Tracer(capacity=4096), metrics=MetricsRegistry()
        )
    return engine


def _timed_cell(mode: str, query, arrival, repeats: int):
    best = float("inf")
    for _ in range(repeats):
        engine = _build(mode, query)
        start = time.perf_counter()
        for element in arrival:
            engine.feed(element)
        engine.close()
        best = min(best, time.perf_counter() - start)
    return best, len(engine.results)


def _overhead_sweep(query, arrival, repeats: int):
    rows = []
    control_seconds = None
    for mode in ("pre_pr", "disabled", "metrics", "tracing"):
        seconds, matches = _timed_cell(mode, query, arrival, repeats)
        if control_seconds is None:
            control_seconds = seconds
        rows.append(
            {
                "mode": mode,
                "seconds": seconds,
                "events_per_sec": int(len(arrival) / seconds),
                "overhead_x": round(seconds / control_seconds, 4),
                "matches": matches,
            }
        )
    reference = rows[0]["matches"]
    assert all(row["matches"] == reference for row in rows), (
        "observability changed results: " + repr([r["matches"] for r in rows])
    )
    return rows


def _latency_sweep(events: int):
    """Emission-latency histograms per disorder rate (metrics enabled)."""
    cells = []
    for rate in SWEEP_RATES:
        query, arrival = _arrival(events, rate)
        registry = MetricsRegistry()
        engine = OutOfOrderEngine(query, k=MAX_DELAY)
        engine.enable_observability(metrics=registry)
        for element in arrival:
            engine.feed(element)
        engine.close()
        histogram = registry.get("repro_emission_latency_ts")
        cells.append(
            {
                "rate": rate,
                "matches": len(engine.results),
                "histogram": {
                    "bounds": list(histogram.bounds),
                    "counts": list(histogram.counts),
                    "total": histogram.total,
                    "count": histogram.count,
                },
                "summary": histogram.summary(),
                "rendered": render_histogram(
                    f"E18b — emission latency (ts units), disorder rate={rate}",
                    histogram,
                    note=f"rate={rate} matches={len(engine.results)}",
                ),
            }
        )
    return cells


def run_experiment(quick: bool = False) -> str:
    events = 1500 if quick else EVENTS
    repeats = 2 if quick else REPEATS
    bound = 1.10 if quick else 1.03

    query, arrival = _arrival(events)
    overhead_rows = _overhead_sweep(query, arrival, repeats)
    latency_cells = _latency_sweep(events)

    payload = {
        "experiment": "e18",
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "events": events,
        "disorder_rate": RATE,
        "k": MAX_DELAY,
        "overhead_bound": bound,
        "overhead": overhead_rows,
        "latency": [
            {key: cell[key] for key in ("rate", "matches", "histogram", "summary")}
            for cell in latency_cells
        ],
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    text = render_table(
        f"E18a — observability overhead vs pre-PR hot path (ooo engine, "
        f"n={events}, rate={RATE}, K={MAX_DELAY})",
        ["mode", "seconds", "events_per_sec", "overhead_x", "matches"],
        [
            [r["mode"], round(r["seconds"], 4), r["events_per_sec"],
             r["overhead_x"], r["matches"]]
            for r in overhead_rows
        ],
        note=f"claim: disabled < {bound}x pre_pr; identical result sets "
             "asserted per mode",
    )
    for cell in latency_cells:
        text += cell["rendered"]
    return write_result("e18_observability", text)


def test_e18_report(benchmark):
    text = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print(text)
    assert "E18a" in text and "E18b" in text
    payload = json.loads(JSON_PATH.read_text(encoding="utf-8"))
    disabled = next(r for r in payload["overhead"] if r["mode"] == "disabled")
    assert disabled["overhead_x"] < payload["overhead_bound"], (
        f"disabled observability costs {disabled['overhead_x']:.4f}x the "
        f"pre-PR hot path, expected < {payload['overhead_bound']}x"
    )
    # More disorder -> matches complete further behind the stream head,
    # so mean emission latency must be monotone in the disorder rate.
    means = [cell["summary"]["mean"] for cell in payload["latency"]]
    assert means == sorted(means), f"latency means not monotone: {means}"


def test_e18_kernel(benchmark):
    """Timing kernel: one fully instrumented pass (metrics + tracing)."""
    query, arrival = _arrival(EVENTS // 4)

    def kernel():
        engine = _build("tracing", query)
        for element in arrival:
            engine.feed(element)
        engine.close()
        return len(engine.results)

    benchmark(kernel)


def check_claim() -> None:
    """Assert the disabled-path bound recorded in the payload (CI gate)."""
    payload = json.loads(JSON_PATH.read_text(encoding="utf-8"))
    disabled = next(r for r in payload["overhead"] if r["mode"] == "disabled")
    if disabled["overhead_x"] >= payload["overhead_bound"]:
        raise SystemExit(
            f"disabled observability costs {disabled['overhead_x']:.4f}x the "
            f"pre-PR hot path, expected < {payload['overhead_bound']}x"
        )
    print(
        f"claim holds: disabled path {disabled['overhead_x']:.4f}x "
        f"< {payload['overhead_bound']}x pre-PR control"
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small smoke configuration for CI (looser overhead bound)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail (exit nonzero) when the disabled-path claim does not hold",
    )
    args = parser.parse_args()
    print(run_experiment(quick=args.quick))
    if args.check:
        check_claim()
    sys.exit(0)
