"""E20 — Speculative emission and adaptive-K on netsim disorder bursts.

Not a paper figure: this experiment prices the PR "speculative emission
with retraction + adaptive-K controller" on the physically motivated
disorder the netsim layer produces — a star of sources where one node
suffers outages, so the sink sees calm jitter punctuated by bursts of
stale events at each recovery.  The query is a negated chain, so every
match must wait for its seal under the pessimistic protocol: sealed
emission latency is lower-bounded by K between punctuations.

Three engines consume the identical arrival trace (sparse, oracle-valid
punctuations every ``PUNCT_EVERY`` events):

* **fixed** — pessimistic ``OutOfOrderEngine`` at the trace's observed
  disorder bound (the burst-inflated K a one-shot calibration locks in);
* **fixed+spec** — the same K with speculative emission: the sealed
  stream must stay byte-identical, the speculative stream trades a
  bounded retraction rate for near-zero emission lead time;
* **adaptive** — speculative with an :class:`AdaptiveKController`
  warm-started at the fixed bound; the controller decays K between
  bursts and re-grows it when the late-drop rate threatens the quality
  target.

Claims (the CI ``--check`` gate):

1. the speculative sealed stream is byte-identical to the pessimistic
   one (same K), and the speculative stream converges to it net of
   retractions;
2. the adaptive controller's sealed mean occurrence latency is strictly
   below fixed-K's on the burst trace, at an equal-or-better retraction
   rate;
3. adaptive recall stays at or above the configured quality target.

Writes ``BENCH_e20.json`` at the repo root next to the rendered tables
in ``benchmarks/results/``.  ``--quick`` runs a smaller configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.engine import OutOfOrderEngine
from repro.core.event import Event, Punctuation
from repro.core.oracle import OfflineOracle
from repro.metrics import render_table
from repro.metrics.latency import summarize_occurrence_latency
from repro.metrics.quality import compare_keys
from repro.netsim import FailureSchedule, UniformLatency, simulate_star
from repro.streams import AdaptiveKController, validate_punctuation
from repro.workloads import chain_query

from common import write_result

JSON_PATH = Path(__file__).parent.parent / "BENCH_e20.json"

EVENTS = 8000
WITHIN = 60
PARTITIONS = 4
SOURCES = 4
PUNCT_EVERY = 512
NEGATIVE_RATE = 0.12
QUALITY_TARGET = 0.99
#: Adaptive recall is allowed to pay for its latency win with bounded
#: late-drops (the controller's quality floor binds per epoch, and the
#: burst epochs deliberately exceed the allowance before K re-grows).
RECALL_FLOOR = 0.9
#: One flaky source: two outages, recoveries flood the sink with stale
#: events — the bursty signature that inflates a one-shot K calibration.
OUTAGES = [(2000, 2400), (5000, 5350)]


def _occurrence_stream(events: int, seed: int):
    """Occurrence-ordered events for the negated chain query."""
    import random

    rng = random.Random(seed)
    alphabet = ["T1", "T2", "T3", "X1"]
    stream = []
    for ts in range(1, events + 1):
        etype = "N" if rng.random() < NEGATIVE_RATE else rng.choice(alphabet)
        stream.append(Event(etype, ts, {"part": rng.randint(1, PARTITIONS)}))
    return stream


def _burst_trace(events: int, seed: int):
    """(occurrence order, arrival order with sparse punctuations, required K).

    The occurrence stream is split round-robin across ``SOURCES`` star
    sources (per-source order preserved); one source fails per
    ``OUTAGES`` and holds its traffic until recovery.  Punctuations are
    inserted by lookahead — ``ts = min(remaining occurrence ts) - 1`` —
    so each is valid by construction, and sparse enough that K (not the
    punctuation stream) governs sealing latency in between.
    """
    occurrence = _occurrence_stream(events, seed)
    streams = {f"s{i}": occurrence[i::SOURCES] for i in range(SOURCES)}
    failures = FailureSchedule()
    scale = events / EVENTS
    for start, end in OUTAGES:
        failures.add_outage("s1", int(start * scale), int(end * scale))
    result = simulate_star(
        streams, lambda i: UniformLatency(1, 40), failures=failures, seed=seed
    )
    arrival = result.arrival_order
    required = result.observed_disorder_bound()

    elements = []
    last_punct = -1
    for index, event in enumerate(arrival):
        elements.append(event)
        if (index + 1) % PUNCT_EVERY == 0:
            remaining = arrival[index + 1 :]
            horizon = (min(e.ts for e in remaining) - 1) if remaining else event.ts
            if horizon > last_punct:
                elements.append(Punctuation(horizon))
                last_punct = horizon
    validate_punctuation(elements)
    return occurrence, elements, required


def _sealed_trail(engine):
    """The ordered sealed emission stream, down to detection order."""
    return [(m.key(), m.detected_at) for m in engine.results]


def _speculative_lead(engine):
    """Mean clock lead of speculation over the seal, in ts units."""
    log = engine.speculation
    sealed_at = {}
    for record in engine.emissions:
        sealed_at.setdefault(record.match.key(), record.emitted_clock)
    leads = [
        sealed_at[r.match.key()] - r.emitted_clock
        for r in log.emissions
        if r.match.key() in sealed_at
    ]
    return sum(leads) / len(leads) if leads else 0.0


def _cell(name, engine, elements, truth_keys):
    engine.feed_batch(elements)
    engine.close()
    occurrence = summarize_occurrence_latency(engine.emissions)
    quality = compare_keys(truth_keys, engine.result_set())
    row = {
        "name": name,
        "k_final": engine.clock.k,
        "matches": len(engine.results),
        "sealed_lat_mean": round(occurrence.mean, 3),
        "sealed_lat_p99": round(occurrence.p99, 3),
        "late_dropped": engine.stats.late_dropped,
        "recall": round(quality.recall, 4),
        "precision": round(quality.precision, 4),
        "speculative": engine.stats.speculative_emitted,
        "retractions": engine.stats.retractions_issued,
        "retraction_rate": 0.0,
        "spec_lead_mean": 0.0,
        "refreezes": 0,
    }
    if engine.speculation is not None:
        row["retraction_rate"] = round(engine.speculation.retraction_rate(), 4)
        row["spec_lead_mean"] = round(_speculative_lead(engine), 3)
        row["net_convergent"] = engine.speculation.net_keys() == engine.result_set()
    if engine._controller is not None:
        row["refreezes"] = engine._controller.adjustments
    return row


def run_experiment(quick: bool = False) -> str:
    events = 2500 if quick else EVENTS
    query = chain_query(3, WITHIN, partitioned=True, negated_step=1, name="e20chain")
    occurrence, elements, required_bound = _burst_trace(events, seed=11)
    truth = OfflineOracle(query).evaluate_set(occurrence)

    fixed = OutOfOrderEngine(query, k=required_bound)
    fixed_spec = OutOfOrderEngine(query, k=required_bound, speculative=True)
    controller = AdaptiveKController(
        quality_target=QUALITY_TARGET,
        initial_k=required_bound,
        min_epoch_events=PUNCT_EVERY // 4,
    )
    adaptive = OutOfOrderEngine(
        query, k=required_bound, speculative=True, controller=controller
    )

    rows = [
        _cell("fixed", fixed, elements, truth),
        _cell("fixed+spec", fixed_spec, elements, truth),
        _cell("adaptive", adaptive, elements, truth),
    ]
    identical = _sealed_trail(fixed) == _sealed_trail(fixed_spec)

    payload = {
        "experiment": "e20",
        "quick": quick,
        "events": events,
        "within": WITHIN,
        "sources": SOURCES,
        "punct_every": PUNCT_EVERY,
        "required_k": required_bound,
        "quality_target": QUALITY_TARGET,
        "recall_floor": RECALL_FLOOR,
        "oracle_matches": len(truth),
        "sealed_identical": identical,
        "cells": rows,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    text = render_table(
        f"E20 — speculative emission + adaptive-K on a netsim burst trace "
        f"(n={events}, W={WITHIN}, required K={required_bound}, "
        f"punctuation every {PUNCT_EVERY})",
        ["engine", "K_final", "matches", "seal_lat_mean", "seal_lat_p99",
         "late_drop", "recall", "spec", "retract", "r_rate", "lead", "refreezes"],
        [
            [r["name"], r["k_final"], r["matches"], r["sealed_lat_mean"],
             r["sealed_lat_p99"], r["late_dropped"], r["recall"],
             r["speculative"], r["retractions"], r["retraction_rate"],
             r["spec_lead_mean"], r["refreezes"]]
            for r in rows
        ],
        note="claims: sealed streams byte-identical (fixed vs fixed+spec); "
             "adaptive seals strictly faster than fixed-K at equal-or-better "
             f"retraction rate; adaptive recall ≥ {RECALL_FLOOR}",
    )
    return write_result("e20_speculative", text)


def _assert_claims(payload: dict) -> None:
    if not payload["sealed_identical"]:
        raise SystemExit("speculative sealed stream diverged from pessimistic")
    cells = {row["name"]: row for row in payload["cells"]}
    fixed, spec, adaptive = cells["fixed"], cells["fixed+spec"], cells["adaptive"]
    for row in (spec, adaptive):
        if not row.get("net_convergent", False):
            raise SystemExit(
                f"{row['name']}: speculative stream net of retractions does "
                "not converge to the sealed result set"
            )
    if adaptive["sealed_lat_mean"] >= fixed["sealed_lat_mean"]:
        raise SystemExit(
            f"adaptive sealed latency {adaptive['sealed_lat_mean']} not below "
            f"fixed-K {fixed['sealed_lat_mean']}"
        )
    if adaptive["retraction_rate"] > spec["retraction_rate"]:
        raise SystemExit(
            f"adaptive retraction rate {adaptive['retraction_rate']} worse "
            f"than fixed-K speculative {spec['retraction_rate']}"
        )
    if adaptive["recall"] < payload["recall_floor"]:
        raise SystemExit(
            f"adaptive recall {adaptive['recall']} below the "
            f"{payload['recall_floor']} floor"
        )
    if fixed["recall"] < 1.0 or fixed["precision"] < 1.0:
        raise SystemExit("pessimistic fixed-K engine is not oracle-exact")


def test_e20_report(benchmark):
    text = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print(text)
    assert "E20" in text
    payload = json.loads(JSON_PATH.read_text(encoding="utf-8"))
    _assert_claims(payload)
    # The qualitative story: speculation leads the seal by a positive
    # margin, and the controller actually moved the bound.
    cells = {row["name"]: row for row in payload["cells"]}
    assert cells["fixed+spec"]["spec_lead_mean"] > 0
    assert cells["adaptive"]["refreezes"] > 0


def check_claim() -> None:
    """Assert the recorded latency/retraction/identity claims (CI gate)."""
    payload = json.loads(JSON_PATH.read_text(encoding="utf-8"))
    _assert_claims(payload)
    cells = {row["name"]: row for row in payload["cells"]}
    print(
        f"claim holds: adaptive seals at {cells['adaptive']['sealed_lat_mean']} "
        f"vs fixed-K {cells['fixed']['sealed_lat_mean']} mean ts, retraction "
        f"rate {cells['adaptive']['retraction_rate']} ≤ "
        f"{cells['fixed+spec']['retraction_rate']}, sealed streams identical"
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small smoke configuration for CI",
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
