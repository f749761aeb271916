"""Shared benchmark harness: engine registry and cell runner.

Each experiment in ``benchmarks/`` is a sweep over one knob, comparing
a fixed set of engine configurations on identical traces.  This module
centralises the two pieces every experiment needs:

* :func:`make_engine` — a name → engine factory covering every
  strategy, so experiments select engines by string and stay
  declarative;
* :func:`run_cell` — feed one arrival trace through one engine and
  collect every measurement (wall time, counters, quality vs. oracle,
  latency summaries, peak state) in a flat dict, ready for a report
  row.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Sequence

from repro.core.engine import Engine, OutOfOrderEngine
from repro.core.errors import ConfigurationError
from repro.core.event import Event
from repro.core.inorder import InOrderEngine
from repro.core.oracle import OfflineOracle
from repro.core.partition import PartitionedEngine
from repro.core.pattern import Pattern
from repro.core.purge import PurgePolicy
from repro.core.reorder import ReorderingEngine
from repro.core.shedding import ShedPolicy
from repro.metrics.latency import summarize_arrival_latency, summarize_occurrence_latency
from repro.metrics.quality import QualityReport, compare_keys

ENGINE_NAMES = ("ooo", "inorder", "reorder", "partitioned")


def make_engine(
    name: str,
    pattern: Pattern,
    k: Optional[int] = None,
    purge: Optional[PurgePolicy] = None,
    optimize: bool = True,
    index: bool = True,
    key: Optional[str] = None,
    shed: Optional[ShedPolicy] = None,
    speculative: bool = False,
    controller=None,
    **unknown: Any,
) -> Engine:
    """Build an engine by strategy name.

    ``ooo``         the paper's native out-of-order engine
    ``inorder``     SASE-style baseline assuming ordered arrival
    ``reorder``     K-slack buffer-and-sort in front of the baseline
    ``partitioned`` per-key sub-engines, serial routing

    *speculative* / *controller* (the optimistic side-stream and the
    adaptive-K policy) apply to the ``ooo`` and ``partitioned`` families;
    other strategies reject them — the reorder/inorder baselines have no
    pending matches to speculate on.

    An unknown name or keyword (``workers=`` from a caller written for a
    removed family) raises :class:`ConfigurationError`, a ``ReproError``
    a sweep can report per family, rather than a ``TypeError``.
    """
    if name not in ENGINE_NAMES:
        raise ConfigurationError(f"unknown engine {name!r}; choose from {ENGINE_NAMES}")
    if unknown:
        raise ConfigurationError(
            f"make_engine has no option {', '.join(sorted(unknown))}"
        )
    if speculative or controller is not None:
        if name not in ("ooo", "partitioned"):
            raise ConfigurationError(
                "speculative/adaptive modes are supported by the ooo and "
                f"partitioned engine families, not {name!r}"
            )
    if name == "ooo":
        return OutOfOrderEngine(
            pattern,
            k=k,
            purge=purge,
            optimize_scan=optimize,
            optimize_construction=optimize,
            index=index,
            shed=shed,
            speculative=speculative,
            controller=controller,
        )
    if shed is not None:
        raise ConfigurationError(
            f"load shedding is supported by the ooo engine, not {name!r}"
        )
    if name == "inorder":
        return InOrderEngine(pattern, purge=purge)
    if name == "reorder":
        if k is None:
            raise ConfigurationError("reorder engine needs a concrete K")
        return ReorderingEngine(pattern, k=k, purge=purge)
    return PartitionedEngine(
        pattern,
        k=k,
        purge=purge,
        key=key,
        index=index,
        speculative=speculative,
        controller=controller,
    )


def speculation_counts(engine: Engine) -> tuple:
    """(speculative emissions, retractions) for any engine shape.

    Flat engines count in their own stats; partitioned engines count in
    the per-partition sub-stats, so fall through to the merged view.
    """
    emitted = engine.stats.speculative_emitted
    retracted = engine.stats.retractions_issued
    if emitted == 0 and retracted == 0 and hasattr(engine, "merged_substats"):
        merged = engine.merged_substats()
        emitted, retracted = merged.speculative_emitted, merged.retractions_issued
    return emitted, retracted


def run_cell(
    engine: Engine,
    arrival: Sequence[Event],
    truth_keys=None,
    batch_size: Optional[int] = None,
    metrics: bool = False,
) -> Dict[str, Any]:
    """One (engine, trace) measurement cell.

    When *truth_keys* (oracle identity set) is provided, quality
    metrics are included.

    *batch_size* selects the feeding discipline: ``None`` hands the
    whole trace to ``feed_batch`` in one call, a positive value feeds
    chunks of that size through ``feed_batch``, and ``0`` forces one
    ``feed`` call per element — the discipline the batch speedups in
    experiment E16 are measured against.

    *metrics* attaches a fresh observability registry to the engine
    before feeding; the cell then carries histogram-derived latency
    quantiles (``lat_hist_*``, in timestamp units) and the full
    registry snapshot under ``"metrics"``.  Note the instrumented feed
    path is slower — keep it off for pure wall-time comparisons.
    """
    registry = None
    if metrics:
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        engine.enable_observability(metrics=registry)
    start = time.perf_counter()
    if batch_size is None:
        engine.feed_batch(arrival)
    elif batch_size <= 0:
        for element in arrival:
            engine.feed(element)
    else:
        for lo in range(0, len(arrival), batch_size):
            engine.feed_batch(arrival[lo : lo + batch_size])
    engine.close()
    seconds = time.perf_counter() - start

    cell: Dict[str, Any] = {
        "engine": type(engine).__name__,
        "events": len(arrival),
        "batch_size": batch_size,
        "seconds": seconds,
        "events_per_sec": len(arrival) / seconds if seconds > 0 else float("inf"),
        "matches": len(engine.results),
        "peak_state": engine.stats.peak_state_size,
        "partial_combinations": engine.stats.partial_combinations,
        "predicate_evaluations": engine.stats.predicate_evaluations,
        "construction_triggers": engine.stats.construction_triggers,
        "skipped_by_probe": engine.stats.construction_skipped_by_probe,
        "index_hits": engine.stats.index_hits,
        "index_misses": engine.stats.index_misses,
        "purged": engine.stats.instances_purged,
        "late_dropped": engine.stats.late_dropped,
        "shed": engine.stats.events_shed,
        "quarantined": engine.stats.events_quarantined,
    }
    cell["speculative"], cell["retractions"] = speculation_counts(engine)
    arrival_summary = summarize_arrival_latency(engine.emissions, arrival)
    occurrence_summary = summarize_occurrence_latency(engine.emissions)
    cell["lat_arrival_mean"] = arrival_summary.mean
    cell["lat_arrival_p99"] = arrival_summary.p99
    cell["lat_occurrence_mean"] = occurrence_summary.mean
    cell["lat_occurrence_p99"] = occurrence_summary.p99
    if registry is not None:
        histogram = registry.get("repro_emission_latency_ts")
        if histogram is not None:
            summary = histogram.summary()
            cell["lat_hist_mean"] = summary["mean"]
            cell["lat_hist_p50"] = summary["p50"]
            cell["lat_hist_p90"] = summary["p90"]
            cell["lat_hist_p99"] = summary["p99"]
        cell["metrics"] = registry.snapshot_state()
    if truth_keys is not None:
        report: QualityReport = compare_keys(
            truth_keys, engine.result_set(), shed=engine.stats.events_shed
        )
        cell["recall"] = report.recall
        cell["precision"] = report.precision
        cell["missed"] = report.missed
        cell["spurious"] = report.spurious
    return cell


def oracle_truth(pattern: Pattern, events: Sequence[Event]):
    """Identity set of the ground-truth result over *events*."""
    return OfflineOracle(pattern).evaluate_set(events)

