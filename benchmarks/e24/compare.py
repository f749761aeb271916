"""Diff two E24 results files: ``compare.py A.json B.json``.

A is the baseline, B the candidate.  One row per (workload, end-to-end
metric) with the verdict the choosing-metrics guide prescribes:

* ``same`` / ``CHANGED`` — metrics that must repeat exactly for a seed;
* ``better`` / ``within`` / ``WORSE`` — B's median against A's, judged by
  the metric's own bound;
* ``unresolved`` — the run-to-run spread (IQR / median, when a file holds
  four or more runs of the workload; range / median for two or three) is
  wider than the bound, so a difference cannot be told from noise —
  unless every run of B reads better than every run of A.

Exits non-zero on any ``WORSE`` or ``CHANGED`` row, or any rise in
``failed_share``.  Bounds come from ``spec.py``, the same table
BENCHMARK.json is generated from.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

import spec


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread as a share of the median (0 for a single run)."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        return (quartiles[2] - quartiles[0]) / abs(median)
    return (max(values) - min(values)) / abs(median)


def judge(metric: spec.Metric, workload: str, a: Sequence[float],
          b: Sequence[float]) -> Tuple[str, float]:
    """``(verdict, change)``; change > 0 means B is worse by that share."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if metric.better == "lower" else -1.0
    change = sign * (med_b - med_a) / abs(med_a) if med_a else sign * (med_b - med_a)
    if spec.is_exact(metric, workload):
        return ("same" if set(a) == set(b) else "CHANGED"), change
    if max(spread(a), spread(b)) > metric.bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better", change
        return "unresolved", change
    if change > metric.bound:
        return "WORSE", change
    if change < -metric.bound:
        return "better", change
    return "within", change


def values_of(results: Dict[str, Any], workload: str, metric: str) -> Optional[List[float]]:
    runs = results["workloads"].get(workload, {}).get("runs", [])
    values = [run["end_to_end"][metric] for run in runs if metric in run["end_to_end"]]
    return values or None


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[str], bool]:
    lines = []
    bad = False
    for key in ("cpu_count", "python", "platform", "commit", "seed", "seconds"):
        left, right = a["fingerprint"].get(key), b["fingerprint"].get(key)
        mark = "" if left == right else "   <-- differs"
        lines.append(f"# {key}: {left} | {right}{mark}")
    header = (f"{'workload':<16} {'metric':<22} {'A median':>14} {'B median':>14} "
              f"{'change':>8} {'bound':>6} {'spread A/B':>13}  verdict")
    lines.append(header)
    for workload in spec.WORKLOADS:
        for metric in spec.end_to_end_metrics(workload):
            va, vb = values_of(a, workload, metric.name), values_of(b, workload, metric.name)
            if va is None or vb is None:
                continue
            verdict, change = judge(metric, workload, va, vb)
            if metric.name == "failed_share" and max(vb) > max(va):
                verdict = "WORSE"
            bad = bad or verdict in ("WORSE", "CHANGED")
            lines.append(
                f"{workload:<16} {metric.name:<22} {statistics.median(va):>14.4f} "
                f"{statistics.median(vb):>14.4f} {change:>+8.1%} {metric.bound:>6.0%} "
                f"{spread(va):>6.1%}/{spread(vb):<6.1%}  {verdict}"
            )
    return lines, bad


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__ or "")
        return 2
    with open(argv[0], encoding="utf-8") as left, open(argv[1], encoding="utf-8") as right:
        lines, bad = compare(json.load(left), json.load(right))
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
