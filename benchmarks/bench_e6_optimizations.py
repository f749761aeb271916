"""E6 — Scan & construction optimisations on vs off.

Reconstructs the optimisation ablation ("optimizations for sequence
scan and construction ... to minimize CPU cost"):

* scan optimisation — the feasibility probe that skips construction
  when no completion can exist (generalising the in-order rule of
  triggering only on final-step arrivals);
* construction optimisation — binary-searched timestamp ranges over the
  sorted stacks instead of full-stack scans.

Expected shape: the probe eliminates the vast majority of construction
triggers (every non-final-step arrival in mostly-ordered streams); the
range cuts shrink partial-combination exploration by orders of
magnitude at selective predicates; results are bit-identical throughout.
"""

import pytest

from repro import OutOfOrderEngine
from repro.bench import run_cell
from repro.metrics import render_table
from repro.streams import RandomDelayModel
from repro.workloads import SyntheticWorkload

from common import write_result

EVENTS = 6000
K = 30

CONFIGS = {
    "both on": (True, True),
    "scan off": (False, True),
    "construction off": (True, False),
    "both off": (False, False),
}


def _arrival():
    workload = SyntheticWorkload(
        query_length=4,
        event_count=EVENTS,
        within=80,
        partitions=12,
        disorder=RandomDelayModel(0.2, K, seed=11),
        seed=12,
    )
    __, arrival = workload.generate()
    return workload.query, arrival


def run_experiment() -> str:
    query, arrival = _arrival()
    rows = []
    result_sets = set()
    for label, (scan_on, construction_on) in CONFIGS.items():
        engine = OutOfOrderEngine(
            query, k=K, optimize_scan=scan_on, optimize_construction=construction_on
        )
        cell = run_cell(engine, arrival)
        result_sets.add(frozenset(engine.result_set()))
        rows.append(
            [
                label,
                cell["construction_triggers"],
                cell["skipped_by_probe"],
                cell["partial_combinations"],
                cell["predicate_evaluations"],
                round(cell["seconds"], 3),
                cell["matches"],
            ]
        )
    assert len(result_sets) == 1  # optimisations never change results
    text = render_table(
        f"E6 — optimisation ablation (SEQ(4), n={EVENTS}, 20% disorder)",
        ["config", "triggers", "skipped_by_probe", "partials", "pred_evals", "wall_s", "matches"],
        rows,
        note="identical result sets verified across all four configurations",
    )
    return write_result("e6_optimizations", text)


def test_e6_report(benchmark):
    text = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print(text)
    rows = {}
    for line in text.splitlines():
        for label in CONFIGS:
            if line.strip().startswith(label):
                rows[label] = line.replace(label, "").split()
    triggers = {k: int(v[0].replace(",", "")) for k, v in rows.items()}
    partials = {k: int(v[2].replace(",", "")) for k, v in rows.items()}
    # The probe slashes triggers; range cuts slash partials; together
    # they cut total exploration by well over half.
    assert triggers["both on"] < triggers["scan off"] / 2
    assert partials["both on"] < partials["construction off"] / 1.5
    assert partials["both on"] < partials["both off"] / 2


@pytest.mark.parametrize("config", list(CONFIGS))
def test_e6_kernel(benchmark, config):
    query, arrival = _arrival()
    scan_on, construction_on = CONFIGS[config]

    def kernel():
        engine = OutOfOrderEngine(
            query, k=K, optimize_scan=scan_on, optimize_construction=construction_on
        )
        engine.feed_batch(arrival)
        engine.close()
        return len(engine.results)

    benchmark(kernel)
