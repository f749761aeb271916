"""E5 — Purge strategies: CPU cost vs memory consumption.

Reconstructs the purge-algorithm ablation the abstract highlights
("state purging to minimize CPU cost and memory consumption").

Three schedules on identical input:

* eager  — purge after every element (the paper's choice);
* lazy   — purge every 256 elements (amortised);
* none   — never purge (what breaks without the algorithms).

Expected shape: eager holds the smallest state; lazy overshoots
between runs but costs fewer purge invocations; no-purge grows without
bound AND gets *slower* — unpurged stacks make every construction scan
larger, so the purge algorithms pay for themselves in CPU too.
"""

import pytest

from repro import OutOfOrderEngine, PurgePolicy
from repro.bench import run_cell
from repro.metrics import render_table
from repro.streams import RandomDelayModel
from repro.workloads import SyntheticWorkload

from common import write_result

EVENTS = 8000
K = 30

POLICIES = {
    "eager": PurgePolicy.eager,
    "lazy-256": lambda: PurgePolicy.lazy(256),
    "none": PurgePolicy.none,
}


def _arrival():
    workload = SyntheticWorkload(
        query_length=3,
        event_count=EVENTS,
        within=40,
        partitions=4,
        disorder=RandomDelayModel(0.25, K, seed=9),
        seed=10,
    )
    __, arrival = workload.generate()
    return workload.query, arrival


def run_experiment() -> str:
    query, arrival = _arrival()
    rows = []
    cells = {}
    for label, factory in POLICIES.items():
        engine = OutOfOrderEngine(query, k=K, purge=factory())
        cell = run_cell(engine, arrival)
        cells[label] = cell
        rows.append(
            [
                label,
                cell["peak_state"],
                cell["partial_combinations"],
                engine.stats.purge_runs,
                cell["purged"],
                round(cell["seconds"], 3),
                cell["matches"],
            ]
        )
    matches = {row[6] for row in rows}
    text = render_table(
        f"E5 — purge strategy ablation (n={EVENTS}, K={K}, W=40)",
        ["policy", "peak_state", "partials_explored", "purge_runs", "purged", "wall_s", "matches"],
        rows,
        note="identical matches across policies — purge changes cost, never results",
    )
    assert len(matches) == 1  # invariant baked into the artefact
    return write_result("e5_purge", text)


def test_e5_report(benchmark):
    text = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print(text)
    rows = {
        line.split()[0]: line.split()
        for line in text.splitlines()
        if line.strip().startswith(("eager", "lazy", "none"))
    }
    peak = {k: int(v[1].replace(",", "")) for k, v in rows.items()}
    partials = {k: int(v[2].replace(",", "")) for k, v in rows.items()}
    assert peak["eager"] <= peak["lazy-256"] <= peak["none"]
    assert peak["none"] > 10 * peak["eager"]
    # no-purge explores the most partial combinations (bigger scans)
    assert partials["none"] >= partials["eager"]


@pytest.mark.parametrize("policy", list(POLICIES))
def test_e5_kernel(benchmark, policy):
    query, arrival = _arrival()

    def kernel():
        engine = OutOfOrderEngine(query, k=K, purge=POLICIES[policy]())
        engine.feed_batch(arrival)
        engine.close()
        return engine.stats.peak_state_size

    benchmark(kernel)
