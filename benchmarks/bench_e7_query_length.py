"""E7 — Scalability with query length (number of SEQ steps).

Reconstructs the query-length table: SEQ(2) through SEQ(6) with a
partition-equality chain, identical traces, all engines.

Expected shape: the out-of-order engine and the K-slack reorderer stay
exact at every length, while the in-order baseline loses more matches
as the pattern grows (more steps, more chances that one arrived out of
order).  The out-of-order engine's counted work over the in-order
baseline's stays in one narrow band — disorder handling is per-event
splice + probe work, not combinatorial — which is the paper's
scalability story.  Work is counted, not timed: partial combinations
+ predicate evaluations + construction triggers.
"""

import pytest

from repro.bench import make_engine, oracle_truth, run_cell
from repro.metrics import render_table
from repro.streams import RandomDelayModel
from repro.workloads import SyntheticWorkload

from common import write_result

LENGTHS = [2, 3, 4, 5, 6]
EVENTS = 5000
K = 25
ENGINES = ["inorder", "ooo", "reorder"]
#: Largest ooo/in-order work ratio over the smallest, across lengths.
BAND = 1.25


def _data(length: int):
    workload = SyntheticWorkload(
        query_length=length,
        event_count=EVENTS,
        within=30 * length,
        partitions=10,
        disorder=RandomDelayModel(0.2, K, seed=13),
        seed=14,
    )
    ordered, arrival = workload.generate()
    return workload.query, ordered, arrival


def _work(cell) -> int:
    return (
        cell["partial_combinations"]
        + cell["predicate_evaluations"]
        + cell["construction_triggers"]
    )


def run_experiment() -> str:
    rows = []
    for length in LENGTHS:
        query, ordered, arrival = _data(length)
        truth = oracle_truth(query, ordered)
        cells = {
            name: run_cell(make_engine(name, query, k=K), arrival, truth_keys=truth)
            for name in ENGINES
        }
        row = [length]
        for name in ENGINES:
            row += [round(cells[name]["recall"], 4), round(cells[name]["precision"], 4)]
        inorder_work, ooo_work = _work(cells["inorder"]), _work(cells["ooo"])
        row += [inorder_work, ooo_work, round(ooo_work / inorder_work, 4), len(truth)]
        rows.append(row)
    text = render_table(
        f"E7 — query length scalability (n={EVENTS}, 20% disorder, K={K})",
        [
            "steps", "inorder_rec", "inorder_prec", "ooo_rec", "ooo_prec",
            "reorder_rec", "reorder_prec", "inorder_work", "ooo_work",
            "work_ratio", "matches",
        ],
        rows,
        note=(
            "work = partial combinations + predicate evaluations + construction "
            "triggers; work_ratio = ooo_work / inorder_work"
        ),
    )
    return write_result("e7_query_length", text)


def test_e7_report(benchmark):
    text = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print(text)
    rows = [
        [float(value.replace(",", "")) for value in line.split()]
        for line in text.splitlines()
        if line.strip() and line.strip()[0].isdigit()
    ]
    assert [int(row[0]) for row in rows] == LENGTHS
    # The out-of-order engine and the reorderer are exact at every length.
    assert all(row[3:7] == [1.0, 1.0, 1.0, 1.0] for row in rows)
    # In-order recall does not rise with length.
    recalls = [row[1] for row in rows]
    assert recalls == sorted(recalls, reverse=True), recalls
    # Disorder handling adds no combinatorial work: one narrow band.
    ratios = [row[9] for row in rows]
    assert max(ratios) <= BAND * min(ratios), ratios


@pytest.mark.parametrize("length", [2, 4, 6])
def test_e7_kernel(benchmark, length):
    query, __, arrival = _data(length)

    def kernel():
        engine = make_engine("ooo", query, k=K)
        engine.feed_batch(arrival)
        engine.close()
        return len(engine.results)

    benchmark(kernel)
