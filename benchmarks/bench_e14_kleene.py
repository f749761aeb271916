"""E14 — Kleene closure under disorder (extension).

Extension experiment: the ``E+`` collect-all step (the signature
feature of SASE+, the successor language to the paper's) evaluated
under out-of-order arrival.  A Kleene collection is only final when its
anchor interval seals, so this experiment measures what that costs:

* correctness — the out-of-order engine must produce *exactly* the
  collections the oracle computes, at every disorder rate, while the
  in-order baseline both misses matches and reports **truncated
  collections** (a late element that belonged to an already-emitted
  collection is silently absent — a subtler corruption than a missed
  match);
* latency — Kleene results wait for their seal like negation results
  (≈K), on top of the match-completion time.
"""

import pytest

from repro import InOrderEngine, OutOfOrderEngine, parse
from repro.bench import oracle_truth
from repro.metrics import compare_keys, render_table, summarize_arrival_latency
from repro.streams import NoDisorder, RandomDelayModel
from repro.workloads import SyntheticWorkload

from common import write_result

RATES = [0.0, 0.1, 0.3, 0.5]
K = 30
EVENTS = 4000

QUERY = parse(
    "PATTERN SEQ(T1 a, T2+ ms, T3 c) "
    "WHERE a.part == c.part AND ms.part == a.part WITHIN 60",
    name="kleene_chain",
)


def _arrival(rate: float):
    disorder = RandomDelayModel(rate, K, seed=27) if rate else NoDisorder()
    workload = SyntheticWorkload(
        query_length=3,
        event_count=EVENTS,
        within=60,
        partitions=6,
        disorder=disorder,
        seed=28,
    )
    ordered, arrival = workload.generate()
    return ordered, arrival


def run_experiment() -> str:
    rows = []
    for rate in RATES:
        ordered, arrival = _arrival(rate)
        truth = oracle_truth(QUERY, ordered)
        ooo = OutOfOrderEngine(QUERY, k=K)
        ooo.run(list(arrival))
        inorder = InOrderEngine(QUERY)
        inorder.run(list(arrival))
        ooo_report = compare_keys(truth, ooo.result_set())
        in_report = compare_keys(truth, inorder.result_set())
        latency = summarize_arrival_latency(ooo.emissions, arrival)
        rows.append(
            [
                rate,
                len(truth),
                round(ooo_report.recall, 3),
                round(ooo_report.precision, 3),
                round(in_report.recall, 3),
                round(in_report.precision, 3),
                round(latency.mean, 1),
            ]
        )
    text = render_table(
        f"E14 — Kleene closure under disorder (SEQ(T1, T2+, T3), n={EVENTS}, K={K})",
        ["rate", "truth", "ooo_recall", "ooo_precision",
         "inorder_recall", "inorder_precision", "ooo_latency"],
        rows,
        note="match identity includes the collected set: a truncated "
             "collection counts as both a miss and a false positive",
    )
    return write_result("e14_kleene", text)


def test_e14_report(benchmark):
    text = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print(text)
    rows = [
        line.split()
        for line in text.splitlines()
        if line.strip() and line.strip()[0].isdigit()
    ]
    for row in rows:
        assert float(row[2]) == 1.0 and float(row[3]) == 1.0  # ooo exact
    # the baseline corrupts collections as soon as disorder appears
    disordered = [row for row in rows if float(row[0]) > 0]
    assert any(float(row[4]) < 1.0 or float(row[5]) < 1.0 for row in disordered)


@pytest.mark.parametrize("engine_name", ["ooo", "inorder"])
def test_e14_kernel(benchmark, engine_name):
    __, arrival = _arrival(0.3)

    def kernel():
        engine = (
            OutOfOrderEngine(QUERY, k=K)
            if engine_name == "ooo"
            else InOrderEngine(QUERY)
        )
        engine.feed_batch(arrival)
        engine.close()
        return len(engine.results)

    benchmark(kernel)
