"""E3 — Result latency vs disorder bound K.

Reconstructs the latency figure: how long does a correct answer wait,
as a function of the promised disorder bound?

* buffer-and-sort delays *every* event by up to K, so its result
  latency grows ~linearly with K even when actual disorder is mild;
* the native out-of-order engine emits positive-pattern matches the
  instant they complete (latency 0 regardless of K) and holds only
  negation-guarded results, whose wait also scales with K but applies
  to far fewer results;
* speculative emission removes even that wait on its optimistic
  stream, paying in retractions at the seal (measured in E11).

Latency is measured in *events read between evidence-complete and
emission* (arrival latency), the host-independent definition.
"""

import pytest

from repro.metrics import render_series, summarize_arrival_latency
from repro.streams import RandomDelayModel
from repro.workloads import SyntheticWorkload

from common import SPECULATIVE, build_engine, consumer_view, write_result

KS = [10, 20, 40, 80, 160]
TRUE_DELAY = 10  # actual disorder never exceeds this
EVENTS = 5000


def _workload(negated: bool):
    return SyntheticWorkload(
        query_length=3,
        event_count=EVENTS,
        within=60,
        partitions=8,
        disorder=RandomDelayModel(0.3, TRUE_DELAY, seed=5),
        negated_step=1 if negated else None,
        include_negatives=0.05,
        seed=6,
    )


def _latency(engine_name: str, workload, arrival, k: int) -> float:
    engine = build_engine(engine_name, workload.query, k)
    engine.feed_batch(arrival)
    engine.close()
    records, __ = consumer_view(engine)
    return summarize_arrival_latency(records, arrival).mean


def run_experiment() -> str:
    positive = _workload(False)
    __, arrival_pos = positive.generate()
    negated = _workload(True)
    __, arrival_neg = negated.generate()

    series_pos = {"ooo": [], "reorder": [], SPECULATIVE: []}
    series_neg = {"ooo": [], "reorder": [], SPECULATIVE: []}
    for k in KS:
        for name in series_pos:
            series_pos[name].append(round(_latency(name, positive, arrival_pos, k), 2))
            series_neg[name].append(round(_latency(name, negated, arrival_neg, k), 2))
    text = render_series(
        f"E3a — mean result latency (events) vs K, positive pattern (true delay <= {TRUE_DELAY})",
        "K",
        KS,
        series_pos,
        note="buffer-and-sort pays for its pessimism; native engine does not",
    )
    text += render_series(
        "E3b — mean result latency (events) vs K, negation pattern",
        "K",
        KS,
        series_neg,
        note="conservative negation waits ~K; speculative emits at 0, retracts at the seal",
    )
    return write_result("e3_latency_vs_k", text)


def test_e3_report(benchmark):
    text = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print(text)
    rows = [
        line.split()
        for line in text.splitlines()
        if line.strip() and line.strip()[0].isdigit()
    ]
    pos_rows = rows[: len(KS)]
    # ooo positive latency is 0 at every K; reorder grows with K.
    assert all(float(row[1]) == 0.0 for row in pos_rows)
    reorder_latencies = [float(row[2]) for row in pos_rows]
    assert reorder_latencies[-1] > reorder_latencies[0] * 3
    # speculation emits everything immediately on both patterns.
    assert all(float(row[3]) == 0.0 for row in rows)


@pytest.mark.parametrize("engine_name", ["ooo", "reorder"])
def test_e3_kernel(benchmark, engine_name):
    workload = _workload(False)
    __, arrival = workload.generate()

    def kernel():
        engine = build_engine(engine_name, workload.query, 80)
        engine.feed_batch(arrival)
        engine.close()
        return len(engine.results)

    benchmark(kernel)
