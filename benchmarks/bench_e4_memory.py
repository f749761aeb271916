"""E4 — Memory consumption (retained state) vs disorder bound and window.

Reconstructs the memory figure.  State is measured in retained elements
(stack instances + negatives + pending + reorder buffer), the quantity
the paper's purge algorithms control.

Expected shape: state grows with K for both correct strategies, but
buffer-and-sort additionally holds its O(rate × K) reorder buffer on
top of engine state, so its curve sits strictly above the native
engine's and diverges as K grows.  Window size moves both curves
together (more live partial matches).
"""

import pytest

from repro.bench import make_engine
from repro.metrics import render_series
from repro.streams import RandomDelayModel
from repro.workloads import SyntheticWorkload

from common import write_result

KS = [10, 40, 160, 640]
WINDOWS = [20, 40, 80, 160]
EVENTS = 6000
TRUE_DELAY = 10


def _arrival(within: int):
    workload = SyntheticWorkload(
        query_length=3,
        event_count=EVENTS,
        within=within,
        partitions=8,
        disorder=RandomDelayModel(0.3, TRUE_DELAY, seed=7),
        seed=8,
    )
    __, arrival = workload.generate()
    return workload.query, arrival


def _peak(engine_name: str, query, arrival, k: int) -> int:
    engine = make_engine(engine_name, query, k=k)
    engine.feed_batch(arrival)
    engine.close()
    return engine.stats.peak_state_size


def run_experiment() -> str:
    query, arrival = _arrival(within=60)
    by_k = {"ooo": [], "reorder": []}
    for k in KS:
        for name in by_k:
            by_k[name].append(_peak(name, query, arrival, k))
    text = render_series(
        f"E4a — peak retained state vs disorder bound K (W=60, true delay <= {TRUE_DELAY})",
        "K",
        KS,
        by_k,
        note="reorder buffer grows with K even when actual disorder is small",
    )

    by_w = {"ooo": [], "reorder": []}
    for within in WINDOWS:
        query_w, arrival_w = _arrival(within)
        for name in by_w:
            by_w[name].append(_peak(name, query_w, arrival_w, k=40))
    text += render_series(
        "E4b — peak retained state vs window W (K=40)",
        "W",
        WINDOWS,
        by_w,
        note="window scales live-partial-match state for every strategy",
    )
    return write_result("e4_memory", text)


def test_e4_report(benchmark):
    text = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print(text)
    rows = [
        line.split()
        for line in text.splitlines()
        if line.strip() and line.strip()[0].isdigit()
    ]
    k_rows = rows[: len(KS)]
    ooo = [float(row[1].replace(",", "")) for row in k_rows]
    reorder = [float(row[2].replace(",", "")) for row in k_rows]
    # reorder state dominates and diverges with K; ooo grows much slower.
    assert all(r >= o for o, r in zip(ooo, reorder))
    assert reorder[-1] / max(reorder[0], 1) > (ooo[-1] / max(ooo[0], 1))
    # window rows: monotone growth for both engines.
    w_rows = rows[len(KS) :]
    w_ooo = [float(row[1].replace(",", "")) for row in w_rows]
    assert w_ooo == sorted(w_ooo)


@pytest.mark.parametrize("k", [10, 640])
def test_e4_kernel(benchmark, k):
    query, arrival = _arrival(within=60)

    def kernel():
        engine = make_engine("ooo", query, k=k)
        engine.feed_batch(arrival)
        engine.close()
        return engine.stats.peak_state_size

    benchmark(kernel)
