"""E9 — Window size sweep: state and throughput.

Reconstructs the window figure: ``WITHIN`` directly scales how long
instances stay purgeable-not-yet, hence live state and join fan-out.

Expected shape: peak state grows ~linearly with W (events per window);
throughput decays as construction joins over larger stack ranges; the
out-of-order engine tracks the in-order baseline's curve with a bounded
offset (the K-retention tax) at every W.
"""

import pytest

from repro.bench import make_engine, run_cell
from repro.metrics import render_series
from repro.streams import RandomDelayModel
from repro.workloads import SyntheticWorkload

from common import write_result

WINDOWS = [20, 40, 80, 160, 320]
EVENTS = 5000
K = 20


def _arrival(within: int):
    workload = SyntheticWorkload(
        query_length=3,
        event_count=EVENTS,
        within=within,
        partitions=10,
        disorder=RandomDelayModel(0.2, K, seed=17),
        seed=18,
    )
    __, arrival = workload.generate()
    return workload.query, arrival


def run_experiment() -> str:
    peak = {"inorder": [], "ooo": []}
    eps = {"inorder": [], "ooo": []}
    matches = []
    for within in WINDOWS:
        query, arrival = _arrival(within)
        for name in peak:
            cell = run_cell(make_engine(name, query, k=K), arrival)
            peak[name].append(cell["peak_state"])
            eps[name].append(int(cell["events_per_sec"]))
            if name == "ooo":
                matches.append(cell["matches"])
    text = render_series(
        f"E9a — peak retained state vs window W (n={EVENTS}, 20% disorder, K={K})",
        "W",
        WINDOWS,
        peak,
        note="state ~ events-per-window; ooo adds a bounded K-retention tax",
    )
    text += render_series(
        "E9b — throughput (events/sec) vs window W",
        "W",
        WINDOWS,
        {**eps, "matches": matches},
        note="larger windows mean larger join ranges and more results",
    )
    return write_result("e9_window", text)


def test_e9_report(benchmark):
    text = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print(text)
    rows = [
        line.split()
        for line in text.splitlines()
        if line.strip() and line.strip()[0].isdigit()
    ]
    state_rows = rows[: len(WINDOWS)]
    ooo_state = [float(r[2].replace(",", "")) for r in state_rows]
    inorder_state = [float(r[1].replace(",", "")) for r in state_rows]
    assert ooo_state == sorted(ooo_state)  # monotone in W
    # bounded offset: ooo never needs more than ~3x baseline state here
    assert all(o <= 3 * max(i, 1) + 3 * K for i, o in zip(inorder_state, ooo_state))


@pytest.mark.parametrize("within", [20, 320])
def test_e9_kernel(benchmark, within):
    query, arrival = _arrival(within)

    def kernel():
        engine = make_engine("ooo", query, k=K)
        engine.feed_batch(arrival)
        engine.close()
        return len(engine.results)

    benchmark(kernel)
