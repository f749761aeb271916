"""E2 — Throughput vs disorder rate, all engine strategies.

Reconstructs the figure comparing processing cost as the fraction of
out-of-order events grows, on identical arrival traces.

Expected shape: at 0% disorder the out-of-order engine matches the
in-order baseline (its disorder machinery idles); its cost degrades
gracefully with rate (sorted-splice insertions + extra construction
triggers); buffer-and-sort pays a constant heap overhead at every rate.
Counters (partial combinations explored) are reported alongside wall
time as the hardware-free proxy.  The optimistic row is the out-of-order
engine with speculative emission on.
"""

import pytest

from repro.bench import run_cell
from repro.metrics import render_series
from repro.streams import RandomDelayModel
from repro.workloads import SyntheticWorkload

from common import SPECULATIVE, build_engine, write_result

RATES = [0.0, 0.1, 0.2, 0.3, 0.5]
MAX_DELAY = 40
EVENTS = 6000
ENGINES = ["inorder", "ooo", "reorder", SPECULATIVE]


def _arrival(rate: float):
    disorder = RandomDelayModel(rate, MAX_DELAY, seed=3) if rate else None
    workload = SyntheticWorkload(
        query_length=3,
        event_count=EVENTS,
        within=40,
        partitions=8,
        disorder=disorder,
        seed=4,
    )
    __, arrival = workload.generate()
    return workload.query, arrival


def run_experiment() -> str:
    throughput = {name: [] for name in ENGINES}
    partials = {name: [] for name in ENGINES}
    for rate in RATES:
        query, arrival = _arrival(rate)
        for name in ENGINES:
            cell = run_cell(build_engine(name, query, MAX_DELAY), arrival)
            throughput[name].append(int(cell["events_per_sec"]))
            partials[name].append(cell["partial_combinations"])
    text = render_series(
        f"E2a — throughput (events/sec, wall) vs disorder rate, n={EVENTS}",
        "rate",
        RATES,
        throughput,
        note="relative positions matter; absolute eps is host-dependent",
    )
    text += render_series(
        "E2b — construction work (partial combinations explored) vs disorder rate",
        "rate",
        RATES,
        partials,
        note="hardware-independent CPU proxy",
    )
    return write_result("e2_throughput_vs_rate", text)


def test_e2_report(benchmark):
    text = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print(text)
    assert "E2a" in text and "E2b" in text


@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_e2_kernel(benchmark, engine_name, rate):
    """Timing kernel per (engine, disorder rate) cell."""
    query, arrival = _arrival(rate)

    def kernel():
        engine = build_engine(engine_name, query, MAX_DELAY)
        engine.feed_many(arrival)
        engine.close()
        return len(engine.results)

    benchmark(kernel)
