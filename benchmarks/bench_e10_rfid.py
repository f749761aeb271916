"""E10 — End-to-end motivating application: RFID shoplifting detection.

Reconstructs the application-level evaluation: the full pipeline from
store activity through per-reader network links (with an outage) to
pattern detection, comparing all strategies on detection quality,
alert latency, and state.

Expected shape: out-of-order and buffer-and-sort both reach perfect
detection; the in-order baseline both misses thefts and raises false
alarms; buffer-and-sort pays the latency/buffer tax; speculative
emission alerts fastest, withdrawing the false alerts at their seal.
"""

from repro.core.oracle import OfflineOracle
from repro.metrics import compare_keys, render_table, summarize_arrival_latency
from repro.streams import required_k, star_arrival
from repro.workloads import RfidStoreGenerator, shoplifting_query

from common import SPECULATIVE, build_engine, consumer_view, write_result

ITEMS = 400


def _pipeline():
    trace = RfidStoreGenerator(
        items=ITEMS, shoplift_rate=0.06, browse_rate=0.2, dwell=1500,
        arrival_span=60_000, seed=19,
    ).generate()
    arrival, _times = star_arrival(
        trace.by_reader, (0, 200), {"COUNTER_READ": [(20_000, 24_000)]}, seed=20
    )
    return trace, arrival


def run_experiment() -> str:
    trace, arrival = _pipeline()
    k = required_k(arrival)
    query = shoplifting_query(within=2000)
    truth = OfflineOracle(query).evaluate_set(trace.merged)

    rows = []
    for name in ("inorder", "ooo", "reorder", SPECULATIVE):
        engine = build_engine(name, query, k)
        engine.feed_batch(arrival)
        engine.close()
        records, produced = consumer_view(engine)
        report = compare_keys(truth, produced)
        latency = summarize_arrival_latency(records, arrival)
        rows.append(
            [
                name,
                len(records),
                round(report.recall, 3),
                round(report.precision, 3),
                round(latency.mean, 1),
                engine.stats.peak_state_size,
                engine.stats.retractions_issued,
            ]
        )
    text = render_table(
        f"E10 — RFID shoplifting end-to-end ({len(truth)} true thefts, "
        f"counter outage 20k-24k, measured K={k})",
        ["engine", "alerts", "recall", "precision", "mean_latency", "peak_state", "retracted"],
        rows,
        note="star-network disorder: wireless jitter + a counter-reader outage",
    )
    return write_result("e10_rfid", text)


def test_e10_report(benchmark):
    text = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print(text)
    rows = {
        line.split()[0]: line.split()
        for line in text.splitlines()
        if line.strip().split() and line.strip().split()[0] in
        ("inorder", "ooo", "reorder", SPECULATIVE)
    }
    assert float(rows["ooo"][2]) == 1.0 and float(rows["ooo"][3]) == 1.0
    assert float(rows["reorder"][2]) == 1.0 and float(rows["reorder"][3]) == 1.0
    assert float(rows[SPECULATIVE][2]) == 1.0 and float(rows[SPECULATIVE][3]) == 1.0
    # the baseline breaks at least one way on this pipeline
    assert float(rows["inorder"][2]) < 1.0 or float(rows["inorder"][3]) < 1.0
    # buffer-and-sort answers slower than the native engine
    assert float(rows["reorder"][4]) >= float(rows["ooo"][4])
    # speculation answers no slower than the sealed stream
    assert float(rows[SPECULATIVE][4]) <= float(rows["ooo"][4])


def test_e10_kernel(benchmark):
    trace, arrival = _pipeline()
    k = required_k(arrival)
    query = shoplifting_query(within=2000)

    def kernel():
        engine = build_engine("ooo", query, k)
        engine.feed_batch(arrival)
        engine.close()
        return len(engine.results)

    benchmark(kernel)
