#!/usr/bin/env python3
"""RFID shoplifting detection over a simulated store network.

Run:  python examples/rfid_supply_chain.py

The paper's lead application, end to end:

* a store generator produces tag trajectories (shelf → counter → exit),
  a controllable fraction of which skip the counter (shoplifting);
* each RFID reader streams over its own simulated wireless uplink with
  jittered latency, so the merged stream at the CEP engine is out of
  order;
* the shoplifting query — ``SEQ(SHELF_READ, !COUNTER_READ, EXIT_READ)``
  — runs on four engines, showing who detects what, how fast, and at
  what memory cost.
"""

from repro import (
    CompositeEventFactory,
    InOrderEngine,
    OutOfOrderEngine,
    QueryPlan,
    ReorderingEngine,
)
from repro.metrics import (
    compare_keys,
    print_table,
    summarize_arrival_latency,
)
from repro.core.oracle import OfflineOracle
from repro.streams import measure_disorder, required_k, star_arrival
from repro.workloads import RfidStoreGenerator, shoplifting_query


def main() -> None:
    # 1. Store activity: 400 tagged items, 6% shoplifted.
    generator = RfidStoreGenerator(
        items=400, shoplift_rate=0.06, browse_rate=0.25, dwell=1500, seed=2007
    )
    trace = generator.generate()
    print(f"store trace: {len(trace.merged)} reads, "
          f"{len(trace.shoplifted_tags)} items shoplifted (ground truth)")

    # 2. Deliver each reader's stream over a jittery uplink.
    arrival, _times = star_arrival(trace.by_reader, (0, 150), seed=99)
    disorder = measure_disorder(arrival)
    k = required_k(arrival)
    print(f"network merge: disorder rate {disorder.rate:.1%}, "
          f"max displacement {disorder.max_delay} ticks -> engine K={k}")
    print()

    # 3. The query, and ground truth from the offline oracle.
    query = shoplifting_query(within=2000)
    truth = OfflineOracle(query).evaluate_set(trace.merged)

    # 4. Compare engines on identical input.
    rows = []
    engines = {
        "out-of-order (paper)": OutOfOrderEngine(query, k=k),
        "in-order (SASE '06)": InOrderEngine(query),
        "buffer-and-sort": ReorderingEngine(query, k=k),
    }
    for label, engine in engines.items():
        engine.run(list(arrival))
        report = compare_keys(truth, engine.result_set())
        latency = summarize_arrival_latency(engine.emissions, arrival)
        rows.append(
            [
                label,
                len(engine.results),
                f"{report.recall:.2f}",
                f"{report.precision:.2f}",
                f"{latency.mean:.1f}",
                engine.stats.peak_state_size,
            ]
        )
    print_table(
        f"Shoplifting detection ({len(truth)} true thefts)",
        ["engine", "alerts", "recall", "precision", "mean latency (events)", "peak state"],
        rows,
        note="latency = events read between a theft completing and its alert",
    )

    # 5. Production shape: a QueryPlan emitting composite alert events.
    plan = QueryPlan(
        OutOfOrderEngine(query, k=k),
        transformation=CompositeEventFactory(
            "SHOPLIFT_ALERT",
            {"tag": "s.tag", "picked_at": "s.ts", "left_at": "e.ts"},
        ),
    )
    alerts = plan.run(arrival)
    caught = {alert["tag"] for alert in alerts}
    print(f"alert stream: {len(alerts)} SHOPLIFT_ALERT composites")
    print(f"ground truth coverage: {caught == trace.shoplifted_tags}")
    for alert in alerts[:3]:
        print(f"  e.g. {alert!r}")


if __name__ == "__main__":
    main()
