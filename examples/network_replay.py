#!/usr/bin/env python3
"""Simulate a failing sensor network, record the trace, replay it exactly.

Run:  python examples/network_replay.py

Operational workflow for debugging out-of-order incidents:

1. simulate a sensor network where one site fails and recovers (the
   paper's "machine failure" disorder cause) — the recovery flushes a
   burst of stale events;
2. size the disorder bound K two ways — worst-case vs 99th-percentile —
   and see the memory/correctness trade-off;
3. record the exact arrival trace to a JSON-lines file and replay it
   into a fresh engine, reproducing results *and* internal counters
   bit-for-bit (the trace file is what you attach to a bug report).
"""

import tempfile
from pathlib import Path

from repro import OutOfOrderEngine, parse
from repro.core.oracle import OfflineOracle
from repro.metrics import print_table
from repro.streams import (
    MaxObservedK,
    QuantileK,
    SyntheticSource,
    dump_trace,
    load_trace,
    measure_disorder,
    star_arrival,
)

QUERY = parse(
    "PATTERN SEQ(TEMP t, PRESSURE p, ALARM a) "
    "WHERE t.zone == p.zone AND p.zone == a.zone WITHIN 120",
    name="cascade",
)

#: site1 goes down for 600 ticks mid-run.
OUTAGES = {"site1": [(2_000, 2_600)]}


def main() -> None:
    types = ["TEMP", "PRESSURE", "ALARM"]

    def attrs(rng, ts):
        return {"zone": rng.randint(1, 4)}

    streams = {
        "site1": SyntheticSource(types, 2500, seed=1, interval=2, attr_maker=attrs).take(2500),
        "site2": SyntheticSource(types, 2500, seed=2, interval=2, attr_maker=attrs).take(2500),
    }
    # Two sensor sites, each on a jittery uplink straight to the sink.
    arrival, _times = star_arrival(streams, (0, 5), OUTAGES, seed=17)
    stats = measure_disorder(arrival)
    print(f"delivered {len(arrival)} events; {stats}")
    print(f"(site1 outage flushed a burst: max displacement {stats.max_delay} ticks)")
    print()

    # --- sizing K: worst case vs quantile ------------------------------------
    worst, q99 = MaxObservedK(), QuantileK(quantile=0.99, window=5000)
    for event in arrival:
        worst.observe(event)
        q99.observe(event)

    all_events = [e for events in streams.values() for e in events]
    truth = OfflineOracle(QUERY).evaluate_set(all_events)
    rows = []
    for label, k in (("K = max observed", worst.current()), ("K = p99 observed", q99.current())):
        engine = OutOfOrderEngine(QUERY, k=k)
        engine.run(list(arrival))
        rows.append(
            [
                label,
                k,
                len(engine.results),
                f"{len(engine.result_set() & truth) / max(1, len(truth)):.3f}",
                engine.stats.late_dropped,
                engine.stats.peak_state_size,
            ]
        )
    print_table(
        f"Sizing the disorder bound ({len(truth)} true matches)",
        ["policy", "K", "matches", "recall", "late dropped", "peak state"],
        rows,
        note="p99 K trades a few late-dropped stragglers for much less state",
    )

    # --- record & replay -------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "incident-2026-07-07.jsonl"
        dump_trace(arrival, path)
        print(f"recorded arrival trace: {path.name} ({path.stat().st_size:,} bytes)")

        original = OutOfOrderEngine(QUERY, k=worst.current())
        original.run(list(arrival))
        replayed = OutOfOrderEngine(QUERY, k=worst.current())
        replayed.run(load_trace(path))

        identical_results = replayed.result_set() == original.result_set()
        identical_counters = replayed.stats.as_dict() == original.stats.as_dict()
        print(f"replay reproduces results:  {identical_results}")
        print(f"replay reproduces counters: {identical_counters}")


if __name__ == "__main__":
    main()
