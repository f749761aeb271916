#!/usr/bin/env python3
"""Real-time intrusion detection with sealed vs speculative alerting.

Run:  python examples/intrusion_detection.py

The paper's second motivating application.  Security sensors report
through independent collectors, so the merged audit stream is out of
order.  Two signatures run concurrently:

* brute force  — SEQ(LOGIN_FAIL x3, LOGIN_OK), same source;
* exfiltration — SEQ(PRIV_READ, !AUDIT, UPLOAD), same source — a
  *negation* query, where disorder is genuinely dangerous: a late AUDIT
  record can retroactively clear a suspect.

The conservative engine (the paper's choice) holds each exfiltration
alert until no audit record can still arrive; with speculative emission
on, the same engine also alerts immediately on a side stream and issues
a retraction at the seal if a late audit cleared the host — the operator
chooses which stream to act on.
"""

from repro import MultiQueryPlan, OutOfOrderEngine, QueryPlan
from repro.core.oracle import OfflineOracle
from repro.metrics import print_table, summarize_arrival_latency
from repro.streams import RandomDelayModel
from repro.workloads import IntrusionGenerator, brute_force_query, exfiltration_query


def main() -> None:
    # 1. A day of traffic: benign hosts plus a few genuine attackers.
    generator = IntrusionGenerator(
        hosts=60, duration=30_000, background_rate=0.4, attackers=6, seed=443
    )
    trace = generator.generate()
    print(
        f"audit stream: {len(trace.events)} events, "
        f"{len(trace.brute_force_sources)} brute-force + "
        f"{len(trace.exfiltration_sources)} exfiltration attackers"
    )

    # 2. Collector skew: 35% of events delayed by up to 80 ticks.
    disorder_model = RandomDelayModel(rate=0.35, max_delay=80, seed=7)
    arrival, stats = disorder_model.arrange(trace.events)
    print(f"collector merge: {stats}")
    print()

    brute = brute_force_query(within=300)
    exfil = exfiltration_query(within=500)
    k = 80  # the collectors' documented maximum skew

    # 3. Both signatures on one stream via a multi-query plan.
    plans = MultiQueryPlan(
        [
            QueryPlan(OutOfOrderEngine(brute, k=k)),
            QueryPlan(OutOfOrderEngine(exfil, k=k)),
        ]
    )
    plans.run(arrival)
    brute_hits = {m.events[0]["src"] for m in plans.plans[0].matches}
    exfil_hits = {m.events[0]["src"] for m in plans.plans[1].matches}
    print_table(
        "Detections (conservative out-of-order engine)",
        ["signature", "alerts", "attackers caught", "of"],
        [
            ["brute force", len(plans.plans[0].matches),
             len(brute_hits & trace.brute_force_sources), len(trace.brute_force_sources)],
            ["exfiltration", len(plans.plans[1].matches),
             len(exfil_hits & trace.exfiltration_sources), len(trace.exfiltration_sources)],
        ],
    )

    # 4. Sealed vs speculative alerting on the negation signature: one
    #    engine, two streams; the consumer takes the speculative one.
    truth = OfflineOracle(exfil).evaluate_set(trace.events)
    engine = OutOfOrderEngine(exfil, k=k, speculative=True)
    engine.run(list(arrival))
    alerts, retractions = engine.take_speculation()
    withdrawn = {r.ref_seq for r in retractions}
    net = {a.match.key() for a in alerts if a.seq not in withdrawn}

    sealed_latency = summarize_arrival_latency(engine.emissions, arrival)
    alert_latency = summarize_arrival_latency(alerts, arrival)
    print_table(
        "Exfiltration alerting: sealed vs speculative",
        ["stream", "alerts", "retracted", "net == truth", "mean alert latency", "p99"],
        [
            [
                "sealed (hold until sealed)",
                len(engine.results),
                0,
                engine.result_set() == truth,
                f"{sealed_latency.mean:.1f}",
                f"{sealed_latency.p99:.0f}",
            ],
            [
                "speculative (alert + retract)",
                len(alerts),
                len(retractions),
                net == truth,
                f"{alert_latency.mean:.1f}",
                f"{alert_latency.p99:.0f}",
            ],
        ],
        note="latency in events between evidence complete and alert raised",
    )
    if retractions:
        example = retractions[0]
        raised = next(a.emitted_seq for a in alerts if a.seq == example.ref_seq)
        print(
            f"example retraction: alert on src={example.match.events[0]['src']} "
            f"withdrawn at its seal ({example.cause}), "
            f"{example.retracted_arrival - raised} events after it was raised"
        )

if __name__ == "__main__":
    main()
