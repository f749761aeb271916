"""E13 — Ablation: partitioned vs flat evaluation of keyed queries.

Extension experiment (beyond the paper): every application query in the
paper's domains correlates steps on one attribute (tag / source /
symbol).  Hash-partitioning the out-of-order engine on that key turns
cross-window joins into per-partition joins.

Expected shape: construction work (partial combinations) for the flat
engine grows with window occupancy regardless of key cardinality,
while the partitioned engine's work falls ~1/cardinality; results stay
bit-identical (asserted).  At cardinality 1 partitioning degenerates
to the flat engine plus routing overhead — the honest break-even.
"""

import pytest

from repro import OutOfOrderEngine, PartitionedEngine
from repro.metrics import render_table
from repro.streams import RandomDelayModel
from repro.workloads import SyntheticWorkload

from common import write_result

CARDINALITIES = [1, 4, 16, 64]
EVENTS = 6000
K = 25


def _arrival(partitions: int):
    workload = SyntheticWorkload(
        query_length=3,
        event_count=EVENTS,
        within=60,
        partitions=partitions,
        disorder=RandomDelayModel(0.25, K, seed=25),
        seed=26,
    )
    __, arrival = workload.generate()
    return workload.query, arrival


def run_experiment() -> str:
    rows = []
    for cardinality in CARDINALITIES:
        query, arrival = _arrival(cardinality)
        flat = OutOfOrderEngine(query, k=K)
        flat.run(list(arrival))
        partitioned = PartitionedEngine(query, k=K)
        partitioned.run(list(arrival))
        assert partitioned.result_set() == flat.result_set()
        sub = partitioned.merged_substats()
        rows.append(
            [
                cardinality,
                flat.stats.partial_combinations,
                sub.partial_combinations,
                round(
                    flat.stats.partial_combinations / max(1, sub.partial_combinations), 2
                ),
                partitioned.partition_count(),
                len(flat.results),
            ]
        )
    text = render_table(
        f"E13 — partitioned vs flat construction work (n={EVENTS}, K={K}, W=60)",
        ["key_cardinality", "flat_partials", "partitioned_partials", "speedup_x",
         "partitions", "matches"],
        rows,
        note="identical result sets asserted per row; extension beyond the paper",
    )
    return write_result("e13_partitioning", text)


def test_e13_report(benchmark):
    text = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print(text)
    rows = [
        line.split()
        for line in text.splitlines()
        if line.strip() and line.strip()[0].isdigit()
    ]
    speedups = [float(row[3]) for row in rows]
    # Work ratio grows with cardinality; meaningful win by 16 keys.
    assert speedups == sorted(speedups)
    assert speedups[-1] > 3.0


@pytest.mark.parametrize("engine_name", ["flat", "partitioned"])
def test_e13_kernel(benchmark, engine_name):
    query, arrival = _arrival(16)

    def kernel():
        if engine_name == "flat":
            engine = OutOfOrderEngine(query, k=K)
        else:
            engine = PartitionedEngine(query, k=K)
        engine.feed_batch(arrival)
        engine.close()
        return len(engine.results)

    benchmark(kernel)
