"""Workload generators and their canned pattern queries."""

from repro.workloads.intrusion import (
    IntrusionGenerator,
    IntrusionTrace,
    brute_force_query,
    exfiltration_query,
)
from repro.workloads.rfid import (
    RfidStoreGenerator,
    RfidTrace,
    shoplifting_query,
)
from repro.workloads.stock import (
    StockFeedGenerator,
    accumulation_query,
)
from repro.workloads.synthetic import (
    SyntheticWorkload,
    chain_query,
)

__all__ = [
    "IntrusionGenerator",
    "IntrusionTrace",
    "RfidStoreGenerator",
    "RfidTrace",
    "StockFeedGenerator",
    "SyntheticWorkload",
    "accumulation_query",
    "brute_force_query",
    "chain_query",
    "exfiltration_query",
    "shoplifting_query",
]
