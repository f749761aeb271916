"""Discrete-event network simulator: occurrence order in, arrival order out.

The simulator carries each source's events across its route to the
sink, hop by hop:

* leaving a node is only possible while the node is up — a failed node
  holds traffic until recovery (``FailureSchedule``);
* each link adds a sampled latency (``LatencyModel``);
* per-link FIFO is preserved (a later departure cannot overtake an
  earlier one on the *same* link), matching ordered transport like TCP;
  reordering emerges *across* sources, links, and failure bursts.

The output is the arrival-ordered element list the engines consume,
plus per-event delivery records for calibration (e.g. choosing K from
simulated delays rather than oracle knowledge).
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.event import Event
from repro.netsim.failure import FailureSchedule
from repro.netsim.topology import Topology


class Delivery(NamedTuple):
    """One event's journey: occurrence ts, sink arrival time, source."""

    event: Event
    sent_at: int
    arrived_at: int
    source: str

    @property
    def transit(self) -> int:
        return self.arrived_at - self.sent_at


class SimulationResult:
    """Arrival order plus per-delivery diagnostics."""

    def __init__(self, deliveries: List[Delivery]):
        self.deliveries = deliveries

    @property
    def arrival_order(self) -> List[Event]:
        """Events in sink-arrival order — feed this to an engine."""
        return [d.event for d in self.deliveries]

    def observed_disorder_bound(self) -> int:
        """Smallest K under which no delivered event is late at the sink.

        Computed from arrival order the same way an engine's clock
        would: for each delivery, how far the max occurrence timestamp
        already arrived exceeds its own.
        """
        bound = 0
        max_ts = -1
        for delivery in self.deliveries:
            ts = delivery.event.ts
            if ts < max_ts:
                bound = max(bound, max_ts - ts)
            elif ts > max_ts:
                max_ts = ts
        return bound

    def crash_indices(self, failures, node: str) -> List[int]:
        """Arrival-stream positions where *node*'s outages begin.

        Maps each outage of *node* in a
        :class:`repro.netsim.failure.FailureSchedule` to the index of
        the first delivery arriving at or after the outage start — the
        position at which an engine hosted on that node would die.
        Feed the result to
        :meth:`repro.faultinject.FaultInjector.from_outages` to turn a
        simulated topology failure into an engine crash/restart cycle.
        Outages starting after the last delivery produce no crash point.
        """
        arrivals = [d.arrived_at for d in self.deliveries]
        indices = []
        for start, _end in failures.outages(node):
            index = bisect.bisect_left(arrivals, start)
            if index < len(arrivals):
                indices.append(index)
        return sorted(set(indices))


class NetworkSimulator:
    """Carries source streams across a topology to a sink.

    Parameters
    ----------
    topology:
        Node/link graph.
    sink:
        Node name where the engine sits.
    failures:
        Optional outage schedule; nodes hold traffic while down.
    seed:
        RNG seed for latency sampling.
    """

    def __init__(
        self,
        topology: Topology,
        sink: str = "sink",
        failures: Optional[FailureSchedule] = None,
        seed: int = 0,
    ):
        if sink not in topology.nodes:
            raise ConfigurationError(f"unknown sink {sink!r}")
        self.topology = topology
        self.sink = sink
        self.failures = failures or FailureSchedule()
        self.seed = seed

    def run(self, streams: Dict[str, Sequence[Event]]) -> SimulationResult:
        """Deliver every stream to the sink.

        *streams* maps source node name → events in occurrence order
        (each event's ``ts`` is its send time at the source).
        """
        rng = random.Random(self.seed)
        deliveries: List[Delivery] = []
        for source in sorted(streams):
            route = self.topology.route(source, self.sink)
            link_clock: Dict[Tuple[str, str], int] = {}
            last_sent = -1
            for event in streams[source]:
                if event.ts < last_sent:
                    raise ConfigurationError(
                        f"stream at {source!r} not in occurrence order: {event!r}"
                    )
                last_sent = event.ts
                t = event.ts
                node = source
                for link in route:
                    # A down node holds the event until recovery.
                    t = self.failures.available_at(node, t)
                    t += link.latency.sample(rng)
                    # Per-link FIFO: no overtaking on the same link.
                    key = (link.src, link.dst)
                    t = max(t, link_clock.get(key, 0))
                    link_clock[key] = t
                    node = link.dst
                t = self.failures.available_at(self.sink, t)
                deliveries.append(Delivery(event, event.ts, t, source))
        # Sink arrival order; ties broken deterministically by (source, eid).
        deliveries.sort(key=lambda d: (d.arrived_at, d.source, d.event.eid))
        return SimulationResult(deliveries)


def simulate_star(
    streams: Dict[str, Sequence[Event]],
    latency_factory,
    failures: Optional[FailureSchedule] = None,
    seed: int = 0,
) -> SimulationResult:
    """One-hop star topology shortcut: every source direct to the sink.

    *latency_factory(index)* builds the latency model for the i-th
    source (sorted by name).
    """
    names = sorted(streams)
    topology = Topology.star(names, latency_factory=latency_factory)
    simulator = NetworkSimulator(topology, failures=failures, seed=seed)
    return simulator.run(streams)
