"""Parameterised synthetic workload: the experiments' primary driver.

Most of the paper's measurement axes (disorder rate, disorder extent,
window size, query length, predicate selectivity) need a workload whose
knobs turn *independently*.  :class:`SyntheticWorkload` bundles a
source, a disorder model, and a query generator behind one config
object, and every benchmark sweeps exactly one knob of it.

The generated queries are ``SEQ(T1, T2, …, Tn)`` over an alphabet that
also contains noise types the query ignores; an equality predicate on
a partition attribute controls selectivity (more partitions = fewer
cross-matches = cheaper construction).
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.event import Event
from repro.core.pattern import Pattern, Step
from repro.core.predicates import Attr, Eq, Predicate
from repro.streams.disorder import DelayModel, NoDisorder


def chain_query(
    length: int,
    within: int,
    partitioned: bool = True,
    negated_step: Optional[int] = None,
    name: str = "",
) -> Pattern:
    """``SEQ(T1 v1, …, Tn vn)`` with optional partition equality and negation.

    *negated_step*, when given, inserts a negated ``N x`` step before
    the positive step at that index (0-based, 1..length-1) — or after
    the last when equal to *length*.
    """
    if length < 1:
        raise ConfigurationError(f"length must be >= 1, got {length}")
    if within < 1:
        raise ConfigurationError(f"within must be >= 1, got {within}")
    steps: List[Step] = []
    for index in range(length):
        if negated_step is not None and negated_step == index:
            steps.append(Step("N", "neg", negated=True))
        steps.append(Step(f"T{index + 1}", f"v{index + 1}"))
    if negated_step is not None and negated_step == length:
        steps.append(Step("N", "neg", negated=True))
    where: List[Predicate] = []
    if partitioned:
        for index in range(1, length):
            where.append(Eq(Attr(f"v{index}", "part"), Attr(f"v{index + 1}", "part")))
        if negated_step is not None:
            where.append(Eq(Attr("neg", "part"), Attr("v1", "part")))
    return Pattern(
        steps,
        where=where or None,
        within=within,
        name=name or f"chain{length}",
    )


class SyntheticWorkload:
    """A reproducible (events, arrival order, query) triple.

    Parameters
    ----------
    query_length:
        Number of positive steps in the chain query.
    event_count:
        Events generated (before disorder; disorder preserves count).
    within:
        Query window, in occurrence-time units (one event per unit).
    partitions:
        Cardinality of the ``part`` attribute; selectivity of the
        equality chain is ``1 / partitions`` per join.
    noise_types:
        Extra event types the query ignores.
    disorder:
        A :class:`DelayModel`; default in-order.
    negated_step:
        Forwarded to :func:`chain_query`.
    include_negatives:
        When the query has a negated ``N`` step, fraction of events
        that are ``N`` events.
    seed:
        Determinism.
    """

    def __init__(
        self,
        query_length: int = 3,
        event_count: int = 5_000,
        within: int = 50,
        partitions: int = 10,
        noise_types: int = 1,
        disorder: Optional[DelayModel] = None,
        negated_step: Optional[int] = None,
        include_negatives: float = 0.1,
        seed: int = 0,
    ):
        if partitions < 1:
            raise ConfigurationError(f"partitions must be >= 1, got {partitions}")
        if noise_types < 0:
            raise ConfigurationError(f"noise_types must be >= 0, got {noise_types}")
        if not 0.0 <= include_negatives <= 1.0:
            raise ConfigurationError("include_negatives must be in [0, 1]")
        self.query_length = query_length
        self.event_count = event_count
        self.within = within
        self.partitions = partitions
        self.noise_types = noise_types
        self.disorder = disorder or NoDisorder()
        self.negated_step = negated_step
        self.include_negatives = include_negatives
        self.seed = seed
        self.query = chain_query(
            query_length, within, partitioned=True, negated_step=negated_step
        )

    def _alphabet(self) -> List[str]:
        alphabet = [f"T{i + 1}" for i in range(self.query_length)]
        alphabet.extend(f"X{i + 1}" for i in range(self.noise_types))
        return alphabet

    def generate(self) -> Tuple[List[Event], List[Event]]:
        """Returns ``(occurrence_order, arrival_order)``."""
        rng = random.Random(self.seed)
        alphabet = self._alphabet()
        events: List[Event] = []
        for ts in range(1, self.event_count + 1):
            if (
                self.negated_step is not None
                and rng.random() < self.include_negatives
            ):
                etype = "N"
            else:
                etype = rng.choice(alphabet)
            events.append(
                Event(etype, ts, {"part": rng.randint(1, self.partitions)})
            )
        arrival = self.disorder.apply(events)
        return events, arrival
