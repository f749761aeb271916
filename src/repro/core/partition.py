"""Partitioned evaluation: hash-route events by the query's equality key.

Most real pattern queries — every canned query in ``repro.workloads`` —
correlate all steps on one attribute: *same tag*, *same source*, *same
symbol*.  For such queries, events with different key values can never
appear in one match, so the engine can be **partitioned**: one
lightweight sub-engine per key value, each seeing only its partition's
events.  Construction then joins within a partition instead of across
the whole window — the classic CEP partitioning optimisation, applied
here on top of the out-of-order machinery.

Key detection is automatic and conservative: the pattern must connect
*all* positive steps through ``==`` predicates on a single attribute
name, and every negated step's predicates must tie it to the same
attribute.  Anything else raises, so partitioning never silently
changes semantics (tests pin partitioned == unpartitioned == oracle).

Disorder handling across partitions needs one extra mechanism: a
partition that goes quiet would never advance its local clock, so its
state could linger and its negation seals would never ripen.  The
router therefore broadcasts **punctuations** derived from the global
clock (safe under the global K promise) every ``punctuate_every``
events, keeping every sub-engine's horizon moving.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.clock import StreamClock
from repro.core.engine import Engine, OutOfOrderEngine
from repro.core.errors import ConfigurationError, QueryError
from repro.core.event import Event, Punctuation
from repro.core.pattern import Match, Pattern
from repro.core.purge import PurgePolicy
from repro.core.stats import EngineStats


def detect_partition_key(pattern: Pattern) -> str:
    """The single attribute that partitions *pattern*, or raise.

    Requirements:

    * some attribute name ``a`` such that the pattern's ``==``
      predicates of shape ``x.a == y.a`` connect all positive steps
      into one component;
    * every negated step carries at least one ``==`` predicate on the
      same attribute linking it to a positive step.
    """
    positive_vars = [s.var for s in pattern.positive_steps]
    candidates: Dict[str, List] = {}
    for left, right in pattern.equality_pairs:
        if left.name == right.name:
            candidates.setdefault(left.name, []).append((left.var, right.var))
    for name, edges in candidates.items():
        if not _connects_all(positive_vars, edges):
            continue
        if _negations_keyed(pattern, name):
            return name
    raise QueryError(
        f"pattern {pattern.name!r} has no single equality attribute connecting "
        "all positive steps (and tying every negated step); partitioned "
        "evaluation is not applicable"
    )


def _connects_all(variables: List[str], edges: List) -> bool:
    if len(variables) == 1:
        return True
    parent = {var: var for var in variables}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for left, right in edges:
        if left in parent and right in parent:
            parent[find(left)] = find(right)
    roots = {find(v) for v in variables}
    return len(roots) == 1


def _negations_keyed(pattern: Pattern, name: str) -> bool:
    for bracket in list(pattern.negations) + list(pattern.kleene):
        keyed = False
        for predicate in bracket.predicates:
            for left, right in predicate.equality_pairs():
                if left.name == name and right.name == name and (
                    bracket.step.var in (left.var, right.var)
                ):
                    keyed = True
        if not keyed:
            return False
    return True


class PartitionedEngine(Engine):
    """Hash-partitioned wrapper around per-key :class:`OutOfOrderEngine` s.

    Parameters
    ----------
    pattern:
        The compiled query; must be partitionable (see
        :func:`detect_partition_key`), or pass *key* explicitly.
    k:
        Global disorder bound (same promise as the flat engine).
    key:
        Partition attribute; auto-detected when omitted.
    punctuate_every:
        Broadcast a global-horizon punctuation to all partitions every
        this many events (bounds idle-partition state and seals their
        negation brackets).
    index:
        Equality-index pushdown inside every sub-engine's construction
        (see :class:`OutOfOrderEngine`); disable for ablation.
    speculative:
        Forwarded to every sub-engine: each partition keeps its own
        speculative stream (``sub.speculation``), aggregated by
        :meth:`speculation_summary` / :meth:`retraction_records`.
    controller:
        Adaptive-K prototype; every partition receives its **own clone**
        at spawn, so bounds adapt per partition (a bursty key shrinks or
        grows its K without disturbing calm ones) — the broadcast
        punctuations are each partition's re-freeze boundaries.
    """

    def __init__(
        self,
        pattern: Pattern,
        k: Optional[int] = None,
        purge: Optional[PurgePolicy] = None,
        key: Optional[str] = None,
        punctuate_every: int = 64,
        index: bool = True,
        speculative: bool = False,
        controller=None,
    ):
        super().__init__(pattern)
        if punctuate_every < 1:
            raise ConfigurationError(
                f"punctuate_every must be >= 1, got {punctuate_every}"
            )
        self.key = key or detect_partition_key(pattern)
        self.k = k
        self.index = index
        self.speculative = speculative
        # Prototype only — _blank_sub_engine hands it to each sub-engine,
        # which clones at attachment, so this instance never mutates.
        self._controller = controller
        self._purge_mode = purge.mode if purge is not None else None
        self._purge_interval = purge.interval if purge is not None else 1
        self.clock = StreamClock(k)
        self.punctuate_every = punctuate_every
        self._partitions: Dict[Any, OutOfOrderEngine] = {}
        # Sum of the sub-engines' state_size(), read per element: an event
        # moves one sub-engine's share; re-summed where every one moves.
        self._state_total = 0
        self._since_punctuation = 0
        self._last_broadcast = -1

    # -- partition plumbing ------------------------------------------------------

    def partition_count(self) -> int:
        """Live partitions (sub-engines instantiated so far)."""
        return len(self._partitions)

    def _sub_engine(self, value: Any) -> OutOfOrderEngine:
        engine = self._partitions.get(value)
        if engine is None:
            engine = self._blank_sub_engine()
            # Catch the new partition up to the global horizon so its
            # first events are judged against the same promise.
            if self._last_broadcast >= 0:
                engine.feed(Punctuation(self._last_broadcast))
            self._partitions[value] = engine
        return engine

    def state_size(self) -> int:
        return self._state_total

    def _each_partition(self, step, emitted: List[Match]) -> None:
        """Run *step* on every sub-engine, surface its matches, re-sum."""
        total = 0
        for engine in self._partitions.values():
            self._surface_from(engine, step(engine), emitted)
            total += engine.state_size()
        self._state_total = total

    # -- checkpoint / restore ------------------------------------------------------

    def _snapshot_config(self) -> dict:
        config = super()._snapshot_config()
        config.update(
            {
                "k": self.k,
                # Kept so snapshot bytes match those written while the
                # late policy was configurable; "drop" is the only one.
                "late_policy": "drop",
                "purge": (self._purge_mode.value if self._purge_mode else None,
                          self._purge_interval),
                "key": self.key,
                "punctuate_every": self.punctuate_every,
                "index": self.index,
                "speculative": self.speculative,
                "controller": (
                    self._controller.fingerprint()
                    if self._controller is not None
                    else None
                ),
            }
        )
        return config

    def _snapshot_state(self) -> dict:
        state = self._base_state()
        state.update(
            {
                "clock": self.clock.snapshot_state(),
                "since_punctuation": self._since_punctuation,
                "last_broadcast": self._last_broadcast,
                # Insertion order is part of the deterministic behaviour
                # (punctuation broadcasts iterate it), so a list of
                # pairs, not a dict re-keyed on restore.
                "partitions": [
                    (value, sub._snapshot_state())
                    for value, sub in self._partitions.items()
                ],
            }
        )
        return state

    def _restore_state(self, state: dict) -> None:
        self._restore_base(state)
        self.clock.restore_state(state["clock"])
        self._since_punctuation = state["since_punctuation"]
        self._last_broadcast = state["last_broadcast"]
        self._partitions = {}
        for value, sub_state in state["partitions"]:
            sub = self._blank_sub_engine()
            sub._restore_state(sub_state)
            self._partitions[value] = sub
        self._state_total = sum(sub.state_size() for sub in self._partitions.values())

    def _blank_sub_engine(self) -> OutOfOrderEngine:
        """A sub-engine as :meth:`_sub_engine` builds it, minus the catch-up
        punctuation (the restored state already contains its effect)."""
        if self._purge_mode is None:
            purge = None
        else:
            purge = PurgePolicy(self._purge_mode, self._purge_interval)
        return OutOfOrderEngine(
            self.pattern,
            k=self.k,
            purge=purge,
            index=self.index,
            speculative=self.speculative,
            controller=self._controller,
        )

    # -- processing ------------------------------------------------------------------

    def _process_event(self, event: Event) -> List[Match]:
        emitted: List[Match] = []
        stats = self.stats
        if self.clock.is_late(event):
            stats.late_dropped += 1
            return emitted
        if self.clock.observe(event):
            stats.out_of_order_events += 1
        relevant = event.etype in self.pattern.relevant_types
        value = event.get(self.key) if relevant else None
        if relevant and (value is not None or self.key in event):
            stats.events_admitted += 1
            sub = self._sub_engine(value)
            before = sub.state_size()
            self._surface_from(sub, sub.feed(event), emitted)
            self._state_total += sub.state_size() - before
        else:
            stats.events_ignored += 1

        self._since_punctuation += 1
        if self._since_punctuation >= self.punctuate_every:
            self._broadcast_horizon(emitted)
            self._since_punctuation = 0
        return emitted

    def _on_punctuation(self, punctuation: Punctuation) -> List[Match]:
        self.clock.observe_punctuation(punctuation)
        emitted: List[Match] = []
        self._each_partition(lambda sub: sub.feed(punctuation), emitted)
        self._last_broadcast = max(self._last_broadcast, punctuation.ts)
        return emitted

    def _broadcast_horizon(self, emitted: List[Match]) -> None:
        horizon = self.clock.horizon()
        if horizon <= self._last_broadcast or horizon < 0:
            return
        self._last_broadcast = horizon
        punctuation = Punctuation(horizon)
        self._each_partition(lambda sub: sub.feed(punctuation), emitted)

    def _flush(self) -> List[Match]:
        emitted: List[Match] = []
        self._each_partition(lambda sub: sub.close(), emitted)
        return emitted

    def _surface(self, match: Match, emitted: List[Match]) -> None:
        self._emit(match, self.clock.now)
        emitted.append(match)

    def _surface_from(
        self, sub: OutOfOrderEngine, matches: List[Match], emitted: List[Match]
    ) -> None:
        """Surface what *sub* just handed over; as its receiver, take it."""
        if matches:
            sub.take_emissions()
            for match in matches:
                self._surface(match, emitted)

    # -- diagnostics ---------------------------------------------------------------

    def merged_substats(self):
        """Aggregated work counters across all partitions."""
        merged = EngineStats()
        for engine in self._partitions.values():
            merged.merge(engine.stats)
        return merged

    def speculation_summary(self) -> dict:
        """Aggregate speculative-stream accounting across partitions."""
        emitted = retracted = still_open = 0
        for engine in self._partitions.values():
            log = engine.speculation
            if log is not None:
                emitted += len(log.emissions)
                retracted += len(log.retractions)
                still_open += log.open_count
        return {"emitted": emitted, "retracted": retracted, "open": still_open}

    def retraction_records(self) -> List:
        """Every partition's retractions as ``(partition_value, Retraction)``,
        in partition-insertion order (deterministic)."""
        records = []
        for value, engine in self._partitions.items():
            if engine.speculation is not None:
                for retraction in engine.speculation.retractions:
                    records.append((value, retraction))
        return records

