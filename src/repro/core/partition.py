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

import pickle
from typing import Any, Dict, List, Optional

from repro.core.clock import StreamClock
from repro.core.engine import Engine, OutOfOrderEngine
from repro.core.errors import ConfigurationError, QueryError
from repro.core.event import Event, Punctuation
from repro.core.pattern import Match, Pattern
from repro.core.purge import PurgePolicy
from repro.core.stats import EngineStats

#: :meth:`PartitionedEngine._route` outcomes for an event no partition gets.
_LATE = object()
_IGNORED = object()


def require_picklable_pattern(pattern: Pattern, backend: str) -> None:
    """Fail fast — and descriptively — on process-backend pickling hazards.

    A process pool must pickle the pattern; ``FnPredicate`` lambdas
    can't be.
    Checking at construction, unconditionally for process backends,
    turns a platform-dependent mid-run ``PicklingError`` deep inside the
    pool machinery into an immediate :class:`ConfigurationError` that
    names the offending predicates.
    """
    try:
        pickle.dumps(pattern)
        return
    except Exception as exc:  # PicklingError, AttributeError (local fn), ...
        from repro.core.predicates import FnPredicate

        suspects = list(pattern.where)
        for bracket in list(pattern.negations) + list(pattern.kleene):
            suspects.extend(bracket.predicates)
        offenders = []
        for predicate in suspects:
            if isinstance(predicate, FnPredicate):
                try:
                    pickle.dumps(predicate)
                except Exception:
                    offenders.append(repr(predicate))
        if offenders:
            raise ConfigurationError(
                f"backend={backend!r} runs workers in separate processes, but "
                f"pattern {pattern.name!r} holds unpicklable predicates: "
                f"{', '.join(offenders)}. Use named module-level functions "
                "instead of lambdas/closures in FnPredicate, or backend='thread'."
            ) from exc
        raise ConfigurationError(
            f"backend={backend!r} requires a picklable pattern, but "
            f"{pattern.name!r} failed to pickle: {exc}"
        ) from exc


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

    def _route(self, event: Event) -> Any:
        """The global pre-pass every partitioned variant runs per event.

        Judges *event* against the global clock: one at or below the
        horizon is counted in ``late_dropped`` and dropped (``_LATE``);
        otherwise the clock observes it, and an irrelevant or keyless
        event is counted in ``events_ignored`` (``_IGNORED``).  Returns
        the partition value of an event to deliver, counted as admitted.
        """
        stats = self.stats
        if self.clock.is_late(event):
            stats.late_dropped += 1
            return _LATE
        if self.clock.observe(event):
            stats.out_of_order_events += 1
        if event.etype in self.pattern.relevant_types:
            value = event.get(self.key)
            if value is not None or self.key in event:
                stats.events_admitted += 1
                return value
        stats.events_ignored += 1
        return _IGNORED

    def _process_event(self, event: Event) -> List[Match]:
        emitted: List[Match] = []
        value = self._route(event)
        if value is _LATE:
            return emitted
        if value is not _IGNORED:
            sub = self._sub_engine(value)
            before = sub.state_size()
            self._surface_from(sub, sub.feed(event), emitted)
            self._state_total += sub.state_size() - before

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


def _run_partition(payload):
    """Pool worker: run one partition's event slice through a fresh engine.

    Module-level so both pool backends can pickle it; returns the
    partition's final matches, its work counters, and — when the parent
    engine is instrumented — a metrics-registry snapshot for the
    deterministic per-worker merge.
    """
    pattern, k, purge_mode, purge_interval, events, instrument, index = payload
    purge = None
    if purge_mode is not None:
        purge = PurgePolicy(purge_mode, purge_interval)
    engine = OutOfOrderEngine(pattern, k=k, purge=purge, index=index)
    metrics_state = None
    if instrument:
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        engine.enable_observability(metrics=registry)
        engine.feed_batch(events)
        engine.close()
        metrics_state = registry.snapshot_state()
    else:
        engine.feed_batch(events)
        engine.close()
    return engine.results, engine.stats, metrics_state


class ParallelPartitionedEngine(PartitionedEngine):
    """Partitioned evaluation fanned out over a worker pool.

    With ``workers=1`` this class **is** the serial
    :class:`PartitionedEngine` — no code path diverges, so golden traces
    stay byte-identical.  With ``workers > 1`` execution is deferred:
    ``feed`` runs only the global-clock pre-pass (:meth:`_route`, the
    serial engine's own late check, routing and flow accounting)
    and buffers each partition's events; :meth:`close` then runs every
    partition to completion on the pool and merges the emissions
    **deterministically** by ``(end_ts, start_ts, match key)``, so the
    output is a pure function of the input stream regardless of worker
    count or scheduling.

    Correctness of the fan-out: the pre-pass replicates every
    late-drop decision (the outer clock sees the full stream, exactly
    as the serial engine's outer clock does), and a sub-engine's local
    horizon never exceeds the global one, so deferring a partition's
    events can never drop more.  The serial engine's broadcast
    punctuations only accelerate purging and sealing — they never
    change the post-``close`` result set — so the workers skip them.

    Parameters
    ----------
    workers:
        Pool size.  ``1`` = serial fallback (byte-identical traces).
    backend:
        ``"thread"`` (default; no pickling constraints, best for small
        batches under a free-threaded or I/O-bound runtime) or
        ``"process"`` (true parallelism; pattern, predicates and events
        must be picklable, so ``FnPredicate`` lambdas are out).

    Notes
    -----
    With ``workers > 1`` the streaming surface is deliberately coarse:
    ``feed`` returns no matches (everything surfaces at ``close``),
    emission records carry the end-of-stream clock, and per-element
    state peaks reflect the buffered events.
    """

    def __init__(
        self,
        pattern: Pattern,
        k: Optional[int] = None,
        purge: Optional[PurgePolicy] = None,
        key: Optional[str] = None,
        punctuate_every: int = 64,
        index: bool = True,
        workers: int = 1,
        backend: str = "thread",
        speculative: bool = False,
        controller=None,
    ):
        super().__init__(
            pattern,
            k=k,
            purge=purge,
            key=key,
            punctuate_every=punctuate_every,
            index=index,
            speculative=speculative,
            controller=controller,
        )
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ConfigurationError(f"workers must be an int >= 1, got {workers!r}")
        if workers > 1 and (speculative or controller is not None):
            # The deferred pre-pass buffers partitions until close, so
            # there is no live stream to speculate on and no punctuation
            # boundary at which a controller could re-freeze.
            raise ConfigurationError(
                "speculative/adaptive modes need live per-partition streams; "
                "use workers=1 (serial) for them"
            )
        if backend not in ("thread", "process"):
            raise ConfigurationError(
                f"backend must be 'thread' or 'process', got {backend!r}"
            )
        if backend == "process" and workers > 1:
            require_picklable_pattern(pattern, backend)
        self.workers = workers
        self.backend = backend
        self._routed: Dict[Any, List[Event]] = {}
        self._worker_stats: List = []

    # -- deferred pre-pass (workers > 1) -------------------------------------------

    def _process_event(self, event: Event) -> List[Match]:
        if self.workers == 1:
            return PartitionedEngine._process_event(self, event)
        value = self._route(event)
        if value is not _LATE and value is not _IGNORED:
            bucket = self._routed.get(value)
            if bucket is None:
                bucket = self._routed[value] = []
            bucket.append(event)
        return []

    def _on_punctuation(self, punctuation: Punctuation) -> List[Match]:
        if self.workers == 1:
            return PartitionedEngine._on_punctuation(self, punctuation)
        # Advance the global clock so later events are judged against the
        # punctuated horizon, exactly as the serial pre-pass would.
        self.clock.observe_punctuation(punctuation)
        self._last_broadcast = max(self._last_broadcast, punctuation.ts)
        return []

    def partition_count(self) -> int:
        if self.workers == 1:
            return PartitionedEngine.partition_count(self)
        return len(self._routed)

    def state_size(self) -> int:
        if self.workers == 1:
            return PartitionedEngine.state_size(self)
        return sum(len(bucket) for bucket in self._routed.values())

    # -- checkpoint / restore ------------------------------------------------------

    def _snapshot_config(self) -> dict:
        config = super()._snapshot_config()
        # Worker count and pool backend never change results (merge is
        # deterministic), but serial vs. deferred is a different state
        # shape, so only that distinction is part of the fingerprint.
        config["parallel_variant"] = "serial" if self.workers == 1 else "deferred"
        return config

    def _snapshot_state(self) -> dict:
        if self.workers == 1:
            return PartitionedEngine._snapshot_state(self)
        state = self._base_state()
        state.update(
            {
                "clock": self.clock.snapshot_state(),
                "since_punctuation": self._since_punctuation,
                "last_broadcast": self._last_broadcast,
                "routed": [
                    (value, list(bucket)) for value, bucket in self._routed.items()
                ],
                "worker_stats": [
                    stats.as_dict() for stats in self._worker_stats
                ],
            }
        )
        return state

    def _restore_state(self, state: dict) -> None:
        if self.workers == 1:
            PartitionedEngine._restore_state(self, state)
            return
        self._restore_base(state)
        self.clock.restore_state(state["clock"])
        self._since_punctuation = state["since_punctuation"]
        self._last_broadcast = state["last_broadcast"]
        self._routed = {value: list(bucket) for value, bucket in state["routed"]}
        restored_stats = []
        for payload in state.get("worker_stats", []):
            stats = EngineStats()
            stats.restore_from(payload)
            restored_stats.append(stats)
        self._worker_stats = restored_stats

    # -- fan-out + deterministic merge ----------------------------------------------

    def _flush(self) -> List[Match]:
        if self.workers == 1:
            return PartitionedEngine._flush(self)
        instrument = self._obs is not None and self._obs.registry is not None
        payloads = [
            (
                self.pattern,
                self.k,
                self._purge_mode,
                self._purge_interval,
                bucket,
                instrument,
                self.index,
            )
            for bucket in self._routed.values()
        ]
        outcomes = self._map(payloads)
        self._worker_stats = [stats for _, stats, _ in outcomes]
        if instrument:
            # Fold worker registries in routing-insertion order; the
            # merge itself is order-insensitive (counters add, gauges
            # max), so the result is deterministic regardless of pool
            # scheduling.
            self._obs.merge_worker_states([m for _, _, m in outcomes])
        merged: List[Match] = []
        for matches, _, _ in outcomes:
            merged.extend(matches)
        merged.sort(key=lambda m: (m.end_ts, m.start_ts, m.key()))
        emitted: List[Match] = []
        for match in merged:
            self._surface(match, emitted)
        self._routed.clear()
        return emitted

    def _map(self, payloads: List) -> List:
        if not payloads:
            return []
        # One pool for the whole close-time map (the run's single
        # fan-out), sized to the work at hand and mapped with an
        # explicit chunksize derived from the partition count: the
        # default chunksize is tuned for huge iterables and would hand
        # some workers nothing when partitions barely exceed workers.
        # The pool lives only inside this call — it never becomes
        # engine state, so snapshots have no handle to lose.
        pool_size = min(self.workers, len(payloads))
        chunksize = max(1, len(payloads) // (pool_size * 4))
        if self.backend == "process":
            import multiprocessing

            pool = multiprocessing.Pool(pool_size)
            try:
                return pool.map(_run_partition, payloads, chunksize=chunksize)
            finally:
                pool.close()
                pool.join()
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=pool_size) as executor:
            return list(
                executor.map(_run_partition, payloads, chunksize=chunksize)
            )

    def merged_substats(self):
        if self.workers == 1:
            return PartitionedEngine.merged_substats(self)
        merged = EngineStats()
        for stats in self._worker_stats:
            merged.merge(stats)
        return merged
