"""The out-of-order engine: the paper's contribution, assembled.

:class:`OutOfOrderEngine` evaluates one ``SEQ`` pattern over a stream
whose arrival order may diverge from occurrence order, bounded by a
disorder promise K.  Per arriving element it performs:

1. **clock & lateness** — advance the stream clock; an event at or
   below the safe horizon broke the K promise and is counted
   (``stats.late_dropped``) and dropped;
2. **sequence scan** — admission to the ts-sorted stacks (positive
   steps) and/or the negative store (negated types), plus feasibility
   probes (``repro.core.scan``);
3. **sequence construction** — exactly-once match enumeration triggered
   by the insertion (``repro.core.construction``);
4. **negation routing** — matches with unsealed negation brackets are
   parked in the pending buffer; sealed ones are checked against the
   negative store and emitted or cancelled (``repro.core.negation``);
5. **seal release** — the advanced horizon may ripen previously parked
   matches;
6. **purge** — state provably useless at the new horizon is dropped,
   per the configured :class:`PurgePolicy` (``repro.core.purge``).

The engine is single-threaded and deterministic: identical input
sequences produce identical outputs, counters and state trajectories,
which the record/replay substrate and the benchmarks rely on.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from typing import (
    TYPE_CHECKING, Callable, Iterable, List, NamedTuple, Optional, Set, Tuple, cast,
)

from repro.core import snapshot as snapshots
from repro.core.clock import StreamClock
from repro.core.errors import (
    ConfigurationError,
    EngineStateError,
    SnapshotError,
)
from repro.core.event import (
    Event,
    Punctuation,
    StreamElement,
    admission_error,
    malformed_reason,
)
from repro.core.negation import (
    collect_kleene, compile_seal_point, compile_violated, PendingMatches,
)
from repro.core.pattern import Match, Pattern
from repro.core.purge import PurgeMode, PurgePolicy, Purger
from repro.core.scan import SequenceScanner
from repro.core.construction import SequenceConstructor
from repro.core.shedding import ShedMode, ShedPolicy
from repro.core.speculate import (
    RETRACT_EMPTY_KLEENE,
    RETRACT_NEGATION,
    Retraction,
    SpeculationLog,
    SpeculativeEmission,
)
from repro.core.stacks import _INF, Instance, NegativeStore, StackSet
from repro.core.stats import EngineStats

if TYPE_CHECKING:
    from repro.core.colbatch import EventBatch


class ValidationPolicy(enum.Enum):
    """What to do with a malformed stream element at admission.

    Events built through :class:`~repro.core.event.Event` are validated
    at construction, but elements deserialised from the network or a
    damaged trace can carry negative/NaN/non-int timestamps or a missing
    type — shapes that would silently corrupt timestamp-ordered state
    (heap order in reorder buffers, bisect positions in sorted stacks).
    Every engine therefore screens admissions
    (:func:`~repro.core.event.malformed_reason`); this policy decides
    the response.  Set ``engine.validation`` before feeding.
    """

    RAISE = "raise"  #: raise StreamError (default: fail fast)
    QUARANTINE = "quarantine"  #: count in stats.events_quarantined and skip


class EmissionRecord(NamedTuple):
    """Bookkeeping for one emitted match (drives the latency metrics)."""

    match: Match
    emitted_seq: int  #: engine arrival index at emission time
    emitted_clock: int  #: stream clock (max occurrence ts) at emission time


#: ``_new_record(EmissionRecord, fields)``: a record without the
#: namedtuple's Python-level ``__new__``.
_new_record = cast(Callable[..., EmissionRecord], tuple.__new__)


class Engine:
    """Common engine surface shared by every strategy in this library.

    Each engine has exactly one step loop, :meth:`_run`; the public
    ``feed`` / ``feed_batch`` / ``feed_colbatch`` are thin drivers of it
    and are not overridden.  The out-of-order, in-order and reordering
    engines implement :meth:`_run` as one fused loop; the delegating
    partitioned engine inherits the plain loop
    below and implements :meth:`_process_event`.  All may extend
    :meth:`_on_punctuation` / :meth:`_flush`.  The shared surface keeps
    the bench harness strategy-agnostic.
    """

    def __init__(self, pattern: Pattern) -> None:
        self.pattern = pattern
        self.stats = EngineStats()
        #: Matches emitted and not yet taken (see :meth:`take_emissions`);
        #: the whole run's output for a caller that never takes.
        self.results: List[Match] = []
        self.emissions: List[EmissionRecord] = []
        self.validation = ValidationPolicy.RAISE
        self._arrival = 0
        self._closed = False
        # Observability bundle (repro.obs.hooks.Observability), attached
        # via enable_observability().  None by default: the disabled hot
        # path pays exactly one attribute check per call.
        self._obs = None

    # -- public API ------------------------------------------------------------

    def feed(self, element: StreamElement) -> List[Match]:
        """Process one stream element; returns matches emitted *now*."""
        if self._closed:
            raise EngineStateError(f"{type(self).__name__} is closed")
        if self._obs is not None:
            return self._drive((element,))
        if isinstance(element, Event):
            return self._run((element,))
        return self._feed_punctuation(element)

    def feed_batch(self, elements: Iterable[StreamElement]) -> List[Match]:
        """Process a batch of elements; returns matches emitted during it.

        Identical to ``for x in elements: feed(x)`` — emissions,
        counters, state trajectory, even exceptions (the batch property
        suite and the golden trajectories pin this) — because both run
        the same loop; a batch merely pays the loop's set-up once.
        """
        return self._drive(elements)

    def feed_colbatch(self, batch: EventBatch) -> List[Match]:
        """Process a columnar :class:`~repro.core.colbatch.EventBatch`.

        Identical to ``feed_batch(batch.to_events())``.
        """
        return self._drive(batch.to_events())

    def _drive(self, elements: Iterable[StreamElement]) -> List[Match]:
        if self._closed:
            raise EngineStateError(f"{type(self).__name__} is closed")
        obs = self._obs
        if obs is None:
            return self._run(elements)
        return obs.feed_batch(self, elements)

    def _run(self, elements: Iterable[StreamElement]) -> List[Match]:
        """The step loop: screen, count and process each element in turn.

        This plain form hands each event to :meth:`_process_event`.
        """
        emitted: List[Match] = []
        stats = self.stats
        for element in elements:
            if not isinstance(element, Event):
                emitted.extend(self._feed_punctuation(element))
            elif malformed_reason(element) is None:
                self._arrival += 1
                stats.events_in += 1
                emitted.extend(self._process_event(element))
                stats.note_state_size(self.state_size())
            elif self.validation is ValidationPolicy.QUARANTINE:
                stats.events_quarantined += 1
            else:
                raise admission_error(element)
        return emitted

    def _feed_punctuation(self, element: StreamElement) -> List[Match]:
        """Screen, count and apply one non-event element.

        ``feed`` calls this directly: a lone punctuation should not pay
        for a fused loop's set-up.
        """
        if malformed_reason(element) is not None:
            if self.validation is ValidationPolicy.QUARANTINE:
                self.stats.events_quarantined += 1
                return []
            raise admission_error(element)
        self.stats.punctuations_in += 1
        emitted = self._on_punctuation(element)
        self.stats.note_state_size(self.state_size())
        return emitted

    def close(self) -> List[Match]:
        """End of stream: release everything still pending, then seal the engine."""
        if self._closed:
            return []
        emitted = self._flush()
        self._closed = True
        if self._obs is not None:
            self._obs.after_close(self, emitted)
        return emitted

    def run(self, elements: Iterable[StreamElement]) -> List[Match]:
        """feed_batch + close in one call; returns the complete result list."""
        emitted = self.feed_batch(elements)
        emitted.extend(self.close())
        return emitted

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def arrival_index(self) -> int:
        """Number of events fed so far (the engine's logical arrival clock)."""
        return self._arrival

    def result_set(self) -> Set[Tuple]:
        """Identity set of emitted matches, for oracle comparison."""
        return {m.key() for m in self.results}

    def take_emissions(self) -> List[EmissionRecord]:
        """Hand over the emission records accumulated since the last take.

        Matches are output, not state: ``feed`` returns them, and a
        receiver that has passed them on (a delivery log, a wrapping
        engine, a sink) takes them so the engine forgets them —
        :attr:`results` and :attr:`emissions` become empty and the next
        :meth:`snapshot` covers live state only.  ``stats.matches_emitted``
        and the arrival index keep counting across takes.
        """
        taken = self.emissions
        self.results = []
        self.emissions = []
        return taken

    def state_size(self) -> int:
        """Total retained state in instances/events (memory experiments)."""
        raise NotImplementedError

    # -- observability -----------------------------------------------------------

    def enable_observability(self, tracer=None, metrics=None):
        """Attach lifecycle tracing and/or a metrics registry.

        *tracer* is a :class:`repro.obs.Tracer` (or None for metrics
        only); *metrics* is a :class:`repro.obs.MetricsRegistry` (or
        None for tracing only).  Returns the attached bundle.  Every
        feeding surface, ``feed`` included, then drives the same step
        loop through the bundle's one instrumented driver — one element
        per call when tracing, a batch per call with metrics alone —
        with observably identical results and counters, at instrumented
        cost.
        """
        from repro.obs.hooks import Observability

        self._obs = Observability(self, tracer=tracer, registry=metrics)
        return self._obs

    @property
    def observability(self):
        """The attached bundle, or None when running uninstrumented."""
        return self._obs

    # -- checkpoint / restore ----------------------------------------------------

    def snapshot(self) -> bytes:
        """Serialise the engine's full deterministic state.

        That is live state (stacks, stores, pending matches, clocks,
        counters) plus whatever emissions have not been taken: output a
        receiver took (:meth:`take_emissions`) belongs to the receiver's
        log, so a checkpoint costs what is live, not the run's history.

        A fresh engine constructed with the *same configuration* (same
        pattern, K, policies) and then :meth:`restore`\\ d from the blob
        behaves byte-identically on every subsequent element — same
        emissions, same counters, same state trajectory.  The pattern
        itself is not serialised (predicates may be closures); only its
        fingerprint travels, verified at restore time.
        """
        return snapshots.pack(self, self._snapshot_config(), self._snapshot_state())

    def restore(self, blob: bytes) -> None:
        """Load state from :meth:`snapshot`.

        Raises :class:`~repro.core.errors.SnapshotError` when the blob
        is corrupt or was taken from a different engine class or
        configuration.
        """
        self._restore_state(snapshots.unpack(self, blob))

    def _snapshot_config(self) -> dict:
        """Construction-time identity, verified (not restored) on restore."""
        return {
            "pattern": snapshots.pattern_fingerprint(self.pattern),
            "validation": self.validation.value,
        }

    def _snapshot_state(self) -> dict:
        raise NotImplementedError(
            f"{type(self).__name__} does not support snapshot/restore"
        )

    def _restore_state(self, state: dict) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} does not support snapshot/restore"
        )

    def _base_state(self) -> dict:
        """State every engine shares: flow counters and untaken emissions."""
        state = {
            "arrival": self._arrival,
            "closed": self._closed,
            "stats": self.stats.as_dict(),
            "results": [snapshots.encode_match(m) for m in self.results],
            "emissions": [(r.emitted_seq, r.emitted_clock) for r in self.emissions],
        }
        # Metrics ride along so a crash-recovered engine resumes its
        # counters and histograms, not just its match state.
        if self._obs is not None and self._obs.registry is not None:
            state["metrics"] = self._obs.registry.snapshot_state()
        return state

    def _restore_base(self, state: dict) -> None:
        self._arrival = state["arrival"]
        self._closed = state["closed"]
        self.stats.restore_from(state["stats"])
        self.results = [self._decode_match(s) for s in state["results"]]
        if len(state["emissions"]) != len(self.results):
            raise SnapshotError(
                "snapshot is internally inconsistent: "
                f"{len(state['emissions'])} emission records for "
                f"{len(self.results)} results"
            )
        self.emissions = [
            EmissionRecord(match, seq, clk)
            for match, (seq, clk) in zip(self.results, state["emissions"])
        ]
        # Restore in place: handles registered before the snapshot was
        # taken (by this engine, the runner, the shed policy) stay valid.
        if self._obs is not None and self._obs.registry is not None:
            if "metrics" in state:
                self._obs.registry.restore_state(state["metrics"])

    def _decode_match(self, encoded: dict) -> Match:
        return snapshots.decode_match(self.pattern, encoded)

    # -- subclass hooks ----------------------------------------------------------

    def _process_event(self, event: Event) -> List[Match]:
        """Per-event work of the families that inherit the plain :meth:`_run`."""
        raise NotImplementedError

    def _on_punctuation(self, punctuation: Punctuation) -> List[Match]:
        return []

    def _flush(self) -> List[Match]:
        return []

    def _emit(self, match: Match, clock_now: int) -> None:
        self.results.append(match)
        self.emissions.append(
            _new_record(EmissionRecord, (match, self._arrival, clock_now))
        )
        self.stats.matches_emitted += 1


class OutOfOrderEngine(Engine):
    """Native out-of-order SSC engine (the paper's proposal).

    Parameters
    ----------
    pattern:
        The compiled query.
    k:
        Disorder bound: an event with occurrence time ``t`` is promised
        to arrive while ``max_seen_ts <= t + k``.  ``None`` disables the
        K promise (state is retained until punctuated or closed).
    purge:
        Purge schedule (default eager).  A fresh default is created per
        engine — policies hold schedule state and must not be shared.
    optimize_scan / optimize_construction:
        The paper's CPU optimisations; disable for ablation (E6).
    index:
        Equality-index pushdown for construction (E19): stacks for
        steps joined by attribute equality maintain value → posting
        list indexes, and construction fetches candidates by hash
        probe instead of range scan.  Disable for ablation; results
        are identical either way.
    shed:
        Optional :class:`~repro.core.shedding.ShedPolicy`: when the
        retained store size (stacks + side stores) exceeds the policy's
        bound after an element is processed, stored elements are shed —
        lossy but bounded degradation instead of unbounded growth.  Shed
        casualties are counted in ``stats.events_shed``.
    speculative:
        Opt-in optimistic mode (``repro.core.speculate``): matches with
        unsealed brackets are additionally emitted into a speculative
        side stream the moment construction completes, and a retraction
        record is issued if the seal-time decision later disagrees.  The
        sealed output (``results`` / ``emissions``) is byte-identical
        to a non-speculative run — the speculative stream is strictly
        additive.  This is the library's one optimistic mode; its
        receiver takes the records with :meth:`take_speculation`.
    controller:
        Optional quality-driven bound policy
        (:class:`~repro.streams.controller.AdaptiveKController`): fed
        every arrival, consulted at each punctuation boundary, where it
        may re-freeze K (via :meth:`StreamClock.refreeze`, horizon kept
        monotone) and toggle speculation.  Cloned at attachment, so one
        configured instance can parameterise many engines.
    """

    def __init__(
        self,
        pattern: Pattern,
        k: Optional[int] = None,
        purge: Optional[PurgePolicy] = None,
        optimize_scan: bool = True,
        optimize_construction: bool = True,
        index: bool = True,
        shed: Optional[ShedPolicy] = None,
        speculative: bool = False,
        controller=None,
    ) -> None:
        super().__init__(pattern)
        if shed is not None and not isinstance(shed, ShedPolicy):
            raise ConfigurationError(f"shed must be a ShedPolicy, got {shed!r}")
        if controller is not None and not (
            callable(getattr(controller, "observe", None))
            and callable(getattr(controller, "refreeze", None))
            and callable(getattr(controller, "clone", None))
        ):
            raise ConfigurationError(
                f"controller must provide observe/refreeze/clone, got {controller!r}"
            )
        self._initial_k = k
        self.speculation = SpeculationLog() if speculative else None
        # Cloned like the purge policy: controllers hold decision state.
        self._controller = controller.clone() if controller is not None else None
        if k is None and self._controller is not None:
            # A controller manages a concrete bound; start from its
            # cold-start recommendation rather than "no promise".
            k = self._controller.recommended_k()
        self.clock = StreamClock(k)
        self.shed = shed
        # Cloned: due() mutates schedule state, so engines must not share
        # the caller's policy object (see PurgePolicy.clone).
        self.purge_policy = (purge if purge is not None else PurgePolicy.eager()).clone()
        self.scanner = SequenceScanner(pattern, optimize=optimize_scan)
        self.constructor = SequenceConstructor(
            pattern, optimize=optimize_construction, index=index
        )
        # Stacks index exactly the attributes the construction plan will
        # probe (None when the plan uses no lookups — plain stacks then).
        self.stacks = StackSet(
            pattern.length, indexed_attrs=self.constructor.indexed_attrs
        )
        self.negatives = NegativeStore(pattern.negated_types)
        # Kleene elements live in their own ts-sorted store, consulted at
        # seal time exactly like negatives (same retention proof).
        self.kleene_store = NegativeStore(pattern.kleene_types)
        self.pending = PendingMatches()
        self.purger = Purger(pattern.within, pattern.length)
        #: The stores as the purge routine takes them (``Purger.resolve``).
        self._purge_entries = self.purger.resolve(
            self.stacks.stacks, (self.negatives, self.kleene_store)
        )
        #: Smallest horizon at which anything stored becomes purgeable, kept
        #: exact at every store mutation: a due purge below it is skipped.
        self._next_expiry = self.purger.next_expiry(*self._purge_entries)
        self._seal_point = compile_seal_point(pattern)
        self._violated = compile_violated(pattern)

    # -- state -------------------------------------------------------------------

    def state_size(self) -> int:
        return (
            self.stacks.size()
            + self.negatives.size()
            + self.kleene_store.size()
            + len(self.pending)
        )

    def take_speculation(self) -> Tuple[List[SpeculativeEmission], List[Retraction]]:
        """Hand over the speculative records issued since the last take.

        The speculative stream is output, like matches (see
        :meth:`take_emissions`): returns ``(emissions, retractions)`` and
        clears both from :attr:`speculation`, so the next :meth:`snapshot`
        carries the untaken records plus the ones still awaiting their
        seal.  A take changes no counter, epoch, seal decision or sealed
        output.  ``([], [])`` when the engine is not speculative.
        """
        if self.speculation is None:
            return [], []
        return self.speculation.take()

    # -- checkpoint / restore -----------------------------------------------------

    def _snapshot_config(self) -> dict:
        config = super()._snapshot_config()
        config.update(
            {
                # Construction-time K: with a controller attached the
                # *live* bound is state (clock carries it), not identity.
                "k": self._initial_k,
                # Kept so snapshot bytes match those written while the
                # late policy was configurable; "drop" is the only one.
                "late_policy": "drop",
                "purge": (self.purge_policy.mode.value, self.purge_policy.interval),
                "optimize_scan": self.scanner.optimize,
                "optimize_construction": self.constructor.optimize,
                "index": self.constructor.index,
                "shed": self.shed.fingerprint() if self.shed is not None else None,
                "speculative": self.speculation is not None,
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
                "purge_policy": self.purge_policy.snapshot_state(),
                "stacks": self.stacks.snapshot_state(),
                "negatives": self.negatives.snapshot_state(),
                "kleene": self.kleene_store.snapshot_state(),
                "pending": self.pending.snapshot_state(snapshots.encode_match),
            }
        )
        if self.speculation is not None:
            state["speculation"] = self.speculation.snapshot_state(
                snapshots.encode_match
            )
        if self._controller is not None:
            state["controller"] = self._controller.snapshot_state()
        return state

    def _restore_state(self, state: dict) -> None:
        self._restore_base(state)
        self.clock.restore_state(state["clock"])
        self.purge_policy.restore_state(state["purge_policy"])
        self.stacks.restore_state(state["stacks"])
        self.negatives.restore_state(state["negatives"])
        self.kleene_store.restore_state(state["kleene"])
        self.pending.restore_state(state["pending"], self._decode_match)
        # Config equality (verified by unpack) guarantees these keys
        # exist exactly when the components do.
        if self.speculation is not None:
            self.speculation.restore_state(state["speculation"], self._decode_match)
        if self._controller is not None:
            self._controller.restore_state(state["controller"])
        self._next_expiry = self.purger.next_expiry(*self._purge_entries)

    # -- load shedding ------------------------------------------------------------

    def _shed_overflow(self) -> int:
        """Shed stored elements down to the configured bound; returns the count.

        Runs after each processed element when a :class:`ShedPolicy` is
        configured.  Purely a function of retained state and the policy,
        so shed engines stay deterministic (and snapshot-restorable).
        Pending matches are results-in-waiting, not reconstructible
        store state, so they are never shed and do not count against the
        bound.
        """
        policy = self.shed
        stored = self.stacks.size() + self.negatives.size() + self.kleene_store.size()
        excess = stored - policy.max_state
        if excess <= 0:
            return 0
        shed = 0
        # Victim preview is tracing-only: the uninstrumented path never
        # materialises these lists.
        collect = self._obs is not None and self._obs.tracing
        casualties: List[Event] = []
        if policy.mode is ShedMode.DROP_BY_TYPE:
            for victim in policy.victims:
                if excess <= 0:
                    break
                for index, step in enumerate(self.pattern.positive_steps):
                    if excess > 0 and step.etype == victim:
                        if collect:
                            casualties.extend(self.stacks[index].oldest_events(excess))
                        dropped = self.stacks[index].drop_oldest(excess)
                        shed += dropped
                        excess -= dropped
                if excess > 0:
                    if collect:
                        casualties.extend(self.negatives.oldest_events(victim, excess))
                    dropped = self.negatives.drop_oldest(victim, excess)
                    shed += dropped
                    excess -= dropped
                if excess > 0:
                    if collect:
                        casualties.extend(
                            self.kleene_store.oldest_events(victim, excess)
                        )
                    dropped = self.kleene_store.drop_oldest(victim, excess)
                    shed += dropped
                    excess -= dropped
        # DROP_OLDEST, and the fallback when the victim types alone
        # cannot meet the bound: repeatedly drop the globally oldest
        # stored element (closest to its purge threshold, so the least
        # expected future-match loss).
        while excess > 0:
            best_key = None
            victim_stack = None
            victim_store = None
            victim_type = None
            for stack in self.stacks:
                if len(stack) and (best_key is None or stack._keys[0] < best_key):
                    best_key = stack._keys[0]
                    victim_stack, victim_store = stack, None
            for store in (self.negatives, self.kleene_store):
                entry = store.oldest_type()
                if entry is not None and (best_key is None or entry[0] < best_key):
                    best_key, victim_stack = entry[0], None
                    victim_store, victim_type = store, entry[1]
            if best_key is None:
                break
            if victim_stack is not None:
                if collect:
                    casualties.extend(victim_stack.oldest_events(1))
                shed += victim_stack.drop_oldest(1)
            else:
                if collect:
                    casualties.extend(victim_store.oldest_events(victim_type, 1))
                shed += victim_store.drop_oldest(victim_type, 1)
            excess -= 1
        self.stats.events_shed += shed
        if shed:
            self._next_expiry = self.purger.next_expiry(*self._purge_entries)
        if collect and casualties:
            self._obs.note_shed(self, casualties)
        return shed

    # -- processing ----------------------------------------------------------------

    def _on_punctuation(self, punctuation: Punctuation) -> List[Match]:
        self.clock.observe_punctuation(punctuation)
        emitted: List[Match] = []
        self._release_ripe(emitted)
        if self.purge_policy.due():
            if self._obs is not None:
                self._obs.note_purge(self)
            horizon = self.clock.horizon()
            dropped, side_dropped, self._next_expiry = self.purger.cut(
                horizon, *self._purge_entries
            )
            if horizon >= 0:
                self.stats.purge_runs += 1
                self.stats.instances_purged += dropped
                self.stats.negatives_purged += side_dropped
        if self.shed is not None:
            self._shed_overflow()
        if self._controller is not None:
            self._refreeze(punctuation, emitted)
        if self.speculation is not None:
            # The punctuation closes a re-freeze epoch; later records
            # carry the new epoch id.
            self.speculation.epoch += 1
        return emitted

    def _refreeze(self, punctuation: Punctuation, emitted: List[Match]) -> None:
        """Apply the controller's end-of-epoch decision."""
        decision = self._controller.refreeze(
            punctuation.ts, self.clock.k, self.stats
        )
        if decision is None:
            return
        if decision.k != self.clock.k:
            before = self.clock.horizon()
            self.clock.refreeze(decision.k)
            if self.clock.horizon() > before:
                # A shrunk bound seals immediately, not at the next
                # arrival — that advance is the latency the controller
                # is buying.
                self._release_ripe(emitted)
        if self.speculation is not None:
            self.speculation.enabled = decision.speculate
        if self._obs is not None:
            self._obs.note_refreeze(self, decision)

    # -- the step loop --------------------------------------------------------------

    def _run(self, elements: Iterable[StreamElement]) -> List[Match]:
        """The engine's one step loop (steps 1-6 of the module docstring).

        Every feeding surface runs this body, so a batch and the same
        elements fed one at a time are identical by construction; what a
        batch saves is the set-up below, paid once per call:

        * attribute lookups, clock arithmetic and purge scheduling are
          hoisted into locals (per call: ``restore`` rebinds the pending
          heap; stores refill theirs in place, so purge entries last);
        * admission uses the scanner's pre-resolved per-type dispatch
          table;
        * a due purge below the next expiry (the smallest horizon at
          which anything stored becomes purgeable; every insert lowers
          it, every cut recomputes it) is only counted, and the release
          is skipped unless the earliest pending seal point is at or
          below the horizon;
        * the state-size high-water mark is tracked incrementally
          instead of re-summing every store.

        Shedding, the adaptive-K controller and purge tracing are
        optional steps of this loop, each behind one hoisted
        ``is not None`` test.
        """
        emitted: List[Match] = []
        stats = self.stats
        clock = self.clock
        pattern = self.pattern
        scanner = self.scanner
        stacks = self.stacks
        stack_list = stacks.stacks
        negatives = self.negatives
        kleene = self.kleene_store
        # Aliased: purge_through / drop_oldest cut these key lists in place.
        stack_entries, side_entries = self._purge_entries
        stack_keys = [entry[0] for entry in stack_entries]
        cut = self.purger.cut
        pending_heap = self.pending._heap
        purge_policy = self.purge_policy
        probe = scanner.optimize
        probes = scanner.probes
        below = -_INF  # sorts before every eid at the probe's ts
        construct = self.constructor.construct
        route = self._route
        dispatch = scanner.dispatch()
        relevant_types = pattern.relevant_types
        # The stores hold exactly these types (engine constructor).
        negated_types = pattern.negated_types
        kleene_types = pattern.kleene_types
        neg_insert = negatives.insert
        kleene_insert = kleene.insert
        window = pattern.within
        delays = [delay for _, _, delay in stack_entries]
        purge_mode = purge_policy.mode
        purge_eager = purge_mode is PurgeMode.EAGER
        purge_lazy = purge_mode is PurgeMode.LAZY
        purge_interval = purge_policy.interval
        since_last = purge_policy._since_last
        quarantine = self.validation is ValidationPolicy.QUARANTINE
        quarantined = 0
        # Optional steps.
        controller = self._controller
        shed_overflow = self._shed_overflow if self.shed is not None else None
        obs = self._obs
        note_purge = obs.note_purge if obs is not None and obs.tracing else None
        # A bracketless pattern's match has nothing to seal (its seal point,
        # -1, is never above the horizon): unless something watches the
        # routing calls, it goes straight to ``_emit``.
        emit = self._emit
        unrouted = (
            not pattern.negations and not pattern.kleene
            and self.speculation is None and obs is None
        )
        # Clock state, mirrored locally; writes go through so emission
        # bookkeeping (clock.now at _decide time) stays exact.
        k = clock.k
        max_ts = clock._max_ts
        observations = 0
        horizon = clock.horizon()
        next_expiry = self._next_expiry
        # Incremental state-size tracking for the peak high-water mark.
        store_size = sum(map(len, stack_keys)) + sum(
            [len(entry[0]) for entry in side_entries]
        )
        peak = stats.peak_state_size
        # Flow counters, accumulated locally and flushed on exit.
        events_in = events_admitted = events_ignored = 0
        late_dropped = out_of_order = skipped_by_probe = 0
        purge_runs = instances_purged = side_purged = 0
        try:
            for element in elements:
                if isinstance(element, Event):
                    ts = element.ts
                    etype = element.etype
                    # Inlined admission screen (mirrors malformed_reason).
                    if (
                        type(ts) is not int
                        or ts < 0
                        or not isinstance(etype, str)
                        or not etype
                    ):
                        if quarantine:
                            quarantined += 1
                            continue
                        raise admission_error(element)
                    self._arrival += 1
                    events_in += 1
                    if controller is not None:
                        # Before lateness triage: the estimator must see
                        # the delays the current bound drops, or K could
                        # never grow out of an under-provisioned start.
                        controller.observe(element)
                    if ts <= horizon:
                        late_dropped += 1
                        continue
                    observations += 1
                    if ts > max_ts:
                        max_ts = ts
                        clock._max_ts = ts
                        if k is not None:
                            advanced = ts - k - 1
                            if advanced > horizon:
                                horizon = advanced
                    elif ts < max_ts:
                        out_of_order += 1

                    if etype not in relevant_types:
                        events_ignored += 1
                    else:
                        side_stored = False
                        if etype in negated_types:
                            neg_insert(element)
                            side_stored = True
                            store_size += 1
                        if etype in kleene_types:
                            kleene_insert(element)
                            side_stored = True
                            store_size += 1
                        # Every insert lowers the next expiry to its own.
                        if side_stored and ts + window < next_expiry:
                            next_expiry = ts + window
                        admitted = False
                        entries = dispatch.get(etype)
                        if entries:
                            instance = None
                            for step_index, var, predicates in entries:
                                if predicates:
                                    bindings = {var: element}
                                    ok = True
                                    for predicate in predicates:
                                        if not predicate.evaluate(bindings):
                                            ok = False
                                            break
                                    if not ok:
                                        continue
                                if instance is None:
                                    instance = Instance(element, self._arrival)
                                admitted = True
                                stack_list[step_index].insert(instance)
                                store_size += 1
                                expiry = ts + delays[step_index]
                                if expiry < next_expiry:
                                    next_expiry = expiry
                                ok = True
                                if probe:
                                    for j, lo, hi in probes[step_index]:
                                        keys = stack_keys[j]
                                        index = bisect_left(keys, (ts + lo, below))
                                        if index >= len(keys) or keys[index][0] > ts + hi:
                                            ok = False
                                            skipped_by_probe += 1
                                            break
                                if ok:
                                    for match in construct(
                                        stacks, step_index, instance, stats
                                    ):
                                        if unrouted:
                                            emit(match, max_ts)
                                            emitted.append(match)
                                        else:
                                            route(match, emitted, horizon)
                        if admitted or side_stored:
                            events_admitted += 1
                        else:
                            events_ignored += 1

                    # Skipping a release that would pop nothing is safe:
                    # ``stats.matches_pending`` is kept at every transition.
                    if pending_heap and pending_heap[0][0] <= horizon:
                        self._release_ripe(emitted)
                    if purge_eager:
                        due = True
                    elif purge_lazy:
                        since_last += 1
                        due = since_last >= purge_interval
                        if due:
                            since_last = 0
                    else:
                        due = False
                    if due and horizon >= 0:
                        # Below the next expiry the cut would drop nothing:
                        # count the run, skip the call (unless a tracer
                        # watches purges).
                        if horizon >= next_expiry or note_purge is not None:
                            if note_purge is not None:
                                note_purge(self)
                            dropped, side_dropped, next_expiry = cut(
                                horizon, stack_entries, side_entries
                            )
                            instances_purged += dropped
                            side_purged += side_dropped
                            store_size -= dropped + side_dropped
                        purge_runs += 1
                    if shed_overflow is not None:
                        shed = shed_overflow()
                        if shed:
                            store_size -= shed
                            next_expiry = self._next_expiry
                    size_now = store_size + len(pending_heap)
                    if size_now > peak:
                        peak = size_now
                else:
                    if malformed_reason(element) is not None:
                        if quarantine:
                            quarantined += 1
                            continue
                        raise admission_error(element)
                    # Punctuations are rare: hand the callee the state it
                    # reads (the controller's re-freeze consults the live
                    # flow counters), then resynchronise the hoisted locals.
                    stats.punctuations_in += 1
                    stats.events_in += events_in
                    stats.late_dropped += late_dropped
                    events_in = late_dropped = 0
                    clock._observations += observations
                    observations = 0
                    purge_policy._since_last = since_last
                    self._next_expiry = next_expiry
                    emitted.extend(self._on_punctuation(element))
                    k = clock.k
                    max_ts = clock._max_ts
                    horizon = clock.horizon()
                    since_last = purge_policy._since_last
                    next_expiry = self._next_expiry
                    store_size = stacks.size() + negatives.size() + kleene.size()
                    size_now = store_size + len(pending_heap)
                    if size_now > peak:
                        peak = size_now
        finally:
            clock._observations += observations
            purge_policy._since_last = since_last
            self._next_expiry = next_expiry
            stats.peak_state_size = peak
            stats.events_quarantined += quarantined
            stats.events_in += events_in
            stats.events_admitted += events_admitted
            stats.events_ignored += events_ignored
            stats.late_dropped += late_dropped
            stats.out_of_order_events += out_of_order
            stats.purge_runs += purge_runs
            stats.instances_purged += instances_purged
            stats.negatives_purged += side_purged
            stats.construction_skipped_by_probe += skipped_by_probe
        return emitted

    def _flush(self) -> List[Match]:
        emitted: List[Match] = []
        for match in self.pending.drain():
            self._decide(match, emitted)
        self.stats.matches_pending = 0
        return emitted

    # -- negation routing ----------------------------------------------------------

    def _route(self, match: Match, emitted: List[Match], horizon: int) -> None:
        point = self._seal_point(match.events)
        if point <= horizon:
            self._decide(match, emitted)
        else:
            self.pending.add(match, point)
            self.stats.matches_pending = len(self.pending._heap)
            if self._obs is not None:
                self._obs.note_pending(self, match, point)
            if self.speculation is not None and self.speculation.enabled:
                self._speculate(match)

    def _speculate(self, match: Match) -> None:
        """Optimistically emit a just-parked match into the speculative stream.

        Speculation the stores already refute is suppressed — emitting a
        match whose bracket is known-violated would be a guaranteed
        retraction.  The store probes pass ``stats=None`` deliberately:
        speculative work must not perturb the pessimistic counters, so a
        speculative run stays comparable to a plain one.
        """
        if self._violated is not None and self._violated(
            match.events, self.negatives, None
        ):
            return
        payload = match
        if self.pattern.has_kleene:
            collections = collect_kleene(
                self.pattern, match, self.kleene_store, None
            )
            if collections is None:
                return
            payload = match.with_collections(collections)
        record = self.speculation.speculate(payload, self._arrival, self.clock.now)
        self.stats.speculative_emitted += 1
        if self._obs is not None:
            self._obs.note_speculated(self, record)

    def _retract(self, match: Match, cause: str) -> None:
        retraction = self.speculation.retract(
            match, cause, self._arrival, self.clock.now
        )
        if retraction is not None:
            self.stats.retractions_issued += 1
            if self._obs is not None:
                self._obs.note_retracted(self, retraction)

    def _seal_speculation(self, match: Match) -> None:
        outcome = self.speculation.seal(match, self._arrival, self.clock.now)
        if outcome.retraction is not None:
            self.stats.retractions_issued += 1
            if self._obs is not None:
                self._obs.note_retracted(self, outcome.retraction)
        if outcome.fresh:
            self.stats.speculative_emitted += 1
            if self._obs is not None:
                self._obs.note_speculated(self, outcome.record)

    def _decide(self, match: Match, emitted: List[Match]) -> None:
        if self._violated is not None and self._violated(
            match.events, self.negatives, self.stats
        ):
            self.stats.matches_cancelled += 1
            if self.speculation is not None:
                self._retract(match, RETRACT_NEGATION)
            if self._obs is not None:
                self._obs.note_cancelled(self, match, "negation violated at seal")
            return
        if self.pattern.kleene:
            collections = collect_kleene(
                self.pattern, match, self.kleene_store, self.stats
            )
            if collections is None:
                self.stats.matches_cancelled += 1
                if self.speculation is not None:
                    self._retract(match, RETRACT_EMPTY_KLEENE)
                if self._obs is not None:
                    self._obs.note_cancelled(self, match, "empty kleene collection")
                return
            match = match.with_collections(collections)
        if self.speculation is not None:
            self._seal_speculation(match)
        self._emit(match, self.clock._max_ts)  # clock.now
        emitted.append(match)

    def _release_ripe(self, emitted: List[Match]) -> None:
        for match in self.pending.release(self.clock.horizon()):
            self._decide(match, emitted)
        self.stats.matches_pending = len(self.pending._heap)

    def __repr__(self) -> str:
        k = "∞" if self.clock.k is None else self.clock.k
        return (
            f"{type(self).__name__}({self.pattern.name!r}, k={k}, "
            f"clock={self.clock.now}, state={self.state_size()}, "
            f"matches={len(self.results)})"
        )
