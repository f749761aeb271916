"""Pipelined partitioned evaluation with epoch-ordered streaming output.

:class:`~repro.core.partition.ParallelPartitionedEngine` (PR 1) fans
partitions out over a pool, but only at ``close()`` — every partition
is buffered to end of stream and merged behind a global barrier, so it
has no mid-run output surface and its wall clock is bounded by the
slowest partition plus the full buffering phase.  This module adopts
the low-synchronisation ordered-parallelism design of Prasaad et al.
("Scaling Ordered Stream Processing on Shared-Memory Multicores",
PAPERS.md) on top of the columnar batches of
:mod:`repro.core.colbatch`:

* a **router** (the caller's thread) runs the same global-clock
  pre-pass as the serial :class:`PartitionedEngine` — lateness policy,
  key extraction, flow accounting — and appends admitted events to
  per-worker columnar batch builders, flushed to bounded queues;
* **N long-lived workers** (``multiprocessing`` processes by default,
  threads for debugging) each own a stable subset of partitions and run
  their sub-engines *incrementally* as batches arrive, publishing
  emissions tagged with provenance ``(seq, rank, j)``;
* the router's broadcast punctuations double as **epoch markers**: a
  worker acks epoch *e* after feeding the punctuation to its
  partitions, and the router releases epoch *e*'s emissions — in exact
  serial order — once every worker has acked it, so matches stream out
  mid-run instead of at ``close``.

**Exact serial-order reproduction.**  Every element the serial engine
would hand to a sub-engine (admitted event, broadcast punctuation, the
per-partition ``close``) is assigned a global sequence number by the
router; partitions get a dense **rank** in first-seen order (the serial
engine's dict-insertion order), and workers tag each emission with
``(seq, rank, j)`` — *j* the emission's index within that (element,
partition) feed.  Sorting an epoch's emissions by that triple
reconstructs the serial engine's flat emission interleave byte for
byte, at any worker count, on either backend: ``seq`` restores
arrival interleave across partitions, ``rank`` restores the serial
broadcast iteration order (creation order), ``j`` preserves
within-feed order.  Partition→worker placement is ``rank % workers`` —
a pure function of the input stream, never of ``hash()`` — so routing
is reproducible across interpreter launches.

**Determinism of release timing.**  Emissions are released only at
epoch boundaries, gated on acks — release *content and order* are a
pure function of the input stream, which the exactly-once replay
machinery (:mod:`repro.core.recovery`) depends on.  The pipeline runs
one epoch deep: while workers chew epoch *e*, the router is already
building *e + 1*; sealing *e* waits only for *e - 1*.

Emission *records* carry the router's clock at release time (an epoch
later than the serial engine's), exactly as the barrier engine's
records carry the end-of-stream clock — ``results`` content and order
are identical, latency metadata is the honest pipelined timing.
"""

from __future__ import annotations

import queue as queue_mod
from typing import Any, Dict, List, Optional, Tuple

from repro.core import snapshot as snapshots
from repro.core.colbatch import BatchBuilder, EventBatch
from repro.core.engine import LatePolicy, OutOfOrderEngine
from repro.core.errors import (
    ConfigurationError,
    DisorderBoundViolation,
    EngineStateError,
    SnapshotError,
)
from repro.core.event import Event, Punctuation
from repro.core.partition import (
    PartitionedEngine,
    require_picklable_pattern,
)
from repro.core.pattern import Match, Pattern
from repro.core.purge import PurgePolicy
from repro.core.stats import EngineStats
from repro.streams.punctuation import EpochLedger

#: Queue poll interval — every blocking get/put re-checks worker
#: liveness at this period so a dead worker surfaces as a descriptive
#: error instead of a hang.
_POLL = 1.0


class _PipelineRuntime:
    """Per-run transport and worker plumbing for the pipelined router.

    One bundle for everything that exists only while workers run:
    batch builders, worker processes/threads and their inboxes, the
    shared outbox (plus the multiprocessing context that created it),
    per-worker epoch acks, restore payloads awaiting adoption by a
    spawn, and the quiesce-barrier serial.  None of it is picklable
    and none of it is logical engine state: a snapshot *drains* the
    runtime through the sync barrier (builders flush, workers answer
    with their partition states) rather than capturing it, and a
    restore builds a fresh bundle whose acks floor at the restored
    epoch and whose pending payloads come from the snapshot's
    partitions.
    """

    def __init__(self, workers: int, acked_floor: int = -1):
        self.builders: List[Optional[BatchBuilder]] = [None] * workers
        self.procs: List = [None] * workers
        self.inboxes: List = [None] * workers
        self.outbox = None
        self.mp = None  # multiprocessing context, created with the outbox
        self.acked: List[int] = [acked_floor] * workers
        self.pending_init: List[Optional[list]] = [None] * workers  # restore
        self.sync_serial = 0


def _build_sub_engine(pattern, k, purge_mode, purge_interval, late_policy, index):
    """One partition's engine, exactly as ``PartitionedEngine`` builds it."""
    purge = None
    if purge_mode is not None:
        purge = PurgePolicy(purge_mode, purge_interval)
    return OutOfOrderEngine(
        pattern, k=k, purge=purge, late_policy=late_policy, index=index
    )


def _pipeline_worker(wid, inbox, outbox, pattern, k, purge_mode, purge_interval,
                     late_policy, index, instrument):
    """Long-lived worker loop: one stable subset of partitions.

    Protocol (inbox, FIFO):

    ``("init", subs, last_broadcast, epoch_base)``
        Restore ``subs`` = ``[(rank, state-or-None)]`` and adopt the
        router's broadcast watermark and current epoch.  Always first.
    ``("batch", EventBatch)``
        Mixed-partition columnar batch; meta columns ``seq`` (global
        element sequence) and ``rank`` (partition rank) attribute every
        row.  Rows are bucketed by rank and fed to their partition's
        engine with ``feed_colbatch``; emissions go out tagged
        ``(seq, rank, j)``.
    ``("punct", epoch, seq, ts)``
        Epoch marker: feed ``Punctuation(ts)`` to every partition in
        rank order (the serial broadcast order), ack the epoch.
    ``("sync", sync_id)``
        Quiesce point for snapshots: reply with every partition's
        serialised state.  All earlier inbox messages are already
        processed (FIFO), so the states are consistent with every
        emission published so far.
    ``("close", epoch, seq)``
        Close every partition in rank order, publish the final
        emissions plus per-partition stats (and the worker metrics
        registry when instrumented), and exit.

    Outbox messages are ``("out"|"epoch"|"sync"|"error", wid, ...)``;
    a single outbox is shared by all workers — per-producer FIFO order
    is preserved, which the router's release logic relies on.
    """
    try:
        subs: Dict[int, OutOfOrderEngine] = {}
        last_broadcast = -1
        epoch = 0
        registry = None
        if instrument:
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()

        def new_sub(rank: int) -> OutOfOrderEngine:
            sub = _build_sub_engine(
                pattern, k, purge_mode, purge_interval, late_policy, index
            )
            if registry is not None:
                sub.enable_observability(metrics=registry)
            # Catch the new partition up to the last broadcast, exactly
            # as the serial router does at partition creation (return
            # value discarded there too — a blank engine emits nothing).
            if last_broadcast >= 0:
                sub.feed(Punctuation(last_broadcast))
            subs[rank] = sub
            return sub

        while True:
            message = inbox.get()
            kind = message[0]
            if kind == "batch":
                batch: EventBatch = message[1]
                seqs = batch.meta["seq"]
                ranks = batch.meta["rank"]
                by_rank: Dict[int, List[int]] = {}
                for i in range(batch.length):
                    by_rank.setdefault(ranks[i], []).append(i)
                tagged: List[Tuple[int, int, int, dict]] = []
                # Ascending rank keeps within-worker work order stable;
                # output order is fixed by the tags, not by this loop.
                for rank in sorted(by_rank):
                    rows = by_rank[rank]
                    sub = subs.get(rank)
                    if sub is None:
                        sub = new_sub(rank)
                    part = batch.select(rows)
                    marks: List[int] = []
                    emissions = sub.feed_colbatch(part, marks=marks)
                    sub.take_emissions()  # tagged below; the router keeps them
                    start = 0
                    for offset, mark in enumerate(marks):
                        seq = seqs[rows[offset]]
                        for j in range(start, mark):
                            tagged.append(
                                (seq, rank, j - start,
                                 snapshots.encode_match(emissions[j]))
                            )
                        start = mark
                if tagged:
                    outbox.put(("out", wid, epoch, tagged))
            elif kind == "punct":
                _, marker_epoch, seq, ts = message
                punctuation = Punctuation(ts)
                tagged = []
                for rank in sorted(subs):
                    emissions = subs[rank].feed(punctuation)
                    subs[rank].take_emissions()
                    for j, match in enumerate(emissions):
                        tagged.append((seq, rank, j, snapshots.encode_match(match)))
                last_broadcast = max(last_broadcast, ts)
                outbox.put(("epoch", wid, marker_epoch, tagged, None))
                epoch = marker_epoch + 1
            elif kind == "sync":
                _, sync_id = message
                states = [(rank, subs[rank]._snapshot_state())
                          for rank in sorted(subs)]
                outbox.put(("sync", wid, sync_id, states))
            elif kind == "init":
                _, sub_states, last_broadcast, epoch = message
                for rank, state in sub_states:
                    sub = _build_sub_engine(
                        pattern, k, purge_mode, purge_interval, late_policy, index
                    )
                    if registry is not None:
                        sub.enable_observability(metrics=registry)
                    sub._restore_state(state)
                    subs[rank] = sub
            elif kind == "close":
                _, close_epoch, seq = message
                tagged = []
                stats_by_rank = []
                for rank in sorted(subs):
                    sub = subs[rank]
                    for j, match in enumerate(sub.close()):
                        tagged.append((seq, rank, j, snapshots.encode_match(match)))
                    stats_by_rank.append((rank, sub.stats.as_dict()))
                metrics_state = (
                    registry.snapshot_state() if registry is not None else None
                )
                outbox.put(
                    ("epoch", wid, close_epoch, tagged,
                     (stats_by_rank, metrics_state))
                )
                return
            else:
                raise RuntimeError(f"unknown pipeline message {kind!r}")
    except BaseException as exc:  # surface to the router, don't die silently
        import traceback

        try:
            outbox.put(("error", wid, repr(exc), traceback.format_exc()))
        except Exception:
            pass


class PipelinedPartitionedEngine(PartitionedEngine):
    """Partitioned evaluation over long-lived workers with epoch-ordered output.

    With ``workers=1`` this class **is** the serial
    :class:`PartitionedEngine` — every code path delegates, so traces
    are byte-identical.  With ``workers > 1`` the router/worker/merger
    pipeline of the module docstring runs; the sealed output (content
    *and* order) is byte-identical to the serial engine at any worker
    count on either backend, and emissions surface at epoch boundaries
    mid-run rather than at ``close``.

    Parameters
    ----------
    workers:
        Worker count.  ``1`` = serial fallback.
    backend:
        ``"process"`` (default: true parallelism, pattern must be
        picklable) or ``"thread"`` (no pickling constraints; GIL-bound,
        for debugging and tiny batches).
    batch_events:
        Router-side batch builder capacity: a worker's batch is flushed
        when it holds this many events (and always at epoch
        boundaries).  Larger batches amortise queue/pickling overhead
        at the cost of coarser latency.
    queue_depth:
        Bound of each worker's inbox, in messages.  The router blocks
        (pure backpressure — workers never block on their outbox, so
        this cannot deadlock) when a worker falls this far behind.

    Neither ``backend``, ``batch_events`` nor ``queue_depth`` affects
    results; only ``workers`` (serial vs. pipelined state shape) enters
    the snapshot fingerprint.
    """

    def __init__(
        self,
        pattern: Pattern,
        k: Optional[int] = None,
        purge: Optional[PurgePolicy] = None,
        late_policy: LatePolicy = LatePolicy.DROP,
        key: Optional[str] = None,
        punctuate_every: int = 64,
        index: bool = True,
        workers: int = 1,
        backend: str = "process",
        batch_events: int = 256,
        queue_depth: int = 8,
        speculative: bool = False,
        controller=None,
    ):
        super().__init__(
            pattern,
            k=k,
            purge=purge,
            late_policy=late_policy,
            key=key,
            punctuate_every=punctuate_every,
            index=index,
            speculative=speculative,
            controller=controller,
        )
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ConfigurationError(f"workers must be an int >= 1, got {workers!r}")
        if workers > 1 and (speculative or controller is not None):
            raise ConfigurationError(
                "speculative/adaptive modes need live per-partition streams in "
                "the caller's process; use workers=1 (serial) for them"
            )
        if backend not in ("thread", "process"):
            raise ConfigurationError(
                f"backend must be 'thread' or 'process', got {backend!r}"
            )
        if batch_events < 1:
            raise ConfigurationError(
                f"batch_events must be >= 1, got {batch_events}"
            )
        if queue_depth < 1:
            raise ConfigurationError(f"queue_depth must be >= 1, got {queue_depth}")
        if backend == "process" and workers > 1:
            require_picklable_pattern(pattern, backend)
        self.workers = workers
        self.backend = backend
        self.batch_events = batch_events
        self.queue_depth = queue_depth
        # Router state (workers > 1).
        self._seq = 0  # global element sequence (events, markers, close)
        self._epoch = 0  # epoch currently being built
        self._released = -1  # highest epoch whose emissions surfaced
        self._ranks: Dict[Any, int] = {}  # key value -> dense first-seen rank
        self._blocks: Dict[int, List] = {}  # epoch -> tagged emissions
        self._worker_extras: List = []
        self._rt = _PipelineRuntime(workers)
        self.epoch_ledger = EpochLedger()  # seal diagnostics (epoch -> asserted ts)

    # -- worker lifecycle ----------------------------------------------------------

    def _spawned(self, slot: int) -> bool:
        return self._rt.procs[slot] is not None

    def _live_slots(self) -> List[int]:
        return [w for w in range(self.workers) if self._spawned(w)]

    def _ensure_outbox(self):
        if self._rt.outbox is None:
            if self.backend == "process":
                import multiprocessing

                self._rt.mp = multiprocessing.get_context()
                self._rt.outbox = self._rt.mp.Queue()
            else:
                self._rt.mp = None
                self._rt.outbox = queue_mod.Queue()
        return self._rt.outbox

    def _spawn(self, slot: int) -> None:
        outbox = self._ensure_outbox()
        instrument = self._obs is not None and self._obs.registry is not None
        if self.backend == "process":
            inbox = self._rt.mp.Queue(self.queue_depth)
        else:
            inbox = queue_mod.Queue(self.queue_depth)
        args = (
            slot, inbox, outbox, self.pattern, self.k, self._purge_mode,
            self._purge_interval, self.late_policy, self.index, instrument,
        )
        if self.backend == "process":
            proc = self._rt.mp.Process(
                target=_pipeline_worker, args=args, daemon=True
            )
        else:
            import threading

            proc = threading.Thread(
                target=_pipeline_worker, args=args, daemon=True
            )
        self._rt.inboxes[slot] = inbox
        self._rt.procs[slot] = proc
        proc.start()
        init_subs = self._rt.pending_init[slot] or []
        self._rt.pending_init[slot] = None
        # The init ack is implicit: a worker adopting epoch_base=e has,
        # by definition, nothing outstanding before e.
        inbox.put(("init", init_subs, self._last_broadcast, self._epoch))
        self._rt.acked[slot] = self._epoch - 1

    def _slot_for(self, value: Any) -> Tuple[int, int]:
        """(rank, slot) for a partition key value, assigning on first sight."""
        rank = self._ranks.get(value)
        if rank is None:
            rank = self._ranks[value] = len(self._ranks)
        return rank, rank % self.workers

    # -- queue plumbing with liveness checks -----------------------------------------

    def _worker_alive(self, slot: int) -> bool:
        proc = self._rt.procs[slot]
        return proc is not None and proc.is_alive()

    def _raise_worker_death(self, slot: int) -> None:
        raise EngineStateError(
            f"pipeline worker {slot} died without reporting an error "
            "(killed, or crashed before the error path); engine state is "
            "unrecoverable — restore from the last snapshot"
        )

    def _put(self, slot: int, message) -> None:
        inbox = self._rt.inboxes[slot]
        while True:
            try:
                inbox.put(message, timeout=_POLL)
                return
            except queue_mod.Full:
                self._drain()
                if not self._worker_alive(slot):
                    self._drain()
                    self._raise_worker_death(slot)

    def _drain(self) -> None:
        """Absorb pending outbox messages into blocks/acks; never releases."""
        outbox = self._rt.outbox
        if outbox is None:
            return
        while True:
            try:
                message = outbox.get(block=False)
            except queue_mod.Empty:
                return
            self._handle(message)

    def _handle(self, message) -> None:
        kind = message[0]
        if kind == "out":
            _, wid, epoch, tagged = message
            self._blocks.setdefault(epoch, []).extend(tagged)
        elif kind == "epoch":
            _, wid, epoch, tagged, extra = message
            self._blocks.setdefault(epoch, []).extend(tagged)
            self._rt.acked[wid] = epoch
            if extra is not None:
                self._worker_extras.append((wid, extra))
        elif kind == "error":
            _, wid, err, tb = message
            raise EngineStateError(
                f"pipeline worker {wid} failed: {err}\n--- worker traceback ---\n{tb}"
            )
        elif kind == "sync":
            # Handled by _collect_sync; arriving here means a stray
            # reply from a cancelled snapshot — ignore.
            pass

    def _await_epoch(self, target: int) -> None:
        """Block until every live worker has acked *target*."""
        if target < 0:
            self._drain()
            return
        while True:
            live = self._live_slots()
            if all(self._rt.acked[w] >= target for w in live):
                return
            try:
                message = self._rt.outbox.get(timeout=_POLL)
            except queue_mod.Empty:
                for w in live:
                    if self._rt.acked[w] < target and not self._worker_alive(w):
                        self._drain()
                        self._raise_worker_death(w)
                continue
            self._handle(message)

    # -- router ----------------------------------------------------------------------

    def _process_event(self, event: Event) -> List[Match]:
        if self.workers == 1:
            return PartitionedEngine._process_event(self, event)
        emitted: List[Match] = []
        if self.clock.is_late(event):
            self.stats.late_dropped += 1
            if self.late_policy is LatePolicy.RAISE:
                raise DisorderBoundViolation(event, self.clock.now, self.k or 0)
            if self.late_policy is LatePolicy.DROP:
                return emitted
        if self.clock.observe(event):
            self.stats.out_of_order_events += 1

        if event.etype in self.pattern.relevant_types:
            value = event.get(self.key)
            if value is None and self.key not in event:
                self.stats.events_ignored += 1
            else:
                rank, slot = self._slot_for(value)
                builder = self._rt.builders[slot]
                if builder is None:
                    builder = self._rt.builders[slot] = BatchBuilder(("seq", "rank"))
                seq = self._seq
                self._seq = seq + 1
                builder.append(event, (seq, rank))
                if len(builder) >= self.batch_events:
                    self._flush_builder(slot)
                self.stats.events_admitted += 1
        else:
            self.stats.events_ignored += 1

        self._since_punctuation += 1
        if self._since_punctuation >= self.punctuate_every:
            self._broadcast_horizon(emitted)
            self._since_punctuation = 0
        return emitted

    def _flush_builder(self, slot: int) -> None:
        builder = self._rt.builders[slot]
        if builder is None or len(builder) == 0:
            return
        self._rt.builders[slot] = None
        if not self._spawned(slot):
            self._spawn(slot)
        batch = builder.build()
        self._put(slot, ("batch", batch))
        self._note_queue_metrics(slot, batch.length)

    def _flush_all_builders(self) -> None:
        for slot in range(self.workers):
            self._flush_builder(slot)

    def _spawn_restored(self) -> None:
        """Wake every slot still dormant from a restore.

        Markers go to *all* live partitions (the serial broadcast), so
        dormant restored partitions must be live before any boundary.
        """
        for slot in range(self.workers):
            if self._rt.pending_init[slot] and not self._spawned(slot):
                self._spawn(slot)

    def _boundary(self, ts: int) -> List[Match]:
        """Seal the current epoch at punctuation time *ts*.

        Flush → marker → await the *previous* epoch → release it: the
        pipeline stays one epoch deep, and release timing is a pure
        function of the input stream (exactly-once replay depends on
        that).

        Spawns and builder flushes run *before* ``_last_broadcast``
        advances (callers update it after): a worker spawned here must
        adopt the watermark the flushed rows were admitted under, or it
        would catch new partitions up past events still in its inbox.
        """
        emitted: List[Match] = []
        self._spawn_restored()
        self._flush_all_builders()
        sealing = self._epoch
        self.epoch_ledger.seal(ts)
        seq = self._seq
        self._seq = seq + 1
        for slot in self._live_slots():
            self._put(slot, ("punct", sealing, seq, ts))
        self._epoch = sealing + 1
        self._await_epoch(sealing - 1)
        self._release_through(sealing - 1, emitted)
        self._note_epoch_metrics()
        return emitted

    def _broadcast_horizon(self, emitted: List[Match]) -> None:
        if self.workers == 1:
            PartitionedEngine._broadcast_horizon(self, emitted)
            return
        horizon = self.clock.horizon()
        if horizon <= self._last_broadcast or horizon < 0:
            return
        emitted.extend(self._boundary(horizon))
        self._last_broadcast = horizon

    def _on_punctuation(self, punctuation: Punctuation) -> List[Match]:
        if self.workers == 1:
            return PartitionedEngine._on_punctuation(self, punctuation)
        self.clock.observe_punctuation(punctuation)
        emitted = self._boundary(punctuation.ts)
        self._last_broadcast = max(self._last_broadcast, punctuation.ts)
        return emitted

    def _release_through(self, target: int, emitted: List[Match]) -> None:
        while self._released < target:
            epoch = self._released + 1
            tagged = self._blocks.pop(epoch, [])
            tagged.sort(key=lambda t: (t[0], t[1], t[2]))
            for _, _, _, encoded in tagged:
                self._surface(self._decode_match(encoded), emitted)
            self._released = epoch

    # -- close -----------------------------------------------------------------------

    def _flush(self) -> List[Match]:
        if self.workers == 1:
            return PartitionedEngine._flush(self)
        emitted: List[Match] = []
        self._flush_all_builders()
        closing = self._epoch
        seq = self._seq
        self._seq = seq + 1
        live = self._live_slots()
        for slot in live:
            self._put(slot, ("close", closing, seq))
        # Slots never spawned but holding restored partitions: close
        # them in-process — same engines, same rank order, same tags.
        for slot in range(self.workers):
            states = self._rt.pending_init[slot]
            if self._spawned(slot) or not states:
                continue
            self._rt.pending_init[slot] = None
            stats_by_rank = []
            tagged = self._blocks.setdefault(closing, [])
            for rank, state in sorted(states):
                sub = _build_sub_engine(
                    self.pattern, self.k, self._purge_mode,
                    self._purge_interval, self.late_policy, self.index,
                )
                sub._restore_state(state)
                for j, match in enumerate(sub.close()):
                    tagged.append((seq, rank, j, snapshots.encode_match(match)))
                stats_by_rank.append((rank, sub.stats.as_dict()))
            self._worker_extras.append((slot, (stats_by_rank, None)))
        self._await_epoch(closing)
        self._release_through(closing, emitted)
        self._join_workers()
        instrumented = self._obs is not None and self._obs.registry is not None
        if instrumented:
            self._obs.merge_worker_states(
                [extra[1] for _, extra in sorted(self._worker_extras)]
            )
        return emitted

    def _join_workers(self) -> None:
        for slot in self._live_slots():
            proc = self._rt.procs[slot]
            proc.join(timeout=10.0)
            self._rt.procs[slot] = None
            self._rt.inboxes[slot] = None

    # -- snapshot / restore ------------------------------------------------------------

    def _snapshot_config(self) -> dict:
        config = super()._snapshot_config()
        # Worker count is part of the deterministic state *shape*
        # (serial vs. pipelined router state, partition->slot layout);
        # backend and batch/queue sizing never affect results.
        config["pipeline_workers"] = self.workers
        return config

    def _snapshot_state(self) -> dict:
        if self.workers == 1:
            return PartitionedEngine._snapshot_state(self)
        # The runtime bundle (queues, processes, builders, acks) never
        # enters the payload — it is *drained* into ``partitions``
        # through the quiesce barrier and rebuilt lazily after
        # restore.  The omission is only sound while the post-quiesce
        # invariants hold, so verify them before sealing the snapshot:
        # every builder flushed, every spawned worker paired with an
        # inbox and acked exactly through the previous epoch, the
        # shared transport up whenever a worker is, and no restore
        # payload still parked on a slot that already spawned
        # (spawning adopts and clears it).
        runtime = self._rt
        partitions = self._quiesce(runtime)
        unflushed = [
            w for w, builder in enumerate(runtime.builders)
            if builder is not None and len(builder)
        ]
        spawned = [w for w, proc in enumerate(runtime.procs) if proc is not None]
        torn = [w for w in spawned if runtime.inboxes[w] is None]
        lagging = [w for w in spawned if runtime.acked[w] != self._epoch - 1]
        unadopted = [w for w in spawned if runtime.pending_init[w]]
        transport_down = bool(spawned) and (
            runtime.outbox is None
            or runtime.sync_serial < 1
            or (self.backend == "process" and runtime.mp is None)
        )
        if unflushed or torn or lagging or unadopted or transport_down:
            raise SnapshotError(
                "pipeline failed to quiesce for snapshot: "
                f"unflushed builders {unflushed}, torn worker transport "
                f"{torn}, workers off the epoch barrier {lagging}, "
                f"unadopted restore payloads {unadopted}, "
                f"shared transport down: {transport_down}"
            )
        state = self._base_state()
        state.update(
            {
                "clock": self.clock.snapshot_state(),
                "since_punctuation": self._since_punctuation,
                "last_broadcast": self._last_broadcast,
                "seq": self._seq,
                "epoch": self._epoch,
                "released": self._released,
                "ranks": list(self._ranks.items()),
                "partitions": partitions,
                "blocks": sorted(
                    (epoch, list(tagged)) for epoch, tagged in self._blocks.items()
                ),
                "epoch_ledger": self.epoch_ledger.snapshot_state(),
                # Stats of already-reaped workers (non-empty only when
                # snapshotting after close); losing them would skew
                # merged_substats on the restored side.
                "worker_extras": list(self._worker_extras),
            }
        )
        return state

    def _quiesce(self, rt: _PipelineRuntime) -> List[Tuple[int, dict]]:
        """Drain *rt* into [(rank, state)]: flush + sync-barrier every worker.

        After the barrier every emission for every element sent so far
        sits in ``self._blocks`` (per-producer FIFO: a worker's sync
        reply follows all its prior publishes), so blocks and partition
        states are mutually consistent.
        """
        self._flush_all_builders()
        partitions: List[Tuple[int, dict]] = []
        for slot in range(self.workers):
            if rt.pending_init[slot]:
                partitions.extend(rt.pending_init[slot])
        live = self._live_slots()
        if live:
            rt.sync_serial += 1
            sync_id = rt.sync_serial
            for slot in live:
                self._put(slot, ("sync", sync_id))
            waiting = set(live)
            while waiting:
                try:
                    message = rt.outbox.get(timeout=_POLL)
                except queue_mod.Empty:
                    for w in list(waiting):
                        if not self._worker_alive(w):
                            self._drain()
                            self._raise_worker_death(w)
                    continue
                if message[0] == "sync" and message[2] == sync_id:
                    partitions.extend(message[3])
                    waiting.discard(message[1])
                else:
                    self._handle(message)
        partitions.sort(key=lambda pair: pair[0])
        return partitions

    def _restore_state(self, state: dict) -> None:
        if self.workers == 1:
            PartitionedEngine._restore_state(self, state)
            return
        self._restore_base(state)
        self.clock.restore_state(state["clock"])
        self._since_punctuation = state["since_punctuation"]
        self._last_broadcast = state["last_broadcast"]
        self._seq = state["seq"]
        self._epoch = state["epoch"]
        self._released = state["released"]
        self._ranks = dict(state["ranks"])
        self._blocks = {epoch: list(tagged) for epoch, tagged in state["blocks"]}
        self.epoch_ledger = EpochLedger()
        if "epoch_ledger" in state:
            self.epoch_ledger.restore_state(state["epoch_ledger"])
        self._worker_extras = list(state.get("worker_extras", ()))
        # A fresh runtime bundle: any transport from this object's
        # pre-restore life belongs to the old worker set.  Acks floor
        # at the restored epoch (workers spawned from here adopt it),
        # and the snapshot's partitions park as pending payloads until
        # their slot spawns.
        self._rt = _PipelineRuntime(
            self.workers, acked_floor=state["epoch"] - 1
        )
        for rank, sub_state in state["partitions"]:
            slot = rank % self.workers
            if self._rt.pending_init[slot] is None:
                self._rt.pending_init[slot] = []
            self._rt.pending_init[slot].append((rank, sub_state))

    # -- diagnostics -------------------------------------------------------------------

    def partition_count(self) -> int:
        if self.workers == 1:
            return PartitionedEngine.partition_count(self)
        return len(self._ranks)

    def state_size(self) -> int:
        """Router-visible state: rows built but not yet flushed.

        Worker-held sub-engine state is deliberately not polled per
        element (that would serialise the pipeline); use
        :meth:`merged_substats` after ``close`` for the full picture.
        """
        if self.workers == 1:
            return PartitionedEngine.state_size(self)
        return sum(
            len(builder) for builder in self._rt.builders if builder is not None
        ) + sum(len(tagged) for tagged in self._blocks.values())

    def merged_substats(self) -> EngineStats:
        if self.workers == 1:
            return PartitionedEngine.merged_substats(self)
        merged = EngineStats()
        for _, (stats_by_rank, _) in sorted(self._worker_extras):
            for _, payload in stats_by_rank:
                stats = EngineStats()
                stats.restore_from(payload)
                merged.merge(stats)
        return merged

    # -- metrics ----------------------------------------------------------------------

    def _note_queue_metrics(self, slot: int, batch_length: int) -> None:
        if self._obs is None or self._obs.registry is None:
            return
        registry = self._obs.registry
        registry.counter(
            "repro_pipeline_batches_total",
            "Columnar batches shipped to pipeline workers.",
            labels={"worker": str(slot)},
        ).inc()
        registry.counter(
            "repro_pipeline_batch_events_total",
            "Events shipped to pipeline workers in columnar batches.",
            labels={"worker": str(slot)},
        ).inc(batch_length)
        inbox = self._rt.inboxes[slot]
        try:
            depth = inbox.qsize()
        except NotImplementedError:  # macOS mp.Queue
            return
        registry.gauge(
            "repro_pipeline_queue_depth",
            "Messages waiting in a pipeline worker's inbox (sampled at "
            "each batch send; sustained values near the queue bound mean "
            "that worker is the bottleneck).",
            labels={"worker": str(slot)},
        ).set(depth)

    def _note_epoch_metrics(self) -> None:
        if self._obs is None or self._obs.registry is None:
            return
        registry = self._obs.registry
        live = self._live_slots()
        lag = 0
        if live:
            lag = max(self._epoch - 1 - self._rt.acked[w] for w in live)
        registry.gauge(
            "repro_pipeline_epoch_lag",
            "Epochs the slowest worker trails the router by at boundary "
            "time (0-1 is healthy; growth means workers can't keep up).",
        ).set(lag)
        registry.gauge(
            "repro_pipeline_epoch",
            "Epochs sealed by the pipeline router so far.",
        ).set(self._epoch)
