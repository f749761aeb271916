"""Speculative emission with retraction: latency ahead of the seal.

The conservative engine holds any match with unsealed negation/Kleene
brackets until the disorder bound (or a punctuation) proves no
invalidating event can still arrive — so emission latency is
lower-bounded by K even when the stream is nearly in order.  The
speculative mode (Kyrama & Gounaris' optimistic evaluation, see
PAPERS.md) emits such matches the moment construction completes,
tagged with a monotone sequence id and the current re-freeze epoch,
and issues a **retraction record** if the seal-time decision later
disagrees:

* ``negation-violated`` — a late negative event landed inside a
  bracket of an already-speculated match;
* ``empty-kleene`` — the Kleene collection turned out empty at seal;
* ``revised-binding`` — a late Kleene event changed the collection, so
  the speculative binding loses to the corrected one (the retraction
  is immediately followed by the corrected, sealed emission).

The speculative stream is strictly additive: the engine's pessimistic
machinery — pending heap, seal-time decisions, the ``results`` and
``emissions`` lists — runs unchanged, so the **sealed output is
byte-identical to a non-speculative run** of the same stream (the
property suite pins this).  Applying every retraction to the
speculative stream converges it to exactly the sealed result set
(:meth:`SpeculationLog.net_keys`), which is the consumer contract: a
downstream system may act on speculative matches immediately provided
it can compensate when a retraction with the same ``ref_seq`` arrives.
Compensation comes at the seal, not when the refuting event arrives:
the seal-time decision is the only place a record is reconciled, so a
negative the K policy drops as late never compensates, and the net
stream is exactly the sealed one.  This is the library's one optimistic
mode; the engine hands the stream over with
``OutOfOrderEngine.take_speculation()``, as it hands over matches.

Sequence ids are shared between emissions and retractions so the
speculative stream is totally ordered; epochs advance at punctuation
boundaries (the controller's re-freeze points, see
``repro.streams.controller``), letting consumers group compensations
by the bound regime that produced them.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.core.pattern import Match

#: Retraction causes (the `cause` field of every retraction record).
RETRACT_NEGATION = "negation-violated"
RETRACT_EMPTY_KLEENE = "empty-kleene"
RETRACT_REVISED = "revised-binding"

RETRACTION_CAUSES = (RETRACT_NEGATION, RETRACT_EMPTY_KLEENE, RETRACT_REVISED)


class SpeculativeEmission(NamedTuple):
    """One optimistic emission: a match surfaced ahead of its seal."""

    seq: int  #: position in the totally ordered speculative stream
    epoch: int  #: re-freeze epoch at emission time
    match: Match
    emitted_seq: int  #: engine arrival index at emission
    emitted_clock: int  #: stream clock (max occurrence ts) at emission


class Retraction(NamedTuple):
    """Compensation record: speculative emission ``ref_seq`` is withdrawn."""

    seq: int  #: position in the totally ordered speculative stream
    ref_seq: int  #: the speculative emission being withdrawn
    epoch: int  #: re-freeze epoch at retraction time
    match: Match  #: the withdrawn match, as originally speculated
    cause: str  #: one of :data:`RETRACTION_CAUSES`
    retracted_arrival: int
    retracted_clock: int


class SealOutcome(NamedTuple):
    """What :meth:`SpeculationLog.seal` did for one sealed emission."""

    record: SpeculativeEmission  #: the (confirmed or fresh) emission record
    retraction: Optional[Retraction]  #: revision retraction, if any
    fresh: bool  #: True when a new emission record was appended


def positive_key(match: Match) -> Tuple[int, ...]:
    """Identity of a match by its positive events only.

    ``Match.key()`` includes Kleene collections, which a speculative
    emission may carry in a pre-seal (still growing) state; the open-
    record map must recognise the sealed match as the same candidate,
    so it keys on the positive event ids alone.  Construction is
    exactly-once over positive combinations, so this key is unique
    among live candidates.
    """
    return tuple(e.eid for e in match.events)


class SpeculationLog:
    """The engine-owned speculative stream: untaken records, open records, epoch.

    The stream is output, not history: ``emissions`` and ``retractions``
    hold the records issued since the receiver's last :meth:`take`
    (the whole run for a receiver that never takes), and the only
    records the log keeps past a take are the *open* ones — emitted
    ahead of a seal decision that has not happened yet.  The log is
    deterministic state: it snapshots and restores with the engine, and
    two runs of the same input produce byte-identical speculative
    streams, however the receiver cuts its takes.  ``enabled`` gates
    *new* speculation (the controller's optimistic/pessimistic choice
    per epoch); sealing and retraction of already-open records proceed
    regardless, so toggling the mode mid-run never strands an open
    record.
    """

    __slots__ = ("emissions", "retractions", "epoch", "enabled", "_next_seq", "_open")

    def __init__(self) -> None:
        self.emissions: List[SpeculativeEmission] = []
        self.retractions: List[Retraction] = []
        self.epoch = 0
        self.enabled = True
        self._next_seq = 0
        #: positive key -> the emission record whose seal-time decision
        #: has not happened yet (taken or not).
        self._open: Dict[Tuple[int, ...], SpeculativeEmission] = {}

    @property
    def open_count(self) -> int:
        """Speculative emissions still awaiting their seal decision."""
        return len(self._open)

    def take(self) -> Tuple[List[SpeculativeEmission], List[Retraction]]:
        """Hand over the records issued since the last take and forget them."""
        taken = (self.emissions, self.retractions)
        self.emissions = []
        self.retractions = []
        return taken

    def speculate(self, match: Match, arrival: int, clock: int) -> SpeculativeEmission:
        """Record an optimistic emission for a not-yet-sealed match."""
        record = self._append(match, arrival, clock)
        self._open[positive_key(match)] = record
        return record

    def seal(self, match: Match, arrival: int, clock: int) -> SealOutcome:
        """Reconcile the log with a seal-time **emit** decision.

        Three cases: the match was speculated and the speculation was
        exact (confirm, nothing new); it was speculated with a binding
        the seal revised (retract the stale record, append the
        corrected one); or it was never speculated — mode off, or
        suppressed because the store already violated it — in which
        case the sealed emission itself joins the speculative stream
        (zero speculative lead, but the stream stays convergent).
        """
        record = self._open.pop(positive_key(match), None)
        if record is None:
            return SealOutcome(self._append(match, arrival, clock), None, True)
        if record.match.key() == match.key():
            return SealOutcome(record, None, False)
        retraction = self._withdraw(record, RETRACT_REVISED, arrival, clock)
        return SealOutcome(self._append(match, arrival, clock), retraction, True)

    def retract(
        self, match: Match, cause: str, arrival: int, clock: int
    ) -> Optional[Retraction]:
        """Reconcile the log with a seal-time **cancel** decision.

        Returns the retraction record, or None when the cancelled match
        was never speculated (nothing downstream needs compensating).
        """
        record = self._open.pop(positive_key(match), None)
        if record is None:
            return None
        return self._withdraw(record, cause, arrival, clock)

    def _append(self, match: Match, arrival: int, clock: int) -> SpeculativeEmission:
        record = SpeculativeEmission(self._next_seq, self.epoch, match, arrival, clock)
        self._next_seq += 1
        self.emissions.append(record)
        return record

    def _withdraw(
        self, record: SpeculativeEmission, cause: str, arrival: int, clock: int
    ) -> Retraction:
        retraction = Retraction(
            self._next_seq, record.seq, self.epoch, record.match,
            cause, arrival, clock,
        )
        self._next_seq += 1
        self.retractions.append(retraction)
        return retraction

    # -- consumer/verification surface -------------------------------------------

    def net_keys(self) -> Set[Tuple]:
        """Untaken speculative identities after applying the untaken retractions.

        For a receiver that never takes, after ``close()`` this equals
        the sealed ``result_set()`` — the convergence contract the
        property suite pins.
        """
        withdrawn = {r.ref_seq for r in self.retractions}
        return {
            record.match.key()
            for record in self.emissions
            if record.seq not in withdrawn
        }

    def retraction_rate(self) -> float:
        """Fraction of the untaken speculative emissions later withdrawn."""
        if not self.emissions:
            return 0.0
        return len(self.retractions) / len(self.emissions)

    # -- checkpointing -------------------------------------------------------------

    def snapshot_state(self, encode) -> dict:
        def emission(r: SpeculativeEmission) -> tuple:
            return (r.seq, r.epoch, encode(r.match), r.emitted_seq, r.emitted_clock)

        return {
            "epoch": self.epoch,
            "enabled": self.enabled,
            "next_seq": self._next_seq,
            "emissions": [emission(r) for r in self.emissions],
            "retractions": [
                (r.seq, r.ref_seq, r.epoch, encode(r.match), r.cause,
                 r.retracted_arrival, r.retracted_clock)
                for r in self.retractions
            ],
            # Open records may already be taken, so they travel whole.
            "open": [emission(r) for r in self._open.values()],
        }

    def restore_state(self, state: dict, decode) -> None:
        def emission(fields: tuple) -> SpeculativeEmission:
            seq, epoch, match, arrival, clock = fields
            return SpeculativeEmission(seq, epoch, decode(match), arrival, clock)

        self.epoch = state["epoch"]
        self.enabled = state["enabled"]
        self._next_seq = state["next_seq"]
        self.emissions = [emission(fields) for fields in state["emissions"]]
        self.retractions = [
            Retraction(seq, ref, epoch, decode(match), cause, arrival, clock)
            for seq, ref, epoch, match, cause, arrival, clock in state["retractions"]
        ]
        self._open = {}
        for fields in state["open"]:
            # An int indexes ``emissions``: a snapshot written before the
            # log could be taken, when every record was still in it.
            if isinstance(fields, int):
                record = self.emissions[fields]
            else:
                record = emission(fields)
            self._open[positive_key(record.match)] = record

    def __repr__(self) -> str:
        return (
            f"SpeculationLog(emitted={len(self.emissions)}, "
            f"retracted={len(self.retractions)}, open={self.open_count}, "
            f"epoch={self.epoch}, enabled={self.enabled})"
        )
